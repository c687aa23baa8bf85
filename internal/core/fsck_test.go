package core

import (
	"bytes"
	"encoding/binary"
	"maps"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
	"sphinx/internal/wire"
)

// Fsck checks a quiesced cluster through fc, a client no fault plan touches
// (DESIGN.md §6): the tree, as rart's check does, then the inner-node hash
// tables and the replica layers' records against it. The cluster builders
// run it when a test ends.
func Fsck(fc *fabric.Client, shared Shared) *rart.Check {
	c := NewClient(shared, fc, Options{})
	ck := c.eng.Fsck(shared.Root)
	c.fsckTables(ck)
	for s, kind := range map[*recordStore]rart.Kind{c.anchors: rart.AnchorStale, c.hot: rart.HotStale} {
		if s != nil {
			c.fsckRecords(ck, s, kind)
		}
	}
	return ck
}

// fsckTables checks the tables of the current and the previous placement:
// every reachable inner node but the root has one entry, and every entry
// names a reachable node — or an Invalid one, which is only counted.
func (c *Client) fsckTables(ck *rart.Check) {
	reached := map[[2]uint64]mem.Addr{} // by depth and prefix hash
	for addr, r := range ck.Inner {
		reached[[2]uint64{uint64(r.Node.Hdr.Depth), r.Node.Hdr.PrefixHash}] = addr
	}
	p, walked := c.members.Current(), ck.Skipped == 0
	tables := maps.Clone(p.Tables)
	if p.Prev != nil {
		maps.Copy(tables, p.Prev.Tables)
	}
	named, orphaned := map[mem.Addr]int{}, map[mem.Addr]bool{}
	for node, t := range tables {
		if c.eng.Reach(ck, t.Meta, 8) == nil {
			continue
		}
		err := c.viewOf(node).Walk(func(e wire.HashEntry) error {
			if _, ok := ck.Inner[e.Addr]; ok {
				named[e.Addr]++
				return nil
			}
			img := c.eng.Reach(ck, e.Addr, 8)
			if img == nil {
				return nil
			}
			hdr := wire.DecodeNodeHeader(binary.LittleEndian.Uint64(img))
			grown, orphan := reached[[2]uint64{uint64(hdr.Depth), hdr.PrefixHash}]
			switch {
			case hdr.Status == wire.StatusInvalid:
				ck.Stale++
			case orphan:
				orphaned[grown] = true
				ck.Add(rart.OrphanOriginal, e.Addr, "the tree reaches %v for its prefix", grown)
			case walked:
				ck.Add(rart.Phantom, e.Addr, "%v entry on MN %d", e.Type, node)
			}
			return nil
		})
		if err != nil { // the table's entries past the error go uncounted
			walked = false
			ck.Skipped++
		}
	}
	for addr, r := range ck.Inner {
		switch n := named[addr]; {
		case r.Node.Hdr.Depth == 0, n == 1, n == 0 && orphaned[addr], r.Prefix == nil:
		case n == 0 && (!walked || c.eng.C.Fabric().NodeKilled(p.Ring.OwnerKey(r.Prefix))):
			ck.Skipped++
		case n == 0:
			ck.Add(rart.NoEntry, addr, "prefix %q", r.Prefix)
		default:
			// A blind CAS that landed outside the home buckets is the one
			// entry beside the home one a crash may leave (DESIGN.md §5.6).
			cands, err := c.viewFor(r.Prefix).LookupAppend(nil, racehash.PlacementHash(r.Prefix), wire.FP12(r.Prefix))
			home, kind := 0, rart.SecondEntry
			if err != nil {
				ck.Skipped++
				continue
			}
			for _, cd := range cands {
				if cd.Entry.Addr == addr {
					home++
				}
			}
			if home == 1 {
				kind = rart.BlindOrphan
			}
			ck.Add(kind, addr, "named by %d entries, %d in its home buckets; prefix %q", n, home, r.Prefix)
		}
	}
}

// fsckRecords holds one replica layer's records of every key the tree holds
// to the tree's value (DESIGN.md §5.13–5.14): the newest anchor record across
// the key's replica set, and the newest hot record on each node of its set —
// a reader asks one node. A Locked hot placeholder serves nothing.
func (c *Client) fsckRecords(ck *rart.Check, s *recordStore, kind rart.Kind) {
	for key, value := range ck.Values {
		targets, _ := s.targets(c.members.Current(), []byte(key), true)
		legs := s.find(targets, []byte(key))
		for i := range legs {
			var h head
			if s == c.hot {
				if j := newest(legs[i].heads); legs[i].err == nil && j >= 0 {
					h = legs[i].heads[j]
				}
			} else if i == 0 {
				_, h = newestOf(legs)
			}
			if !h.entry.Valid || h.status != wire.StatusIdle {
				continue
			}
			if rec, err := s.read(h.entry.Addr, h.size); err != nil {
				ck.Skipped++
			} else if !bytes.Equal(rec.value, value) {
				ck.Add(kind, h.entry.Addr, "%q at version %d holds %.16q; the tree %.16q", key, h.version, rec.value, value)
			}
		}
	}
}

// poke writes data at addr straight into its MN, a fault no verb made, and
// puts the old bytes back ahead of the cluster's index check at the end.
func poke(f *fabric.Fabric, addr mem.Addr, data []byte) {
	r := f.Region(addr.Node())
	old := make([]byte, len(data))
	r.Read(addr.Offset(), old)
	r.Write(addr.Offset(), data)
	fscktest.Unplant(f, func() { r.Write(addr.Offset(), old) })
}

func word(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// emptySlot returns a free entry slot of prefix's home buckets.
func emptySlot(t *testing.T, f *fabric.Fabric, c *Client, prefix []byte) mem.Addr {
	t.Helper()
	var p racehash.PreparedRead
	if err := c.viewFor(prefix).PrepareInto(&p, racehash.PlacementHash(prefix)); err != nil {
		t.Fatal(err)
	}
	for _, op := range p.AppendOps(nil) {
		for s := 1; s <= racehash.EntriesPerBucket; s++ {
			if at := op.Addr.Add(8 * uint64(s)); f.Region(at.Node()).ReadUint64(at.Offset()) == 0 {
				return at
			}
		}
	}
	t.Fatalf("the home buckets of %q are full", prefix)
	return 0
}

// TestFsckReportsEachPlantedFault plants each fault the index check names on
// a small replicated cluster, by raw writes into the MNs, and the check
// reports exactly that one finding, of that kind, at that address.
func TestFsckReportsEachPlantedFault(t *testing.T) {
	prefix := []byte("fsck-")
	for _, tc := range []struct {
		kind  rart.Kind
		plant func(t *testing.T, f *fabric.Fabric, c *Client, node *rart.Node, leaf mem.Addr) mem.Addr
	}{
		{rart.TornLeaf, func(t *testing.T, f *fabric.Fabric, c *Client, _ *rart.Node, leaf mem.Addr) mem.Addr {
			poke(f, leaf.Add(8), word(f.Region(leaf.Node()).ReadUint64(leaf.Offset()+8)^1))
			return leaf
		}},
		{rart.InvalidTarget, func(t *testing.T, f *fabric.Fabric, c *Client, _ *rart.Node, leaf mem.Addr) mem.Addr {
			poke(f, leaf, word(wire.WithStatus(f.Region(leaf.Node()).ReadUint64(leaf.Offset()), wire.StatusInvalid)))
			return leaf
		}},
		{rart.LiveLock, func(t *testing.T, f *fabric.Fabric, c *Client, node *rart.Node, _ mem.Addr) mem.Addr {
			poke(f, node.LeaseAddr(), word(wire.EncodeLease(uint16(c.eng.C.ID()), 1)))
			return node.Addr
		}},
		{rart.SecondEntry, func(t *testing.T, f *fabric.Fabric, c *Client, node *rart.Node, _ mem.Addr) mem.Addr {
			e := wire.HashEntry{Valid: true, FP: wire.FP12(prefix), Type: node.Hdr.Type, Addr: node.Addr}
			poke(f, emptySlot(t, f, c, prefix), word(e.Encode()))
			return node.Addr
		}},
		{rart.Phantom, func(t *testing.T, f *fabric.Fabric, c *Client, _ *rart.Node, leaf mem.Addr) mem.Addr {
			return plantImpostor(t, c, []byte("phantom"), 'x', wire.Slot{Leaf: true, Addr: leaf}).Addr
		}},
		{rart.AnchorStale, func(t *testing.T, f *fabric.Fabric, c *Client, _ *rart.Node, _ mem.Addr) mem.Addr {
			// One replica's record, made the newest, holds another value.
			key := []byte("fsck-a")
			targets, _ := c.anchors.targets(c.members.Current(), key, false)
			recs, err := c.anchors.recordsOn(targets[0], key)
			if err != nil || len(recs) != 1 {
				t.Fatalf("the anchor records of %q: %v, %v", key, recs, err)
			}
			at := recs[0].entry.Addr
			poke(f, at.Add(recordVersionOff), word(recs[0].version+1<<8))
			poke(f, at.Add(recordDataOff+uint64(len(key))), []byte("X"))
			return at
		}},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 100)
			c := newTestClient(f, shared, Options{})
			for _, k := range []string{"fsck-a", "fsck-b", "fsck-c"} {
				if _, err := c.Insert([]byte(k), []byte("v-"+k)); err != nil {
					t.Fatal(err)
				}
			}
			fscktest.Now(t, f, "before the plant")
			node, err := c.fetchValidated(prefix)
			if err != nil || node == nil {
				t.Fatalf("the node of %q: %v, %v", prefix, node, err)
			}
			at := tc.plant(t, f, c, node, leafAddrOf(t, c, []byte("fsck-b")))
			ck := Fsck(f.NewClient(), shared)
			if len(ck.Findings) != 1 || ck.Findings[0].Kind != tc.kind || ck.Findings[0].Addr != at {
				t.Errorf("findings %v; want one %v at %v", ck.Findings, tc.kind, at)
			}
			for mn, b := range ck.Reachable {
				if b == 0 || b > ck.Reserved[mn] {
					t.Errorf("MN %d: %d bytes reachable, %d reserved", mn, b, ck.Reserved[mn])
				}
			}
			if r := f.Region(at.Node()); tc.kind == rart.Phantom { // retired, the impostor's entry is only counted
				r.WriteUint64(at.Offset(), wire.WithStatus(r.ReadUint64(at.Offset()), wire.StatusInvalid))
				if ck = Fsck(f.NewClient(), shared); len(ck.Findings) != 0 || ck.Stale != 1 {
					t.Errorf("findings %v, %d stale entries; want none and the impostor's", ck.Findings, ck.Stale)
				}
			}
		})
	}
}
