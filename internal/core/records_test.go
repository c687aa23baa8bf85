package core

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
	"sphinx/internal/wire"
)

// The records suite pins the record store's protocol (records.go) once and
// runs it against both shapes the store is instantiated in: the unrouted
// anchor store, whose publishes insert-or-swap, and the routed hot store,
// whose servable publishes are swap-only onto insert-if-absent placeholders.

type storeShape struct {
	name    string
	cluster func(t *testing.T, mns int) (*fabric.Fabric, Shared)
	store   func(c *Client) *recordStore
	// live is the mode the layer publishes servable records with.
	live publishMode
	// seed makes key present on node the way the layer first does.
	seed func(s *recordStore, node mem.NodeID, key []byte) error
}

var storeShapes = []storeShape{
	{
		name: "anchors",
		cluster: func(t *testing.T, mns int) (*fabric.Fabric, Shared) {
			return newReplicatedCluster(t, mns, fabric.InstantConfig(), 1000)
		},
		store: func(c *Client) *recordStore { return c.anchors },
		live:  publishUpsert,
		seed: func(s *recordStore, node mem.NodeID, key []byte) error {
			_, err := s.publishOn(node, record{wire.StatusIdle, key, []byte("seed"), s.nextVersion()}, publishUpsert)
			return err
		},
	},
	{
		name: "hot",
		cluster: func(t *testing.T, mns int) (*fabric.Fabric, Shared) {
			return newHotCluster(t, mns, fabric.InstantConfig(), 3)
		},
		store: func(c *Client) *recordStore { return c.hot },
		live:  publishSwapOnly,
		seed: func(s *recordStore, node mem.NodeID, key []byte) error {
			_, err := s.publishOn(node, record{status: wire.StatusLocked, key: key, version: s.nextVersion()}, publishIfAbsent)
			return err
		},
	},
}

func eachShape(t *testing.T, fn func(t *testing.T, sh storeShape)) {
	for _, sh := range storeShapes {
		t.Run(sh.name, func(t *testing.T) { fn(t, sh) })
	}
}

// image is one record image of a key found by scanning a node's memory,
// whether or not any table entry still points at it.
type image struct {
	addr    mem.Addr
	status  wire.Status
	version uint64
}

// scanImages walks the allocated part of node's region at the record
// alignment and returns every image of key, dead memory included.
func scanImages(t *testing.T, f *fabric.Fabric, node mem.NodeID, key []byte) []image {
	t.Helper()
	usage, err := mem.ReadUsage(f.Regions(), node)
	if err != nil {
		t.Fatal(err)
	}
	region := f.Region(node)
	want := recordHeader(wire.StatusIdle, key) &^ 3
	buf := make([]byte, recordDataOff+len(key))
	var out []image
	for off := uint64(mem.HeaderSize); off+uint64(len(buf)) <= usage.Total; off += mem.LineSize {
		if region.ReadUint64(off)&^3 != want {
			continue
		}
		region.Read(off, buf)
		st, ver, keyLen, _ := decodeRecordWords(buf)
		if keyLen == len(key) && bytes.Equal(buf[recordDataOff:], key) {
			out = append(out, image{mem.NewAddr(node, off), st, ver})
		}
	}
	return out
}

func imageAt(imgs []image, version uint64) (image, bool) {
	for _, im := range imgs {
		if im.version == version {
			return im, true
		}
	}
	return image{}, false
}

// TestRecordLWWConcurrentPublishers: N publishers race on one key of one
// node with cluster-ordered versions. Whatever the interleaving, the node
// must end up serving the highest version published, and one more publish
// must leave exactly one entry — first inserts included, which is where
// duplicate entries come from.
func TestRecordLWWConcurrentPublishers(t *testing.T) {
	eachShape(t, func(t *testing.T, sh storeShape) {
		f, shared := sh.cluster(t, 3)
		key := []byte("lww-key")
		node := shared.Ring.Nodes()[0]
		if sh.live == publishSwapOnly {
			// Swap-only publishers need something to swap over; upserting
			// ones race their first inserts too.
			if err := sh.seed(sh.store(newTestClient(f, shared, Options{})), node, key); err != nil {
				t.Fatal(err)
			}
		}
		const publishers, rounds = 6, 30
		var top atomic.Uint64
		var wg sync.WaitGroup
		errCh := make(chan error, publishers)
		for w := 0; w < publishers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := sh.store(newTestClient(f, shared, Options{}))
				for i := 0; i < rounds; i++ {
					ver := s.nextVersion()
					rec := record{wire.StatusIdle, key, []byte(strconv.FormatUint(ver, 10)), ver}
					if _, err := s.publishOn(node, rec, sh.live); err != nil {
						errCh <- err
						return
					}
					for old := top.Load(); ver > old && !top.CompareAndSwap(old, ver); old = top.Load() {
					}
				}
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		s := sh.store(newTestClient(f, shared, Options{}))
		cands, err := s.recordsOn(node, key)
		if err != nil || len(cands) == 0 {
			t.Fatalf("after the race: %d records, err=%v", len(cands), err)
		}
		best := newestWhole(cands)
		if best.version != top.Load() || string(best.value) != strconv.FormatUint(best.version, 10) {
			t.Fatalf("newest record is version %d value %q; highest published was %d", best.version, best.value, top.Load())
		}
		ver := s.nextVersion()
		if pub, err := s.publishOn(node, record{wire.StatusIdle, key, []byte("final"), ver}, sh.live); err != nil || !pub.wrote {
			t.Fatalf("final publish: %+v, %v", pub, err)
		}
		cands, err = s.recordsOn(node, key)
		if err != nil || len(cands) != 1 || cands[0].version != ver {
			t.Fatalf("after the final publish: %d records (want exactly the final one), err=%v", len(cands), err)
		}
	})
}

// TestRecordLostSwapRetiresImage replays a lost swap race in a schedule:
// a competitor lands a newer version between the publisher's read of the
// heads and the round that writes its image and CASes its entry in, one
// behind the other in one batch. The loser must adopt the winner and retire the image
// it wrote but never published — no live-looking Idle orphan in dead memory.
func TestRecordLostSwapRetiresImage(t *testing.T) {
	eachShape(t, func(t *testing.T, sh storeShape) {
		f, shared := sh.cluster(t, 3)
		key := []byte("race-key")
		node := shared.Ring.Nodes()[0]
		a, b := newTestClient(f, shared, Options{}), newTestClient(f, shared, Options{})
		sa, sb := sh.store(a), sh.store(b)
		if err := sh.seed(sa, node, key); err != nil {
			t.Fatal(err)
		}
		loser := record{wire.StatusIdle, key, bytes.Repeat([]byte("a"), 100), sa.nextVersion()}
		winner := record{wire.StatusIdle, key, bytes.Repeat([]byte("b"), 100), sb.nextVersion()}
		var pub, winPub published
		var err, winErr error
		sw := fabrictest.Switch(0, headsRead(key))
		fabrictest.Run(f, sw, fabrictest.Proc{C: a.eng.C, Fn: func() { pub, err = sa.publishOn(node, loser, sh.live) }},
			fabrictest.Proc{Fn: func() { winPub, winErr = sb.publishOn(node, winner, sh.live) }})
		if sw.Turns[0].At == nil || winErr != nil || !winPub.wrote {
			t.Fatalf("competing publish behind the head read (%+v): %+v, %v", sw.Turns[0].At, winPub, winErr)
		}
		if err != nil || pub.wrote || !pub.servable || pub.addr != winPub.addr {
			t.Fatalf("losing publish = %+v, %v; want the winner's record at %v adopted", pub, err, winPub.addr)
		}
		imgs := scanImages(t, f, node, key)
		if im, ok := imageAt(imgs, loser.version); !ok || im.status != wire.StatusInvalid {
			t.Errorf("loser's unpublished image: found=%v status=%v, want it retired (Invalid)", ok, im.status)
		}
		if im, ok := imageAt(imgs, winner.version); !ok || im.status != wire.StatusIdle || im.addr != winPub.addr {
			t.Errorf("winner's image: found=%v %+v, want Idle at %v", ok, im, winPub.addr)
		}
		if cands, err := sa.recordsOn(node, key); err != nil || len(cands) != 1 || cands[0].version != winner.version {
			t.Errorf("table holds %d records after the race (err=%v), want only the winner's", len(cands), err)
		}
	})
}

// TestRecordSwapOnlyNeverInserts: a swap-only publish onto a node that
// holds nothing for the key inserts nothing — including when the key
// vanishes between the publisher's read of the heads and its image write and
// entry CAS, the concurrent delete that must not be resurrected.
func TestRecordSwapOnlyNeverInserts(t *testing.T) {
	eachShape(t, func(t *testing.T, sh storeShape) {
		f, shared := sh.cluster(t, 3)
		key := []byte("deleted-key")
		node := shared.Ring.Nodes()[0]
		a, b := newTestClient(f, shared, Options{}), newTestClient(f, shared, Options{})
		sa, sb := sh.store(a), sh.store(b)
		absent := func(context string) {
			t.Helper()
			if cands, err := sa.recordsOn(node, key); err != nil || len(cands) != 0 {
				t.Fatalf("%s: %d records, err=%v; want none", context, len(cands), err)
			}
		}

		rec := record{wire.StatusIdle, key, bytes.Repeat([]byte("v"), 100), sa.nextVersion()}
		if pub, err := sa.publishOn(node, rec, publishSwapOnly); err != nil || pub != (published{}) {
			t.Fatalf("swap-only publish onto an absent key = %+v, %v; want nothing", pub, err)
		}
		absent("after a swap-only publish onto an absent key")
		if _, ok := imageAt(scanImages(t, f, node, key), rec.version); ok {
			t.Error("swap-only publish onto an absent key wrote an image")
		}

		if err := sh.seed(sa, node, key); err != nil {
			t.Fatal(err)
		}
		rec.version = sa.nextVersion()
		var removed bool
		var pub published
		var err, rmErr error
		sw := fabrictest.Switch(0, headsRead(key))
		fabrictest.Run(f, sw, fabrictest.Proc{C: a.eng.C, Fn: func() { pub, err = sa.publishOn(node, rec, publishSwapOnly) }},
			fabrictest.Proc{Fn: func() { removed, rmErr = sb.removeOn(node, key, nil) }})
		if sw.Turns[0].At == nil || rmErr != nil || !removed {
			t.Fatalf("concurrent remove behind the head read (%+v) = %v, %v", sw.Turns[0].At, removed, rmErr)
		}
		if err != nil || pub != (published{}) {
			t.Fatalf("swap-only publish racing a delete = %+v, %v; want nothing", pub, err)
		}
		absent("after a swap-only publish lost to a concurrent delete")
		if im, ok := imageAt(scanImages(t, f, node, key), rec.version); !ok || im.status != wire.StatusInvalid {
			t.Errorf("image abandoned to the delete: found=%v status=%v, want it retired (Invalid)", ok, im.status)
		}
	})
}

// TestRecordRemoveCoversPreviousEpoch: while a membership transition is in
// flight a key's replica set is the union of the new ring's targets and
// the old ring's, so a remove reaches the replica the migration sweep would
// otherwise copy forward.
func TestRecordRemoveCoversPreviousEpoch(t *testing.T) {
	eachShape(t, func(t *testing.T, sh storeShape) {
		f, shared := sh.cluster(t, 4)
		s := sh.store(newTestClient(f, shared, Options{}))
		var victim mem.NodeID
		for _, n := range shared.Ring.Nodes() {
			if n != shared.Root.Node() {
				victim = n
			}
		}
		// A key the victim holds a replica of under the old ring.
		var key []byte
		for i := 0; key == nil; i++ {
			k := []byte(fmt.Sprintf("moving-key-%03d", i))
			for _, n := range s.place(nil, shared.Ring, k) {
				if n == victim {
					key = k
				}
			}
		}
		for _, n := range s.place(nil, shared.Ring, key) {
			if err := sh.seed(s, n, key); err != nil {
				t.Fatal(err)
			}
		}
		p, err := BeginDrainNode(shared, victim)
		if err != nil {
			t.Fatal(err)
		}
		cur, _ := s.targets(p, key, false)
		for _, n := range cur {
			if n == victim {
				t.Fatalf("draining node %d still among the new ring's targets %v", victim, cur)
			}
		}
		union, curN := s.targets(p, key, true)
		if curN != len(cur) || !slices.Contains(union[curN:], victim) {
			t.Fatalf("mid-transition targets %v (first %d from the new ring) miss the old replica on node %d", union, curN, victim)
		}
		for _, n := range append([]mem.NodeID(nil), union...) {
			if _, err := s.removeOn(n, key, nil); err != nil {
				t.Fatal(err)
			}
		}
		if cands, err := s.recordsOn(victim, key); err != nil || len(cands) != 0 {
			t.Errorf("old-epoch replica survived the remove: %d records, err=%v", len(cands), err)
		}
	})
}

// TestRecordSweepConverges: a sweep over under-replicated tables copies
// each record onto the rest of its replica set, and a second sweep finds
// nothing left to do.
func TestRecordSweepConverges(t *testing.T) {
	eachShape(t, func(t *testing.T, sh storeShape) {
		f, shared := sh.cluster(t, 3)
		s := sh.store(newTestClient(f, shared, Options{}))
		p := shared.Members.Current()
		const keys = 40
		var replicas uint64
		for i := 0; i < keys; i++ {
			key := []byte(fmt.Sprintf("sweep-key-%03d", i))
			targets := s.place(nil, p.Ring, key)
			replicas += uint64(len(targets))
			rec := record{wire.StatusIdle, key, []byte("v"), s.nextVersion()}
			if _, err := s.publishOn(targets[0], rec, publishUpsert); err != nil {
				t.Fatal(err)
			}
		}
		sweepAll := func() (total sweepTally) {
			for _, src := range p.Ring.Nodes() {
				tally, err := s.sweep(p, src, false)
				if err != nil {
					t.Fatal(err)
				}
				total.scanned += tally.scanned
				total.copied += tally.copied
				total.failed += tally.failed + tally.unread + tally.removed
			}
			return total
		}
		if first := sweepAll(); first.copied != replicas-keys || first.failed != 0 {
			t.Fatalf("first sweep = %+v, want %d copies", first, replicas-keys)
		}
		if second := sweepAll(); second.copied != 0 || second.failed != 0 || second.scanned != replicas {
			t.Fatalf("second sweep = %+v, want %d records scanned and nothing copied", second, replicas)
		}
	})
}

// TestRecordReadRejectsOverrun: a record whose length words claim more
// bytes than remain in its region must come back as a malformed-record
// error; following them would read past the region's end.
func TestRecordReadRejectsOverrun(t *testing.T) {
	f, shared := newReplicatedCluster(t, 1, fabric.InstantConfig(), 100)
	s := newTestClient(f, shared, Options{}).anchors
	node := shared.Ring.Nodes()[0]
	region := f.Region(node)
	key := []byte("overrun!")
	// The image starts 128 bytes before the region's end and claims a
	// kilobyte of value: in range for the region as a whole, not from here.
	img := appendRecord(nil, record{wire.StatusIdle, key, nil, 1})
	img[recordLensOff+3] = 0x04 // valLen = 0x400
	region.Write(region.Size()-128, img)
	if _, err := s.read(mem.NewAddr(node, region.Size()-128), recordSpecRead); err == nil {
		t.Error("record overrunning the region end read without error")
	}
	if _, err := s.read(mem.NewAddr(node, region.Size()-8), recordSpecRead); err == nil {
		t.Error("record address with no room for a header read without error")
	}
	// The same image read with room to spare is well-formed but truncated
	// by nothing: the control that the rejection is about the boundary.
	region.Write(region.Size()-4096, img)
	if rec, err := s.read(mem.NewAddr(node, region.Size()-4096), recordSpecRead); err != nil || !bytes.Equal(rec.key, key) || len(rec.value) != 0x400 {
		t.Errorf("in-range record = key %q, %d value bytes, err=%v", rec.key, len(rec.value), err)
	}
}

// plantRecord writes rec on node and inserts a table entry for it without
// looking — what a publisher that observed "absent" does — so tests can
// stage the duplicate entries two such publishers leave behind.
func plantRecord(t *testing.T, s *recordStore, node mem.NodeID, rec record) {
	t.Helper()
	img := appendRecord(nil, rec)
	addr, err := s.alloc.Alloc(node, mem.ClassLeaf, uint64(len(img)))
	if err == nil {
		err = s.fc.Write(addr, img)
	}
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.viewOf(node)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Insert(racehash.PlacementHash(rec.key), entryOfRecord(rec.key, addr), s.alloc); err != nil {
		t.Fatal(err)
	}
}

// TestHotRetireFaultIsNotAcked replays a transient on the one 8-byte WRITE
// that retires a superseded hot record — right after the entry CAS that took
// it out of the table — while another CN still routes to it. With the retire
// error dropped, the put (or delete) was acknowledged and that CN's next read
// verified the old image in place: an acked write read stale. The error must
// reach the writer instead, so that either the operation is not acknowledged
// or the reader refutes. With anchors on, a put's anchor legs ride the hot
// refresh's first three rounds and land; the retire round behind them fails
// on every posting, and the put must still not be acknowledged.
func TestHotRetireFaultIsNotAcked(t *testing.T) {
	key, old := []byte("retire-key"), []byte("v1")
	for _, op := range []string{"put", "delete", "put beside anchors"} {
		t.Run(op, func(t *testing.T) {
			anchored := op == "put beside anchors"
			var f *fabric.Fabric
			var shared Shared
			if anchored {
				f, shared, _ = newAckCluster(t, fabric.DefaultConfig())
			} else {
				f, shared = newHotCluster(t, 3, fabric.DefaultConfig(), 3)
				fabrictest.Queue(t, f, shared.Hot.Load, 0)
			}
			reader := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 3)})
			plan := &fabric.FaultPlan{Seed: 1}
			f.SetFaultPlan(plan)
			writer := newTestClient(f, shared, Options{})
			f.SetFaultPlan(nil)
			if _, err := reader.Insert(key, old); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8 && reader.Stats().HotPromotes == 0; i++ {
				warmSearch(t, reader, key, old)
			}
			hits := reader.Stats().HotHits
			warmSearch(t, reader, key, old)
			if reader.Stats().HotHits != hits+1 {
				t.Fatal("the reader never got a route to the key's hot records")
			}

			// A put's first winning CAS in the hot store — the swap over a
			// record — makes its next batch, the round of retire WRITEs, fail.
			// A delete's drop round holds the entry CAS and the retire WRITE
			// behind it, so there the read of a head makes the drop round the
			// next batch. (Beside the anchors the CAS may be an anchor's:
			// their swap rides the same round, under the hot stage.)
			sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
				won := s.Op.Kind == fabric.CAS && s.Op.Old == s.Op.Expect
				head := s.Op.Kind == fabric.Read && len(s.Op.Data) == recordDataOff+len(key)
				return s.Stage == fabric.StageHotPub && (op != "delete" && won || op == "delete" && head)
			})
			fault := func() { writer.eng.C.FailAt(0, fabric.ErrTransient) }
			if anchored {
				fault = func() { plan.TransientPer64k = 1 << 16 } // every posting from here on fails
			}
			var err error
			want, present := []byte("v2"), true
			fabrictest.Run(f, sw, fabrictest.Proc{C: writer.eng.C, Fn: func() {
				if op != "delete" {
					_, err = writer.Insert(key, want)
				} else {
					_, err = writer.Delete(key)
					want, present = nil, false
				}
			}}, fabrictest.Proc{Fn: fault})
			plan.TransientPer64k = 0
			if sw.Turns[0].At == nil {
				t.Fatal("the write took no swap in the hot store; the fault was never aimed")
			}
			if anchored {
				// The retire round and each of its three legs posted alone.
				if n := writer.eng.C.Stats().Transients; n != 4 || err == nil {
					t.Fatalf("%d transients, put = %v; want the retire round failed on every posting and the put not acknowledged", n, err)
				}
				if v, ok, err := writer.anchorGet(key); err != nil || !ok || !bytes.Equal(v, want) {
					t.Errorf("anchors after the unacknowledged put = %q, %v, %v; want the value their legs landed", v, ok, err)
				}
				fscktest.Accept(f, rart.HotStale) // docs/failure-model.md §5.2: the put is left in doubt
				return
			}
			if writer.eng.C.Stats().Transients != 1 {
				t.Fatalf("%d transients; the fault missed the retire write", writer.eng.C.Stats().Transients)
			}
			if err != nil {
				return // not acknowledged: the reader may see either value
			}
			if v, ok, err := reader.Search(key); err != nil || ok != present || !bytes.Equal(v, want) {
				t.Errorf("reader after the acked %s = %q, %v, %v; want %q, %v", op, v, ok, err, want, present)
			}
		})
	}
}
