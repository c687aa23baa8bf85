package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
	"sphinx/internal/wire"
)

// The fan-out suite pins the replica fan-out (records.go begin and run,
// DESIGN.md §5.14): its round-trip and verb budget per path, one layer alone
// and both in the same rounds, a swap race lost on one leg only, and a target
// killed or down before and in the middle of a fan-out.

// The single-layer forms of a write's acknowledgement (replicate with one
// layer on), as the suites drive them.

func (c *Client) anchorUpsert(key, value []byte) (bool, error) {
	return c.replicate(key, value, false, true, false)
}

func (c *Client) anchorRemove(key []byte) (bool, error) {
	return c.replicate(key, nil, true, true, false)
}

func (c *Client) hotRefresh(key, value []byte) error {
	_, err := c.replicate(key, value, false, false, true)
	return err
}

func (c *Client) hotRemove(key []byte) error {
	_, err := c.replicate(key, nil, true, false, true)
	return err
}

// The per-node forms the record store's suites are written in. Each is a
// one-target fan-out — which is the sequential path.

func (s *recordStore) publishOn(node mem.NodeID, rec record, mode publishMode) (published, error) {
	l := &s.publish([]mem.NodeID{node}, rec, mode)[0]
	return l.pub, l.err
}

func (s *recordStore) removeOn(node mem.NodeID, key []byte, only func(head) bool) (bool, error) {
	l := &s.remove([]mem.NodeID{node}, key, only)[0]
	return len(l.heads) > 0, l.err
}

// whole is a record's head with the value a separate read fetched.
type whole struct {
	head
	value []byte
}

// recordsOn returns every record of key on node, values included.
func (s *recordStore) recordsOn(node mem.NodeID, key []byte) ([]whole, error) {
	l := &s.find([]mem.NodeID{node}, key)[0]
	if l.err != nil {
		return nil, l.err
	}
	var out []whole
	for _, h := range l.heads {
		rec, err := s.read(h.entry.Addr, h.size)
		if err != nil {
			return nil, err
		}
		out = append(out, whole{h, rec.value})
	}
	return out, nil
}

// newestWhole returns the highest-version record of a non-empty list.
func newestWhole(ws []whole) whole {
	best := ws[0]
	for _, w := range ws[1:] {
		if w.version > best.version {
			best = w
		}
	}
	return best
}

// headsRead accepts the park behind a fan-out's head-read round of key: a
// batch that ends in the READ of one head, after which a competing writer has
// to land to win the race for the entry CAS of the next round.
func headsRead(key []byte) func(fabrictest.Step) bool {
	return func(s fabrictest.Step) bool {
		return s.BatchEnd && s.Op.Kind == fabric.Read && len(s.Op.Data) == recordDataOff+len(key)
	}
}

// newAckCluster is a 3-MN cluster with both replica layers on — anchors at
// R=2, hot replicas at factor 3 — whose fabric shows one NIC queueing, so that
// a promotion runs, and a client whose tracker never promotes by itself.
func newAckCluster(t *testing.T, cfg fabric.Config) (*fabric.Fabric, Shared, *Client) {
	t.Helper()
	f, shared := bootCluster(t, 3, cfg, func(f *fabric.Fabric, ring *consistenthash.Ring) (Shared, error) {
		shared, err := BootstrapReplicated(f, ring, 1000, DefaultReplication)
		if err == nil {
			err = BootstrapHot(f, &shared, 256, 3)
		}
		return shared, err
	})
	fabrictest.Queue(t, f, shared.Hot.Load, 0)
	return f, shared, newTestClient(f, shared, Options{Hot: eagerHotSet(3, 1<<30)})
}

// warmAck runs enough replicated writes through c that every record-table
// view holds its directory and every allocator slab of the record class
// exists: what is measured afterwards is the fan-outs alone.
func warmAck(t *testing.T, c *Client, value []byte) {
	t.Helper()
	for i := 0; i < 12; i++ {
		key := []byte(fmt.Sprintf("warm-key-%02d", i))
		if _, err := c.Insert(key, value); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			c.hotPromote(key) // opens the writers' gate; the rest probe all three hot tables
		}
	}
}

// TestReplicaAckBudget pins what the replicated part of an acknowledgement
// costs, fault-free, with 1 KiB values and warm directory caches: round trips
// AND verbs per path, so that a fan-out that comes apart into per-node
// batches, or is fused by adding verbs, fails here. was is what the per-node
// store this replaced took, measured with this test at the parent commit: one
// bucket read, two record reads, the image write, a second bucket read plus
// the entry CAS, a retire — per target, one target after another. A joint row
// is a write acknowledged by both layers at once (replicate): as many rounds
// as the longer of its two single-layer rows, their verbs summed; its was is
// the two fan-outs one after the other, their rounds summed. A whole-write row
// is an Update, Insert or Delete, tree write and acknowledgement together.
func TestReplicaAckBudget(t *testing.T) {
	f, shared, c := newAckCluster(t, fabric.DefaultConfig())
	val := bytes.Repeat([]byte("v"), 1024)
	warmAck(t, c, val)
	other := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 1<<30)})
	warmAck(t, other, val)

	key := []byte("budget-key")
	if _, err := c.Insert(key, val); err != nil {
		t.Fatal(err)
	}
	// An Update teaches the leaf-address cache the key's leaf: the whole-write
	// Update below is the speculative in-place write.
	if _, err := c.Update(key, val); err != nil {
		t.Fatal(err)
	}
	// Every step runs on the state the one before it left.
	steps := []struct {
		name       string
		rts, verbs uint64 // exact, unless atMost
		atMost     bool
		was        [2]uint64 // round trips and verbs of the per-node store this replaced
		run        func() error
	}{
		{name: "anchored fresh insert", rts: 2, verbs: 10, was: [2]uint64{8, 14}, run: func() error {
			_, err := c.anchorUpsert([]byte("budget-fresh"), val)
			return err
		}},
		{name: "anchored update", rts: 3, verbs: 12, was: [2]uint64{12, 18}, run: func() error {
			_, err := c.anchorUpsert(key, val)
			return err
		}},
		{name: "anchor failover read", rts: 3, verbs: 7, atMost: true, was: [2]uint64{6, 8}, run: func() error {
			v, ok, err := c.anchorGet(key)
			if err == nil && (!ok || !bytes.Equal(v, val)) {
				err = fmt.Errorf("anchorGet = %d bytes, ok %v", len(v), ok)
			}
			return err
		}},
		{name: "anchor remove", rts: 3, verbs: 10, was: [2]uint64{10, 16}, run: func() error {
			_, err := c.anchorRemove([]byte("budget-fresh"))
			return err
		}},
		{name: "hot refresh, key not promoted", rts: 1, verbs: 6, was: [2]uint64{3, 6}, run: func() error {
			return c.hotRefresh(key, val)
		}},
		{name: "hot remove, key not promoted", rts: 1, verbs: 6, was: [2]uint64{3, 6}, run: func() error {
			return c.hotRemove(key)
		}},
		{name: "joint: anchored update + hot refresh, key not promoted", rts: 3, verbs: 12 + 6, was: [2]uint64{3 + 1, 12 + 6}, run: func() error {
			_, err := c.replicate(key, val, false, true, true)
			return err
		}},
		// Whole writes, tree write included: the anchors' read rounds ride its
		// batches, and the hot probe their one round after the commit. was is
		// the anchors' fan-out begun after the commit: the speculative write's 2
		// + 3, a fresh insert's tree 5 + 2 (bucket pairs; WRITE + CAS), a
		// delete's tree 5 + 3 (bucket pairs, heads, entry CAS → 0).
		{name: "whole write: warm Update", rts: 2 + 1, verbs: 21, was: [2]uint64{2 + 3, 21}, run: func() error {
			_, err := c.Update(key, val)
			return err
		}},
		{name: "whole write: Insert of a fresh key", rts: 5 + 1, verbs: 28, was: [2]uint64{5 + 2, 28}, run: func() error {
			_, err := c.Insert([]byte("budget-whole"), val)
			return err
		}},
		{name: "whole write: Delete", rts: 5 + 1, verbs: 25, was: [2]uint64{5 + 3, 25}, run: func() error {
			_, err := c.Delete([]byte("budget-whole"))
			return err
		}},
		{name: "promotion onto three empty targets", rts: 11, verbs: 45, atMost: true, was: [2]uint64{36, 57}, run: func() error {
			c.hotPromote(key)
			if c.Stats().HotPromotes != 2 {
				return fmt.Errorf("the key did not promote")
			}
			return nil
		}},
		{name: "hot refresh, key live on three targets", rts: 4, verbs: 21, was: [2]uint64{21, 30}, run: func() error {
			return c.hotRefresh(key, val)
		}},
		{name: "joint: anchored update + hot refresh, key live", rts: 4, verbs: 12 + 21, was: [2]uint64{3 + 4, 12 + 21}, run: func() error {
			_, err := c.replicate(key, val, false, true, true)
			return err
		}},
		{name: "adoption re-promotion by another CN", rts: 2, verbs: 9, was: [2]uint64{9, 12}, run: func() error {
			other.hotPromote(key)
			if other.Stats().HotPromotes != 2 {
				return fmt.Errorf("the other CN did not adopt the records")
			}
			return nil
		}},
		{name: "hot remove, key live on three targets", rts: 3, verbs: 18, was: [2]uint64{18, 27}, run: func() error {
			return c.hotRemove(key)
		}},
		// warmAck promoted its first key, and both clients wrote it since.
		{name: "joint: anchor remove + hot remove, key live", rts: 3, verbs: 10 + 18, was: [2]uint64{3 + 3, 10 + 18}, run: func() error {
			_, err := c.replicate([]byte("warm-key-00"), nil, true, true, true)
			return err
		}},
	}
	for _, st := range steps {
		who := c
		if st.name == "adoption re-promotion by another CN" {
			who = other
		}
		before := who.eng.C.Stats()
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		d := who.eng.C.Stats().Sub(before)
		t.Logf("%-54s %2d round trips (was %2d), %2d verbs (was %2d)", st.name, d.RoundTrips, st.was[0], d.Verbs, st.was[1])
		exact := d.RoundTrips == st.rts && d.Verbs == st.verbs
		if !exact && !(st.atMost && d.RoundTrips <= st.rts && d.Verbs <= st.verbs) {
			t.Errorf("%s: %d round trips, %d verbs; want %d, %d (at most: %v)", st.name, d.RoundTrips, d.Verbs, st.rts, st.verbs, st.atMost)
		}
		if d.Verbs > st.was[1] {
			t.Errorf("%s: %d verbs, above the per-node store's %d", st.name, d.Verbs, st.was[1])
		}
	}
	if st := c.Stats(); st.ReplicaRequeues != 0 || st.ReplicaSplits != 0 || st.ReplicaRounds >= st.ReplicaLegs {
		t.Errorf("fault-free, one writer: %d requeues, %d splits, %d rounds for %d legs; want none, none, and fewer rounds than legs",
			st.ReplicaRequeues, st.ReplicaSplits, st.ReplicaRounds, st.ReplicaLegs)
	}
}

// TestFanoutLosesRaceOnOneLeg replays, in a schedule, a rival that lands a
// version on ONE target between the fan-out's read of the heads and its round
// of image WRITEs and entry CASes. Only that leg goes back to the bucket read;
// the others publish in the round they were in. A newer rival is adopted there
// and our unpublished image retired; an older one is swapped over on the second
// try (and, in a routed store, retired). Either way every node ends up serving
// its highest version through exactly one entry.
func TestFanoutLosesRaceOnOneLeg(t *testing.T) {
	for _, rivalIs := range []string{"newer", "older"} {
		t.Run(rivalIs+" rival", func(t *testing.T) {
			eachShape(t, func(t *testing.T, sh storeShape) {
				f, shared := sh.cluster(t, 3)
				key := []byte("one-leg-key")
				a, b := newTestClient(f, shared, Options{}), newTestClient(f, shared, Options{})
				sa, sb := sh.store(a), sh.store(b)
				nodes := sa.place(nil, shared.Ring, key)
				if len(nodes) < 2 {
					t.Fatalf("%d targets; the race needs a leg that is not raced", len(nodes))
				}
				for _, n := range nodes {
					if err := sh.seed(sa, n, key); err != nil {
						t.Fatal(err)
					}
				}
				ours := record{wire.StatusIdle, key, bytes.Repeat([]byte("a"), 100), 0}
				rival := record{wire.StatusIdle, key, bytes.Repeat([]byte("b"), 100), 0}
				if rivalIs == "newer" {
					ours.version, rival.version = sa.nextVersion(), sb.nextVersion()
				} else {
					rival.version, ours.version = sb.nextVersion(), sa.nextVersion()
				}
				var rivalPub published
				var rivalErr error
				var legs []leg
				before := a.Stats()
				sw := fabrictest.Switch(0, headsRead(key))
				fabrictest.Run(f, sw, fabrictest.Proc{C: a.eng.C, Fn: func() { legs = sa.publish(nodes, ours, sh.live) }},
					fabrictest.Proc{Fn: func() { rivalPub, rivalErr = sb.publishOn(nodes[0], rival, sh.live) }})
				if sw.Turns[0].At == nil || rivalErr != nil || !rivalPub.wrote {
					t.Fatalf("rival's publish behind the head read (%+v): %+v, %v", sw.Turns[0].At, rivalPub, rivalErr)
				}
				if d := a.Stats().ReplicaRequeues - before.ReplicaRequeues; d != 1 {
					t.Errorf("%d legs went back to the bucket read, want the raced one only", d)
				}
				for i := range legs {
					l := &legs[i]
					lost := i == 0 && rivalIs == "newer"
					if l.err != nil || l.pub.wrote == lost || !l.pub.servable || (lost && l.pub.addr != rivalPub.addr) {
						t.Errorf("leg %d (node %d): %+v, err %v; want wrote=%v", i, l.node, l.pub, l.err, !lost)
					}
					want := ours
					if lost {
						want = rival
					}
					if recs, err := sa.recordsOn(l.node, key); err != nil || len(recs) != 1 || recs[0].version != want.version || !bytes.Equal(recs[0].value, want.value) {
						t.Errorf("node %d holds %d records (err %v), want exactly version %d", l.node, len(recs), err, want.version)
					}
				}
				// The raced node's loser: our image if the rival was newer — never
				// named by an entry, so retired in any store — else the rival's,
				// superseded like any record: retired where readers cache addresses.
				loser, retired := ours, true
				if rivalIs == "older" {
					loser, retired = rival, sa.routed
				}
				im, ok := imageAt(scanImages(t, f, nodes[0], key), loser.version)
				if !ok || (im.status == wire.StatusInvalid) != retired {
					t.Errorf("the loser's image on node %d: found=%v status=%v, want retired=%v", nodes[0], ok, im.status, retired)
				}
			})
		})
	}
}

// TestFanoutKilledLeg kills one target of a replicated write — before the
// fan-out's first batch, and between its bucket read and the rounds behind it.
// A batch that names a killed node is rejected whole, so the round is posted
// again one node at a time: the surviving legs land, the dead one is the
// layer's to judge. Anchors skip it and count a partial replica set; the hot
// writer skips it because it is KILLED — a node that is merely down fails the
// write, or a reader could be served the record the refresh never reached.
func TestFanoutKilledLeg(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 1024)
	key := []byte("killed-leg-key")
	for _, when := range []string{"before the bucket read", "after the bucket read"} {
		t.Run("anchors/"+when, func(t *testing.T) {
			f, _, c := newAckCluster(t, fabric.DefaultConfig())
			warmAck(t, c, val)
			if _, err := c.Insert(key, val); err != nil {
				t.Fatal(err)
			}
			treeHolds(t, c, key, []byte("after the kill"))
			targets, _ := c.anchors.targets(c.members.Current(), key, false)
			victim := targets[len(targets)-1]
			// At the write's start, or behind the bucket read: the batch of the
			// targets' pairs, a READ each.
			var match func(fabrictest.Step) bool
			wantAt := uint64(0)
			if when == "after the bucket read" {
				match = func(s fabrictest.Step) bool {
					return s.BatchEnd && s.Op.Kind == fabric.Read && len(s.Op.Data) == racehash.BucketSize
				}
				wantAt = uint64(2 * len(targets))
			}
			sw := fabrictest.Switch(0, match)
			before := c.Stats()
			existed, err := false, error(nil)
			fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { existed, err = c.anchorUpsert(key, []byte("after the kill")) }},
				fabrictest.Proc{Fn: func() { f.KillNode(victim) }})
			if sw.Turns[0].At == nil || sw.Turns[0].At.K != wantAt {
				t.Fatalf("the kill landed at %+v; want %s", sw.Turns[0].At, when)
			}
			if err != nil || !existed {
				t.Fatalf("anchorUpsert with one target killed = %v, %v; want it acknowledged by the survivor", existed, err)
			}
			st := c.Stats()
			if st.PartialReplicas != before.PartialReplicas+1 || st.ReplicaSplits != before.ReplicaSplits+1 {
				t.Errorf("partial replicas %d→%d, splits %d→%d; want one more of each",
					before.PartialReplicas, st.PartialReplicas, before.ReplicaSplits, st.ReplicaSplits)
			}
			if v, ok, err := c.anchorGet(key); err != nil || !ok || string(v) != "after the kill" {
				t.Errorf("anchorGet after the kill = %q, %v, %v", v, ok, err)
			}
		})
	}

	t.Run("hot", func(t *testing.T) {
		f, shared, c := newAckCluster(t, fabric.DefaultConfig())
		plan := &fabric.FaultPlan{Seed: 1}
		f.SetFaultPlan(plan)
		writer := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 1<<30)})
		f.SetFaultPlan(nil)
		warmAck(t, c, val)
		warmAck(t, writer, val)
		if _, err := c.Insert(key, val); err != nil {
			t.Fatal(err)
		}
		c.hotPromote(key)
		targets, _ := c.hot.targets(c.members.Current(), key, false)
		targets = append([]mem.NodeID(nil), targets...)

		// Down, not dead: the write must not be acknowledged.
		plan.Down = []fabric.DownWindow{{Node: targets[0], FromPs: 0, ToPs: 1 << 62}}
		if err := writer.hotRefresh(key, val); !errors.Is(err, fabric.ErrNodeDown) || errors.Is(err, fabric.ErrNodeKilled) {
			t.Fatalf("hotRefresh with a target down = %v; want the node-down error", err)
		}
		plan.Down = nil

		f.KillNode(targets[0])
		before := writer.Stats()
		if err := writer.hotRefresh(key, []byte("after the kill")); err != nil {
			t.Fatalf("hotRefresh with a target killed = %v; want the killed node skipped", err)
		}
		if st := writer.Stats(); st.HotRefreshes != before.HotRefreshes+1 || st.ReplicaSplits == before.ReplicaSplits {
			t.Errorf("refreshes %d→%d, splits %d→%d; want the survivors refreshed after a split round",
				before.HotRefreshes, st.HotRefreshes, before.ReplicaSplits, st.ReplicaSplits)
		}
		for _, n := range targets[1:] {
			if recs, err := writer.hot.recordsOn(n, key); err != nil || len(recs) != 1 || string(recs[0].value) != "after the kill" {
				t.Errorf("surviving target %d: %d records, err %v; want exactly the refreshed one", n, len(recs), err)
			}
		}
	})

	// Both layers in the same rounds (replicate): the first round carries the
	// legs of both to a killed or a down node, and every leg of it is posted
	// again alone before each layer judges its own — the anchors skip the node
	// either way and count a partial set, the hot writer fails on a down one.
	for _, fault := range []string{"killed", "down"} {
		t.Run("joint/"+fault, func(t *testing.T) {
			f, shared, c := newAckCluster(t, fabric.DefaultConfig())
			plan := &fabric.FaultPlan{Seed: 1}
			f.SetFaultPlan(plan)
			writer := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 1<<30)})
			f.SetFaultPlan(nil)
			warmAck(t, c, val)
			warmAck(t, writer, val)
			if _, err := c.Insert(key, val); err != nil {
				t.Fatal(err)
			}
			c.hotPromote(key)
			anchors, _ := writer.anchors.targets(writer.members.Current(), key, false)
			victim, legs := anchors[0], len(anchors)
			hots, _ := writer.hot.targets(writer.members.Current(), key, false)
			if legs += len(hots); !slices.Contains(hots, victim) {
				t.Fatalf("anchor target %d is not among the hot targets %v", victim, hots)
			}
			hots = slices.DeleteFunc(slices.Clone(hots), func(n mem.NodeID) bool { return n == victim })
			treeHolds(t, writer, key, []byte("after the fault"))
			if fault == "killed" {
				f.KillNode(victim)
			} else {
				plan.Down = []fabric.DownWindow{{Node: victim, FromPs: 0, ToPs: 1 << 62}}
			}

			before := writer.Stats()
			_, err := writer.replicate(key, []byte("after the fault"), false, true, true)
			st := writer.Stats()
			// A promoted key's refresh takes 4 rounds, the anchors' 3 within them.
			if st.ReplicaSplits != before.ReplicaSplits+1 || st.ReplicaRounds != before.ReplicaRounds+4+uint64(legs) ||
				st.PartialReplicas != before.PartialReplicas+1 {
				t.Errorf("splits %d→%d, rounds %d→%d, partial replicas %d→%d; want one split round posted again leg by leg (%d legs) and one partial anchor set",
					before.ReplicaSplits, st.ReplicaSplits, before.ReplicaRounds, st.ReplicaRounds, before.PartialReplicas, st.PartialReplicas, legs)
			}
			if fault == "down" {
				if !errors.Is(err, fabric.ErrNodeDown) || errors.Is(err, fabric.ErrNodeKilled) {
					t.Fatalf("joint write with a target down = %v; want the hot writer's node-down error", err)
				}
				fscktest.Accept(f, rart.HotStale) // docs/failure-model.md §5.2: the write is left in doubt
				return
			}
			if err != nil {
				t.Fatalf("joint write with a target killed = %v; want the killed node skipped by both layers", err)
			}
			if v, ok, err := writer.anchorGet(key); err != nil || !ok || string(v) != "after the fault" {
				t.Errorf("anchorGet after the kill = %q, %v, %v", v, ok, err)
			}
			for _, n := range hots {
				if recs, err := writer.hot.recordsOn(n, key); err != nil || len(recs) != 1 || string(recs[0].value) != "after the fault" {
					t.Errorf("surviving hot target %d: %d records, err %v; want exactly the refreshed one", n, len(recs), err)
				}
			}
		})
	}
}

// treeHolds puts value under key in the tree alone: the commit that comes
// ahead of a replica write which a test drives by itself, so that the index
// check holds the layers' records to the value they were given.
func treeHolds(t *testing.T, c *Client, key, value []byte) {
	t.Helper()
	root, err := c.readRoot()
	if err == nil {
		_, err = c.eng.PutFrom(root, key, value, rart.PutUpsert, rart.NopHooks{})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommitToKilledNodeFailsOver replays the kill TestConcurrentKillRepairServe
// met by luck: the memory node holding a key's leaf dies between an update's
// lock and the WRITE that commits it. The engine used to re-issue that WRITE
// until its budget died and return "retries exhausted: publish batch", which
// names no node, so the driver could only fail the put. The kill now comes
// back as what it is, and the write is served by the anchors like any other
// whose tree path is lost.
func TestCommitToKilledNodeFailsOver(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.DefaultConfig(), 1000)
	// The tree path's lock and commit: two batches, with the kill between them.
	c := NewClient(shared, f.NewClient(), Options{Filter: testFilter(0)})
	keys := testKeys(32)
	for _, k := range keys {
		if _, err := c.Insert(k, []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	key := keys[0]
	leaf := leafAddrOf(t, c, key)
	sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
		return s.Op.Kind == fabric.CAS && s.Op.Addr == leaf && s.Op.Old == s.Op.Expect
	})
	before := c.Stats()
	existed, err := false, error(nil)
	fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { existed, err = c.Update(key, []byte("after!")) }},
		fabrictest.Proc{Fn: func() { f.KillNode(leaf.Node()) }})
	if sw.Turns[0].At == nil {
		t.Fatal("the update never locked the leaf; nothing was replayed")
	}
	if err != nil || !existed {
		t.Fatalf("update whose commit met a killed node = %v, %v; want it failed over to the anchors", existed, err)
	}
	if st := c.Stats(); st.DegradedPuts != before.DegradedPuts+1 || st.Restarts != before.Restarts || c.eng.Stats().PublishRetries != 0 {
		t.Errorf("degraded puts %d→%d, restarts %d→%d, %d re-issued commits; want one fail-over decision and nothing else",
			before.DegradedPuts, st.DegradedPuts, before.Restarts, st.Restarts, c.eng.Stats().PublishRetries)
	}
	if v, ok, err := c.Search(key); err != nil || !ok || string(v) != "after!" {
		t.Errorf("read after the failed-over update = %q, %v, %v", v, ok, err)
	}
}

// The riding fan-out: a write begins the anchors' fan-out before its tree
// write, whose batches carry the bucket-pair and head reads; the version gate
// and everything that writes wait for the commit (anchorArm).

// parkedAtGate reports whether every leg of the store's fan-out read its heads
// and waits at the version gate with nothing allocated.
func parkedAtGate(s *recordStore) bool {
	for i := range s.legs {
		if l := &s.legs[i]; l.err != nil || l.step != stepGate || l.own.Valid {
			return false
		}
	}
	return len(s.legs) > 0
}

// warmUpdateClient is a client on a 3-MN replicated cluster whose
// leaf-address cache knows key: its next Update is the speculative in-place
// write, two batches — the lock CAS and leaf READ, carrying the anchors'
// bucket pairs; the releasing WRITE, carrying their heads.
func warmUpdateClient(t *testing.T, key []byte) (*fabric.Fabric, Shared, *Client) {
	t.Helper()
	f, shared := newReplicatedCluster(t, 3, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	if _, err := c.Insert(key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(key, []byte("v1")); err != nil { // teaches the leaf-address cache
		t.Fatal(err)
	}
	return f, shared, c
}

// TestAnchorRideLosesRaceToRival is TestFanoutLosesRaceOnOneLeg with the read
// rounds ridden: a rival publishes on one target between the heads our
// Update's releasing WRITE carried and our entry CAS. The CAS was planned
// from the earlier pair read and names the superseded entry's exact word, so
// it loses; that leg alone reads again and swaps over the rival. The rival's
// version was drawn before ours — ours is drawn when the fan-out is armed,
// after the commit — so LWW keeps the tree's value on every replica.
func TestAnchorRideLosesRaceToRival(t *testing.T) {
	key := []byte("ridden-race-key")
	f, shared, a := warmUpdateClient(t, key)
	b := newTestClient(f, shared, Options{})
	nodes := a.anchors.place(nil, shared.Ring, key)
	rival := record{wire.StatusIdle, key, []byte("rival"), 0}
	var rivalPub published
	var rivalErr error
	// The rival runs as the releasing WRITE's batch completes, before the
	// rider settles the heads it carried.
	rivalFn := func() {
		for i := range a.anchors.legs {
			if l := &a.anchors.legs[i]; l.step != stepHeads || len(l.heads) != 1 {
				t.Errorf("leg %d at step %d with %d heads: the heads did not ride the releasing WRITE", i, l.step, len(l.heads))
			}
		}
		rival.version = b.anchors.nextVersion()
		rivalPub, rivalErr = b.anchors.publishOn(nodes[0], rival, publishUpsert)
	}
	before := a.Stats()
	ok, err := false, error(nil)
	sw := fabrictest.Switch(2, fabrictest.AtBatchEnd)
	fabrictest.Run(f, sw, fabrictest.Proc{C: a.eng.C, Fn: func() { ok, err = a.Update(key, []byte("ours")) }}, fabrictest.Proc{Fn: rivalFn})
	if sw.Turns[0].At == nil || sw.Turns[0].At.Op.Kind != fabric.Read || sw.Turns[0].At.Stage != fabric.StageLeafWrite {
		t.Fatalf("the rival ran at %+v; want behind the releasing WRITE's batch, the heads' READs", sw.Turns[0].At)
	}
	if err != nil || !ok {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	if rivalErr != nil || !rivalPub.wrote {
		t.Fatalf("rival's publish: %+v, %v", rivalPub, rivalErr)
	}
	st := a.Stats()
	if st.SpecUpdHits != before.SpecUpdHits+1 || st.ReplicaRidden != before.ReplicaRidden+2 || st.ReplicaRequeues != before.ReplicaRequeues+1 {
		t.Errorf("spec hits +%d, ridden rounds +%d, requeues +%d; want 1, 2, 1 (the raced leg)",
			st.SpecUpdHits-before.SpecUpdHits, st.ReplicaRidden-before.ReplicaRidden, st.ReplicaRequeues-before.ReplicaRequeues)
	}
	for _, n := range nodes {
		recs, err := a.anchors.recordsOn(n, key)
		if err != nil || len(recs) != 1 || string(recs[0].value) != "ours" || recs[0].version <= rival.version {
			t.Errorf("node %d: %d records (err %v); want exactly ours, above the rival's version %d", n, len(recs), err, rival.version)
		}
	}
	if v, ok, err := b.anchorGet(key); err != nil || !ok || string(v) != "ours" {
		t.Errorf("anchorGet = %q, %v, %v; want the tree's value", v, ok, err)
	}
}

// TestAnchorRideTreeWriteFails: a tree write that fails after both read rounds
// rode it — its client dies in the batch behind them — leaves the anchors as
// they were: every leg parked at the version gate, no image allocated or
// written, no entry CASed, and the fan-out off the rider slot.
func TestAnchorRideTreeWriteFails(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.DefaultConfig(), 1000)
	key := []byte("ridden-fail-key")
	c := NewClient(shared, f.NewClient(), Options{Filter: testFilter(0)})
	if _, err := c.Insert(key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	targets := c.anchors.place(nil, shared.Ring, key)
	images := make([]int, len(targets))
	for i, n := range targets {
		images[i] = len(scanImages(t, f, n, key))
	}
	before := c.Stats()
	var err error
	sw := fabrictest.Switch(2, fabrictest.AtBatchEnd)
	fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { _, err = c.Update(key, []byte("never")) }},
		fabrictest.Proc{Fn: func() { c.eng.C.FailAt(0, fabric.ErrClientCrashed) }})
	if sw.Turns[0].At == nil || !errors.Is(err, fabric.ErrClientCrashed) {
		t.Fatalf("Update = %v, the crash aimed at %+v; want it behind the second batch", err, sw.Turns[0].At)
	}
	if st := c.Stats(); !parkedAtGate(c.anchors) || c.anchors.pending || st.ReplicaRidden != before.ReplicaRidden+2 || st.ReplicaRounds != st.ReplicaRidden-before.ReplicaRidden+before.ReplicaRounds {
		t.Errorf("after the failed write: parked %v, pending %v, ridden rounds +%d, rounds +%d; want parked, off the slot, 2 and 2",
			parkedAtGate(c.anchors), c.anchors.pending, st.ReplicaRidden-before.ReplicaRidden, st.ReplicaRounds-before.ReplicaRounds)
	}
	r := newTestClient(f, shared, Options{})
	for i, n := range targets {
		if recs, err := r.anchors.recordsOn(n, key); err != nil || len(recs) != 1 || string(recs[0].value) != "v0" {
			t.Errorf("node %d: %d records (err %v); want the one acknowledged before", n, len(recs), err)
		}
		if got := len(scanImages(t, f, n, key)); got != images[i] {
			t.Errorf("node %d: %d images of the key, %d before the failed write", n, got, images[i])
		}
	}
}

// TestAnchorRideUpdateMissPostsNoSwap: an Update of an absent key writes
// nothing to the tree, so the anchors' fan-out its batches carried is dropped
// at the gate: every round it cost was a ridden read, and no replica holds the
// key.
func TestAnchorRideUpdateMissPostsNoSwap(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	for _, k := range testKeys(8) {
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("ridden-missing-key")
	before := c.Stats()
	if ok, err := c.Update(key, []byte("never")); ok || err != nil {
		t.Fatalf("Update of an absent key = %v, %v", ok, err)
	}
	st := c.Stats()
	if ridden := st.ReplicaRidden - before.ReplicaRidden; ridden == 0 || st.ReplicaRounds-before.ReplicaRounds != ridden || !parkedAtGate(c.anchors) || c.anchors.pending {
		t.Errorf("rounds +%d, ridden +%d, parked %v, pending %v; want only ridden rounds, every leg left at the gate, off the slot",
			st.ReplicaRounds-before.ReplicaRounds, ridden, parkedAtGate(c.anchors), c.anchors.pending)
	}
	for _, n := range c.anchors.place(nil, shared.Ring, key) {
		if recs, err := c.anchors.recordsOn(n, key); err != nil || len(recs) != 0 {
			t.Errorf("node %d: %d records of the absent key (err %v)", n, len(recs), err)
		}
	}
}

// TestAnchorRideTargetsMoved: a target's breaker learns it dead between the
// batch that carried the bucket pairs and the commit. The heads' batch names
// the dead node, so it is rejected and posted again without them: the write
// commits alone. At the commit the targets differ from those the fan-out
// began on, so it begins afresh on the new ones — the replica set is whole,
// as it is for a write begun after the breaker opened.
func TestAnchorRideTargetsMoved(t *testing.T) {
	key := []byte("ridden-moved-key")
	f, shared, c := warmUpdateClient(t, key)
	leaf := leafAddrOf(t, c, key)
	targets := c.anchors.place(nil, shared.Ring, key)
	victim := targets[0]
	if victim == leaf.Node() {
		victim = targets[1]
	}
	before := c.Stats()
	ok, err := false, error(nil)
	sw := fabrictest.Switch(1, fabrictest.AtBatchEnd)
	fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { ok, err = c.Update(key, []byte("after")) }},
		fabrictest.Proc{Fn: func() {
			f.KillNode(victim)
			f.Health().MarkDead(victim)
		}})
	if sw.Turns[0].At == nil || sw.Turns[0].At.Stage != fabric.StageLeafWrite {
		t.Fatalf("the loss landed at %+v; want behind the lock batch", sw.Turns[0].At)
	}
	if err != nil || !ok {
		t.Fatalf("Update with a target lost mid-write = %v, %v", ok, err)
	}
	st := c.Stats()
	if st.PartialReplicas != before.PartialReplicas || st.ReplicaFanouts != before.ReplicaFanouts+2 || st.SpecUpdHits != before.SpecUpdHits+1 {
		t.Errorf("partial replicas +%d, fan-outs +%d, spec hits +%d; want 0, 2 (the ridden one dropped), 1",
			st.PartialReplicas-before.PartialReplicas, st.ReplicaFanouts-before.ReplicaFanouts, st.SpecUpdHits-before.SpecUpdHits)
	}
	moved, _ := c.anchors.targets(c.members.Current(), key, false)
	if slices.Contains(moved, victim) || len(moved) != DefaultReplication {
		t.Fatalf("targets after the loss %v still name %d", moved, victim)
	}
	for _, n := range slices.Clone(moved) {
		if recs, err := c.anchors.recordsOn(n, key); err != nil || len(recs) != 1 || string(recs[0].value) != "after" {
			t.Errorf("node %d: %d records (err %v); want exactly the write's", n, len(recs), err)
		}
	}
}
