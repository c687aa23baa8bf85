package core

import (
	"bytes"
	"fmt"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/racehash"
	"sphinx/internal/wire"
)

// Tests of the verbs a write posts one batch early because they wait on
// nothing that batch returns (DESIGN.md §5.6, §5.11): a tree-path update's
// leaf lock CAS in the leaf's READ, a type switch's entry pair in the
// re-routed landing's batch, and a returned lease bet in the batch the put
// posts next.

// fusedEnv is a cluster holding the keys of the update tests, and a client
// with the setup's filter and no leaf-address cache: every update takes the
// tree path, through the table, its directory cache warm.
type fusedEnv struct {
	f      *fabric.Fabric
	shared Shared
	setup  *Client
	c      *Client
}

func newFusedEnv(t *testing.T, keys ...string) fusedEnv {
	t.Helper()
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 1000)
	setup := newTestClient(f, shared, Options{})
	for _, k := range keys {
		if _, err := setup.Insert([]byte(k), val64(1)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient(shared, f.NewClient(), Options{Filter: setup.filter})
	warmSearch(t, c, []byte(keys[0]), val64(1))
	return fusedEnv{f, shared, setup, c}
}

// update runs c.Update and returns its batches.
func (e fusedEnv) update(t *testing.T, c *Client, key string, value []byte) (ok bool, log batchLog) {
	t.Helper()
	c.eng.C.SetObserver(&log)
	ok, err := c.Update([]byte(key), value)
	c.eng.C.SetObserver(nil)
	if err != nil {
		t.Fatalf("update %q: %v", key, err)
	}
	return ok, log
}

// cost sums a batch log: round trips, verbs and stages.
func (b *batchLog) cost() (rts, verbs int, stages string) {
	var st []string
	for _, ev := range b.evs {
		rts += int(ev.RoundTrips)
		verbs += ev.Verbs
		st = append(st, ev.Stage.String())
	}
	return rts, verbs, fmt.Sprint(st)
}

// TestTreeUpdateLocksLeafWithItsRead walks the outcomes of the leaf hop of
// an update that misses the leaf-address cache: the leaf's READ rides behind
// the header CAS Idle{units, len key, len value} → Locked (rart.PutUpdateFused).
//
//   - Won on the key's leaf: the releasing WRITE follows at once — 2 round
//     trips behind the landing where read-then-lock took 3, in the same verbs.
//   - Lost to a different stored length: the image behind the CAS is the
//     leaf's READ, a CAS with the observed word follows — the round trips of
//     read-then-lock, one verb more.
//   - Won on another key's leaf of the same shape: the leaf is given back
//     byte-identical and the update finds its key absent.
//   - Lost to a live holder: the image behind the CAS is Locked, and the walk
//     waits as ReadLeaf waits, then locks the leaf the holder released.
//   - Lost to a crashed holder: the lock is broken through the slot the walk
//     came by, and the update lands.
func TestTreeUpdateLocksLeafWithItsRead(t *testing.T) {
	keys := []string{"fused-a", "fused-b", "fused-c1"}
	t.Run("own leaf", func(t *testing.T) {
		e := newFusedEnv(t, keys...)
		ok, log := e.update(t, e.c, "fused-a", val64(2))
		rts, verbs, stages := log.cost()
		if !ok || rts != 4 || verbs != 6 || stages != "[hash-read node-read leaf-write leaf-write]" {
			t.Errorf("update = %v in %d RT, %d verbs, batches %s; want true in 4 RT, 6 verbs, [hash-read node-read leaf-write leaf-write]", ok, rts, verbs, stages)
		}
		if st := e.c.eng.Stats(); st.FusedLeafLocks != 1 || st.FusedLeafLocksLost != 0 || st.FusedLeafLocksRestored != 0 {
			t.Errorf("fused leaf locks %d, lost %d, restored %d; want 1, 0, 0", st.FusedLeafLocks, st.FusedLeafLocksLost, st.FusedLeafLocksRestored)
		}
		warmSearch(t, e.setup, []byte("fused-a"), val64(2))
	})
	t.Run("value length changed", func(t *testing.T) {
		e := newFusedEnv(t, keys...)
		short := bytes.Repeat([]byte{3}, 30) // fits the leaf's 2 units, needs 1
		ok, log := e.update(t, e.c, "fused-a", short)
		rts, verbs, stages := log.cost()
		if !ok || rts != 5 || verbs != 7 || stages != "[hash-read node-read leaf-write leaf-write leaf-write]" {
			t.Errorf("update = %v in %d RT, %d verbs, batches %s; want true in 5 RT, 7 verbs: read-then-lock's round trips, one CAS more", ok, rts, verbs, stages)
		}
		if st := e.c.eng.Stats(); st.FusedLeafLocks != 1 || st.FusedLeafLocksLost != 1 {
			t.Errorf("fused leaf locks %d, lost %d; want 1, 1", st.FusedLeafLocks, st.FusedLeafLocksLost)
		}
		warmSearch(t, e.setup, []byte("fused-a"), short)
	})
	t.Run("another key's leaf of the same shape", func(t *testing.T) {
		e := newFusedEnv(t, keys...)
		// "fused-c2" ends on the edge of "fused-c1", a key of its length.
		addr, before := leafImage(t, e.f, e.setup, []byte("fused-c1"))
		ok, _ := e.update(t, e.c, "fused-c2", val64(9))
		if ok {
			t.Error("update of an absent key reported it present")
		}
		if _, after := leafImage(t, e.f, e.setup, []byte("fused-c1")); !bytes.Equal(after, before) {
			t.Errorf("the stranger's leaf at %v changed under a lock given back", addr)
		}
		if st := e.c.eng.Stats(); st.FusedLeafLocks != 1 || st.FusedLeafLocksRestored != 1 {
			t.Errorf("fused leaf locks %d, restored %d; want 1, 1", st.FusedLeafLocks, st.FusedLeafLocksRestored)
		}
		warmSearch(t, e.setup, []byte("fused-c1"), val64(1))
		if _, ok, err := e.setup.Search([]byte("fused-c2")); ok || err != nil {
			t.Errorf("absent key reads %v, %v", ok, err)
		}
	})
	t.Run("live holder", func(t *testing.T) {
		e := newFusedEnv(t, keys...)
		key := []byte("fused-a")
		holder := newTestClient(e.f, e.shared, Options{})
		leaf := leafAddrOf(t, holder, key)
		units := uint8(wire.LeafSize(len(key), 64) / wire.LeafUnit)
		var herr error
		holderFn := func() {
			lk, err := holder.eng.SpecLockLeaf(leaf, units, len(key), 64)
			if err == nil && !lk.Held {
				err = fmt.Errorf("holder's lock lost")
			}
			if err == nil {
				err = holder.eng.WriteLockedLeaf(&lk, key, val64(7))
			}
			herr = err
		}
		won := func(s fabrictest.Step) bool {
			return s.Op.Kind == fabric.CAS && s.Op.Addr == leaf && s.Op.Old == s.Op.Expect
		}
		script := &fabrictest.Script{Turns: []fabrictest.Turn{
			{Proc: 1, Until: won},
			{Proc: 0, Until: func(s fabrictest.Step) bool { return s.Op.Kind == fabric.Read && s.Op.Addr == leaf }},
			{Proc: 1},
		}}
		var ok bool
		var err error
		fabrictest.Run(e.f, script, fabrictest.Proc{C: e.c.eng.C, Fn: func() { ok, err = e.c.Update(key, val64(8)) }},
			fabrictest.Proc{C: holder.eng.C, Fn: holderFn})
		if herr != nil || err != nil || !ok || script.Turns[1].At == nil {
			t.Fatalf("holder %v; update = %v, %v, parked at %+v; want both acknowledged, the update behind the held lock", herr, ok, err, script.Turns[1].At)
		}
		if st := e.c.eng.Stats(); st.FusedLeafLocksLost != 1 || st.LeafLockBreaks != 0 {
			t.Errorf("fused locks lost %d, breaks %d; want 1, 0: a live holder is waited for", st.FusedLeafLocksLost, st.LeafLockBreaks)
		}
		warmSearch(t, e.setup, key, val64(8))
	})
	t.Run("crashed holder", func(t *testing.T) {
		e := newFusedEnv(t, keys...)
		key := []byte("fused-a")
		holder := newTestClient(e.f, e.shared, Options{})
		leaf := leafAddrOf(t, holder, key)
		lk, err := holder.eng.SpecLockLeaf(leaf, uint8(wire.LeafSize(len(key), 64)/wire.LeafUnit), len(key), 64)
		if err != nil || !lk.Held {
			t.Fatalf("holder's lock = %v, %v", lk.Held, err)
		}
		holder.eng.C.FailAt(0, fabric.ErrClientCrashed)
		if _, err := holder.eng.C.ReadUint64(leaf); err == nil {
			t.Fatal("the holder did not crash")
		}
		ok, _ := e.update(t, e.c, string(key), val64(8))
		if st := e.c.eng.Stats(); !ok || st.FusedLeafLocksLost != 1 || st.LeafLockBreaks != 1 {
			t.Errorf("update %v, fused locks lost %d, breaks %d; want true, 1, 1", ok, st.FusedLeafLocksLost, st.LeafLockBreaks)
		}
		warmSearch(t, e.setup, key, val64(8))
	})
}

// TestFusedLeafLockFaults cuts the batch that carries the leaf's lock CAS and
// READ: a transient ahead of the CAS executed nothing; one behind it, and a
// lost completion, may have left this client's Locked word on the leaf, which
// it gives back before the update restarts — or the restarted update would
// wait on its own lock, which nobody breaks while its owner lives.
func TestFusedLeafLockFaults(t *testing.T) {
	for _, point := range []struct {
		at    int // verbs into the fused batch
		fault error
	}{
		{0, fabric.ErrTransient},
		{1, fabric.ErrTransient},
		{0, fabric.ErrTimeout},
	} {
		t.Run(fmt.Sprintf("%v after verb %d", point.fault, point.at), func(t *testing.T) {
			e := newFusedEnv(t, "fused-a", "fused-b")
			// A clean update of the twin key says where the fused batch begins.
			_, log := e.update(t, e.c, "fused-b", val64(2))
			ahead := 0
			for _, ev := range log.evs {
				if ev.Stage == fabric.StageLeafWrite {
					break
				}
				ahead += ev.Verbs
			}
			e.c.eng.C.FailAt(uint64(ahead+point.at), point.fault)
			st0 := e.c.Stats()
			ok, _ := e.update(t, e.c, "fused-a", val64(3))
			st := e.c.Stats()
			if !ok || st.Restarts != st0.Restarts+1 {
				t.Errorf("update = %v after %d restarts; want true after 1", ok, st.Restarts-st0.Restarts)
			}
			if es := e.c.eng.Stats(); es.LeafLockBreaks != 0 {
				t.Errorf("%d leaf locks broken; want none: the faulted batch's own lock went back", es.LeafLockBreaks)
			}
			warmSearch(t, e.setup, []byte("fused-a"), val64(3))
		})
	}
}

// TestReturnedBetRidesNextBatch pins the two lease bets a put gives back
// without a round trip of their own: the landing's, when the walk goes below
// it, rides the READ of the node below; and that of a put whose key exists,
// updated in place, rides the leaf's lock CAS. No batch is charged to the
// unlock stage, and the landing's lease word is 0 once the put returns.
func TestReturnedBetRidesNextBatch(t *testing.T) {
	for _, tc := range []struct {
		name, key  string
		rts, verbs int
		stages     string
	}{
		// hash | CAS,READ landing | CAS release + READ below | CAS,READ lock + W leaf | W slot + CAS unlock
		{"walk goes below the landing", "budget-ay", 5, 11, "[hash-read lock node-read lock install]"},
		// hash | CAS,READ landing | READ leaf | CAS release + CAS leaf | W leaf
		{"key exists, updated in place", "budget-b", 5, 8, "[hash-read lock leaf-read leaf-write leaf-write]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, shared, setup := writeScenarios[0].build(t, 1)
			if _, err := setup.Insert([]byte("budget-ax"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			// The client knows the prefix "budget-" only, and shares the
			// setup's slabs: no allocator round trip blurs the count.
			private := NewFilterCache(1<<12, 3)
			private.Insert(PrefixFilterHash([]byte("budget-")))
			c := NewClient(shared, setup.eng.C, Options{Filter: private})
			c.eng.Alloc = setup.eng.Alloc
			landing := landingOf(t, c, tc.key, "budget-")
			var log batchLog
			c.eng.C.SetObserver(&log)
			if _, err := c.Insert([]byte(tc.key), []byte("victim")); err != nil {
				t.Fatal(err)
			}
			c.eng.C.SetObserver(nil)
			rts, verbs, stages := log.cost()
			if rts != tc.rts || verbs != tc.verbs || stages != tc.stages {
				t.Errorf("put in %d RT, %d verbs, batches %s; want %d RT, %d verbs, %s", rts, verbs, stages, tc.rts, tc.verbs, tc.stages)
			}
			if st := c.eng.Stats(); st.LeaseBets != 1 || st.LeaseBetsReturned != 1 {
				t.Errorf("bets %d, returned %d; want 1, 1", st.LeaseBets, st.LeaseBetsReturned)
			}
			if w := leaseWordOf(t, setup, landing); w != 0 {
				t.Errorf("landing's lease word = %#x after the put, want 0", w)
			}
			warmSearch(t, newTestClient(f, shared, Options{}), []byte(tc.key), []byte("victim"))
		})
	}
}

// jumpSwitch is a type switch whose full node's parent the filter knows: the
// keys build the node "budget" over the full Node4 "budget-", and the put of
// "budget-e" re-routes from the full node to its parent, whose landing — a
// second lease bet — reads the swap's bucket pair too.
var jumpSwitch = writeScenario{name: "type switch below a jump",
	setup: []string{"budget-a", "budget-b", "budget-c", "budget-d", "budget_x"}, key: "budget-e"}

// TestTypeSwitchReadsEntryPairAhead pins the type switch whose re-routed
// landing is a bet: both leases come with their images and the entry pair
// with the second, so there is no lock batch — the leaf and the grown copy
// lead the commit batch — 3 round trips from remembered landings, 5 through
// the table, in the verbs read-then-lock posted. Beside it, the outcomes the
// pair read ahead meets: the parent's bet lost (the lock batch comes back,
// with no READ of the pair in it), the table's directory stale when the pair
// was read, its segment split between that read and the commit (the table's
// own loop takes the swap, and the prefix keeps one entry), and a replicated
// cluster, whose anchors ride the same batches.
func TestTypeSwitchReadsEntryPairAhead(t *testing.T) {
	run := func(t *testing.T, c *Client) (log batchLog) {
		t.Helper()
		c.eng.C.SetObserver(&log)
		if _, err := c.Insert([]byte(jumpSwitch.key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		c.eng.C.SetObserver(nil)
		if c.Stats().AheadSwaps != 1 || c.Stats().ParentRetries != 1 {
			t.Errorf("%d swaps read ahead behind %d re-routes; want 1, 1", c.Stats().AheadSwaps, c.Stats().ParentRetries)
		}
		for _, k := range append(jumpSwitch.setup, jumpSwitch.key) {
			if _, ok, err := newTestClient(c.eng.C.Fabric(), c.shared, Options{}).Search([]byte(k)); err != nil || !ok {
				t.Errorf("%q unreadable from the root after the switch: %v", k, err)
			}
		}
		return log
	}
	for _, col := range []struct {
		name       string
		remembered bool
		rts, verbs int
		stages     string
	}{
		{"remembered landings", true, 3, 13, "[lock lock publish]"},
		{"first touch", false, 5, 17, "[hash-read lock hash-read lock publish]"},
	} {
		t.Run("budget/"+col.name, func(t *testing.T) {
			_, _, c := jumpSwitch.build(t, 1)
			if !col.remembered {
				c.lac.Reset()
			}
			hs0, st0 := c.HashStats(), c.eng.Stats()
			log := run(t, c)
			rts, verbs, stages := log.cost()
			if rts != col.rts || verbs != col.verbs || stages != col.stages {
				t.Errorf("type switch in %d RT, %d verbs, batches %s; want %d RT, %d verbs, %s", rts, verbs, stages, col.rts, col.verbs, col.stages)
			}
			if st := c.eng.Stats(); st.LeaseBets-st0.LeaseBets != 2 || st.LeaseBetsLost != st0.LeaseBetsLost || st.LeaseBetsReturned != st0.LeaseBetsReturned {
				t.Errorf("bets %d, lost %d, returned %d; want 2, 0, 0: both leases are the write's locks",
					st.LeaseBets-st0.LeaseBets, st.LeaseBetsLost-st0.LeaseBetsLost, st.LeaseBetsReturned-st0.LeaseBetsReturned)
			}
			if hs := c.HashStats(); hs.PlannedSwaps-hs0.PlannedSwaps != 1 || hs.PlannedLost != hs0.PlannedLost {
				t.Errorf("%d swaps planned, %d lost; want 1 landed in the commit batch", hs.PlannedSwaps-hs0.PlannedSwaps, hs.PlannedLost-hs0.PlannedLost)
			}
		})
	}

	t.Run("parent bet lost", func(t *testing.T) {
		f, shared, c := jumpSwitch.build(t, 1)
		// A client that dies holding the parent's lease: the bet on it loses,
		// and the lock batch steals the lease.
		parent := landingOf(t, c, "budget_x", "budget")
		dead := newTestClient(f, shared, Options{})
		if _, err := dead.eng.Lock(parent.Addr, parent.Hdr.Type, 0); err != nil {
			t.Fatal(err)
		}
		dead.eng.C.FailAt(0, fabric.ErrClientCrashed)
		_, _ = dead.eng.C.ReadUint64(parent.Addr)
		st0 := c.eng.Stats()
		log := run(t, c)
		locks, _ := log.lockBatches()
		if st := c.eng.Stats(); st.LeaseBetsLost != st0.LeaseBetsLost+1 || st.LockSteals != st0.LockSteals+1 {
			t.Errorf("bets lost %d, steals %d; want 1, 1", st.LeaseBetsLost-st0.LeaseBetsLost, st.LockSteals-st0.LockSteals)
		}
		// The landings' bets (2 verbs, 4 with the pair), the lock batch —
		// W leaf, W grown, the READ polling the parent — and the steal.
		if fmt.Sprint(locks) != "[2 4 3 2]" {
			t.Errorf("lock batches carry %v verbs, want [2 4 3 2]: the lock batch as before, no bucket READ in it", locks)
		}
	})

	// splitAway moves prefix's entry into another segment of its table: a
	// client of its own inserts key pairs, each pair a node, under prefixes
	// whose placement hashes share the entry's low bits up to its first set
	// bit from 3 on — the segments the directory holds at the test's size —
	// until a split on that bit moves the entry.
	splitAway := func(t *testing.T, c *Client, prefix string) {
		t.Helper()
		view, h := c.viewFor([]byte(prefix)), racehash.PlacementHash([]byte(prefix))
		slotOf := func() (slot string) {
			cands, err := view.LookupAppend(nil, h, wire.FP12([]byte(prefix)))
			if err != nil || len(cands) != 1 {
				t.Fatalf("entries of %q: %v, %v", prefix, cands, err)
			}
			return fmt.Sprint(cands[0].Slot)
		}
		low := 3
		for h>>low&1 == 0 {
			low++
		}
		mask, from := uint64(1)<<(low+1)-1, slotOf()
		for i := 0; slotOf() == from; i++ {
			if i > 1<<20 {
				t.Fatal("the entry never moved")
			}
			crowd := fmt.Sprintf("zq%07d", i)
			if racehash.PlacementHash([]byte(crowd))&mask != h&mask^1<<low {
				continue
			}
			for _, k := range []string{crowd + "1", crowd + "2"} {
				if _, err := c.Insert([]byte(k), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	oneEntry := func(t *testing.T, c *Client) {
		t.Helper()
		cands, err := newTestClient(c.eng.C.Fabric(), c.shared, Options{}).viewFor([]byte("budget-")).LookupAppend(nil,
			racehash.PlacementHash([]byte("budget-")), wire.FP12([]byte("budget-")))
		if err != nil || len(cands) != 1 || cands[0].Entry.Type == wire.Node4 {
			t.Errorf("entries of \"budget-\" after the switch: %+v, %v; want one, the grown copy's", cands, err)
		}
	}
	t.Run("directory stale at the read", func(t *testing.T) {
		f, shared, c := jumpSwitch.build(t, 1)
		splitAway(t, newTestClient(f, shared, Options{}), "budget-")
		hs0 := c.HashStats()
		run(t, c)
		if hs := c.HashStats(); hs.PlannedLost == hs0.PlannedLost {
			t.Error("the swap planned on a stale pair landed; want it in the table's loop")
		}
		oneEntry(t, c)
	})
	t.Run("segment split behind the read", func(t *testing.T) {
		f, shared, c := jumpSwitch.build(t, 1)
		parent := landingOf(t, c, "budget_x", "budget")
		splitter := newTestClient(f, shared, Options{})
		hs0 := c.HashStats()
		// The victim runs up to its second landing's batch, whose last verb
		// is the pair's READ; the split runs there.
		sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
			return s.BatchEnd && s.Stage == fabric.StageLock && s.Op.Kind == fabric.Read && s.Op.Addr != parent.Addr && len(s.Op.Data) > 8
		})
		fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { run(t, c) }},
			fabrictest.Proc{Fn: func() { splitAway(t, splitter, "budget-") }})
		if sw.Turns[0].At == nil {
			t.Fatal("the victim never read the pair in a landing batch")
		}
		if hs := c.HashStats(); hs.PlannedLost == hs0.PlannedLost && hs.StaleChecks == hs0.StaleChecks {
			t.Error("the swap planned on a pair a split moved landed unchecked")
		}
		oneEntry(t, c)
	})
	t.Run("anchors ride beside", func(t *testing.T) {
		f, shared := newReplicatedCluster(t, 1, fabric.DefaultConfig(), 1000)
		c := newTestClient(f, shared, Options{})
		for _, k := range jumpSwitch.setup {
			if _, err := c.Insert([]byte(k), []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		st0 := c.Stats()
		log := run(t, c)
		if locks, _ := log.lockBatches(); len(locks) != 2 {
			t.Errorf("lock batches %v; want the two landings, no lock batch", locks)
		}
		if st := c.Stats(); st.ReplicaRidden == st0.ReplicaRidden {
			t.Error("no anchor round rode the tree write")
		}
		if v, ok, err := c.anchorGet([]byte(jumpSwitch.key)); err != nil || !ok || string(v) != "v" {
			t.Errorf("anchors hold %q, %v, %v; want the put's value", v, ok, err)
		}
	})
}
