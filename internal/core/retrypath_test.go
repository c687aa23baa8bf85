package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
	"sphinx/internal/wire"
)

// The retry-path suite pins down the failure-window correctness of the
// operation retry loops: deterministic re-routes must not burn backoff,
// confirm-path faults must restart the op rather than fabricate answers,
// and §III-B prefix narrowing must survive unrelated fabric faults. The
// fault-window tests sweep an injected fault across every point of the
// operation rather than aiming at one, so they stay robust to cost-model
// changes.

// leafAddrOf returns key's leaf address via a fault-free root descent.
func leafAddrOf(t *testing.T, c *Client, key []byte) mem.Addr {
	t.Helper()
	root, err := c.readRoot()
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := c.eng.SearchFrom(root, key, rart.NopHooks{})
	if err != nil || leaf == nil {
		t.Fatalf("leaf of %q: %v", key, err)
	}
	return leaf.Addr
}

// plantImpostor publishes a hand-built Node4 at the given prefix whose
// only child (slot, on edge byte) points somewhere off the prefix's true
// path, and poisons the filter cache so jumps land on it. This fabricates
// the paper's §III-B double collision (filter fingerprint plus 42-bit
// prefix hash) deterministically: the node is genuine for its prefix, so
// it passes every metadata check, but it is not on the searched key's
// path.
func plantImpostor(t *testing.T, c *Client, prefix []byte, edge byte, slot wire.Slot) *rart.Node {
	t.Helper()
	n := rart.NewNode(wire.Node4, prefix, 0)
	slot.Present = true
	slot.KeyByte = edge
	n.Slots[0] = slot.Encode()
	addr, err := c.eng.Alloc.Alloc(c.eng.NodeHome(prefix), mem.ClassInner, wire.NodeSize(n.Hdr.Type))
	if err != nil {
		t.Fatal(err)
	}
	n.Addr = addr
	if err := c.eng.C.Write(addr, n.Encode()); err != nil {
		t.Fatal(err)
	}
	entry := wire.HashEntry{Valid: true, FP: wire.FP12(prefix), Type: n.Hdr.Type, Addr: n.Addr}
	if err := c.viewFor(prefix).Insert(n.Hdr.PrefixHash, entry, c.eng.Alloc); err != nil {
		t.Fatal(err)
	}
	// Retired, the impostor leaves an entry naming an Invalid node, which the
	// index check counts.
	f := c.eng.C.Fabric()
	fscktest.Unplant(f, func() {
		f.Region(addr.Node()).WriteUint64(addr.Offset(), wire.WithStatus(n.Hdr.Encode(), wire.StatusInvalid))
	})
	if c.filter != nil {
		c.filter.Insert(PrefixFilterHash(prefix))
	}
	return n
}

// fullNodeCluster builds one full Node4 at depth 2 — four keys sharing the
// prefix "ab" — that the client's filter knows, because the split that made
// the node published it. The client is created under plan (nil: none), which
// injects nothing until its rates are armed.
func fullNodeCluster(t *testing.T, plan *fabric.FaultPlan) *Client {
	t.Helper()
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 1000)
	filter := NewFilterCache(1<<12, 1)
	f.SetFaultPlan(plan)
	c := newTestClient(f, shared, Options{Filter: filter})
	f.SetFaultPlan(nil)
	for _, k := range []string{"ab1z", "ab2z", "ab3z", "ab4z"} {
		if _, err := c.Insert([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !filter.Contains(PrefixFilterHash([]byte("ab"))) {
		t.Fatal("filter never learned the shared prefix; the insert below would not jump")
	}
	return c
}

// lockBatches lists the verbs of every lock batch in the log, and counts the
// node reads.
func (b *batchLog) lockBatches() (locks []int, nodeReads int) {
	for _, ev := range b.evs {
		switch ev.Stage {
		case fabric.StageLock:
			locks = append(locks, ev.Verbs)
		case fabric.StageNodeRead:
			nodeReads++
		}
	}
	return locks, nodeReads
}

// TestPutNeedParentNoBackoff: a jump-started insert that discovers it
// needs the parent (full node at the jump target) is a deterministic
// structural re-route, not contention — it must re-loop immediately
// without advancing the backoff clock or burning retry budget, and the walk
// that comes back through the parent takes the image of the full node the
// jump already read instead of reading it again — and the lease the jump won
// with that image instead of taking it again: the re-route's lock batch locks
// the parent alone.
func TestPutNeedParentNoBackoff(t *testing.T) {
	t.Run("lease kept", func(t *testing.T) {
		c := fullNodeCluster(t, nil)
		clock0 := c.eng.C.Clock()
		restarts0 := c.stats.Restarts
		eng0 := c.eng.Stats()
		var log batchLog
		c.eng.C.SetObserver(&log)
		if _, err := c.Insert([]byte("ab5z"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		c.eng.C.SetObserver(nil)
		if c.stats.ParentRetries == 0 {
			t.Fatal("insert never hit ErrNeedParent; the scenario exercises nothing")
		}
		locks, nodeReads := log.lockBatches()
		if nodeReads != 1 {
			t.Errorf("re-routed insert read %d nodes outside its lock batches, want 1: the parent (the root); the full node came with the jump's lease", nodeReads)
		}
		// The landing: lease CAS + READ. The type switch: W leaf, W grown copy,
		// lease CAS + READ of the parent — not of the child; the swap's 2
		// bucket READs rode the parent's READ, the re-route's landing.
		if fmt.Sprint(locks) != "[2 4]" {
			t.Errorf("lock batches carry %v verbs, want [2 4]: the landing's bet, then the parent's lock beside the staged objects", locks)
		}
		if st := c.Stats(); st.AheadSwaps != 1 {
			t.Errorf("%d swaps planned on a pair read ahead, want 1: the root's READ fetched the full node's", st.AheadSwaps)
		}
		if st := c.eng.Stats(); st.LeaseBets != eng0.LeaseBets+1 || st.LeaseBetsLost != 0 || st.LeaseBetsReturned != 0 || st.LockSteals != 0 {
			t.Errorf("bets %d, lost %d, returned %d, steals %d; want 1, 0, 0, 0: the child's lease is kept across the re-route",
				st.LeaseBets-eng0.LeaseBets, st.LeaseBetsLost, st.LeaseBetsReturned, st.LockSteals)
		}
		// Under InstantConfig every batch is free, so any clock advance can
		// only come from backoff sleep — which this path must not take.
		if dt := c.eng.C.Clock() - clock0; dt != 0 {
			t.Errorf("need-parent re-route slept %d ps of backoff; want 0", dt)
		}
		if c.stats.Restarts != restarts0 {
			t.Errorf("need-parent re-route consumed %d retry budget; want 0",
				c.stats.Restarts-restarts0)
		}
		for _, k := range []string{"ab1z", "ab2z", "ab3z", "ab4z", "ab5z"} {
			if _, ok, err := c.Search([]byte(k)); err != nil || !ok {
				t.Errorf("%q missing after grow: %v", k, err)
			}
		}
	})

	// The re-routed walk's own landing can be refuted, which gives back every
	// lease the hand holds — the kept one too — and leaves the kept image in.
	// Its lease word must have gone with the lease: an image still carrying
	// our word arms the type switch's lock CAS with an expectation that is
	// gone, and the lock batch is followed by a poll.
	t.Run("lease given back, image handed on", func(t *testing.T) {
		c := fullNodeCluster(t, nil)
		key := []byte("ab5z")
		bets0 := c.eng.Stats().LeaseBets
		c.inserting = true
		full, l, err := c.locate(key, len(key))
		c.inserting = false
		if err != nil || l != 2 || c.eng.Stats().LeaseBets != bets0+1 {
			t.Fatalf("locate = prefix %d, %v with %d bets; want the full node at 2 behind a bet", l, err, c.eng.Stats().LeaseBets-bets0)
		}
		if !wire.LeaseOwnedBy(full.LeaseWord, uint16(c.eng.C.ID())) {
			t.Fatalf("the landing's image carries lease word %#x, want ours", full.LeaseWord)
		}
		c.eng.Hold(full, rart.Rerouted) // as the driver's re-route does
		c.eng.Release(rart.BetRefuted)  // as a refuted landing does
		if full.LeaseWord != 0 || c.eng.Holding() != 1 {
			t.Errorf("image's lease word = %#x with %d entries held after the lease was given back, want 0 and the image", full.LeaseWord, c.eng.Holding())
		}
		root, err := c.readRoot()
		if err != nil {
			t.Fatal(err)
		}
		var log batchLog
		c.eng.C.SetObserver(&log)
		_, err = c.eng.PutFrom(root, key, []byte("v"), rart.PutUpsert, hooks{c})
		c.eng.C.SetObserver(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.eng.Holding(); n != 0 {
			t.Errorf("the hand holds %d entries after the put, want 0: the walk took the image", n)
		}
		if locks, nodeReads := log.lockBatches(); fmt.Sprint(locks) != "[8]" || nodeReads != 0 {
			t.Errorf("lock batches %v, %d node reads; want [8], 0: one batch locks both nodes, no poll behind it", locks, nodeReads)
		}
		if st := c.eng.Stats(); st.LeaseBetsReturned != 1 || st.LockSteals != 0 {
			t.Errorf("returned %d, steals %d; want 1, 0", st.LeaseBetsReturned, st.LockSteals)
		}
		if _, ok, err := c.Search(key); err != nil || !ok {
			t.Errorf("%q missing after grow: %v", key, err)
		}
	})
}

// TestRerouteLeaseEndsWithItsRound: the round of the re-routed walk can end
// in an error — here its locate, round after round, until the budget is spent
// — and the put with it. The lease kept for that walk goes back with the
// round, before the backoff wait, and the put returns holding nothing. Every
// batch behind the landing loses its completion: a timeout executes the
// batch, so the give-back lands. The next writer of the full node neither
// waits nor steals.
func TestRerouteLeaseEndsWithItsRound(t *testing.T) {
	plan := &fabric.FaultPlan{Seed: 1, TimeoutPs: 1_000}
	c := fullNodeCluster(t, plan)
	key := []byte("ab5z")
	full := landingOf(t, c, string(key), "ab")
	var err error
	sw := fabrictest.Switch(1, fabrictest.AtBatchEnd)
	fabrictest.Run(c.eng.C.Fabric(), sw, fabrictest.Proc{C: c.eng.C, Fn: func() { _, err = c.Insert(key, []byte("v")) }},
		fabrictest.Proc{Fn: func() { plan.TimeoutPer64k = 1 << 16 }})
	if sw.Turns[0].At == nil || sw.Turns[0].At.Stage != fabric.StageLock {
		t.Fatalf("the plan turned faulty at %+v; want behind the landing", sw.Turns[0].At)
	}
	if !errors.Is(err, ErrRetriesExhausted) || c.stats.ParentRetries != 1 {
		t.Fatalf("put = %v after %d re-routes; want retries exhausted behind one", err, c.stats.ParentRetries)
	}
	if n := c.eng.Holding(); n != 0 {
		t.Errorf("the hand holds %d entries after the put, want 0", n)
	}
	next := NewClient(c.shared, c.eng.C.Fabric().NewClient(), Options{Filter: c.filter, LeafCache: testLAC(0)})
	if w := leaseWordOf(t, next, full); w != 0 {
		t.Errorf("full node's lease word = %#x after the put, want 0", w)
	}
	clock0 := next.eng.C.Clock()
	if _, err := next.Insert(key, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if dt, steals := next.eng.C.Clock()-clock0, next.eng.Stats().LockSteals; dt >= 100_000_000 || steals != 0 {
		t.Errorf("the next writer took %d ps and stole %d leases; want < 100 µs and none", dt, steals)
	}
	warmSearch(t, next, key, []byte("next"))
}

// deleteCollisionCluster builds the Delete collision-confirm scenario:
// key K is present, and the filter + hash table carry an impostor node at
// K[:4] whose only child leads to an unrelated key's leaf, so a jumped
// Delete(K) first lands beside the key and must confirm through a
// shallower start. Returns the fabric, the shared descriptor and the
// filter (shared between setup and victim clients, as CN sessions share
// their filter cache).
func deleteCollisionCluster(t *testing.T) (*fabric.Fabric, Shared, *FilterCache) {
	t.Helper()
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 1000)
	filter := NewFilterCache(1<<12, 1)
	setup := newTestClient(f, shared, Options{Filter: filter})
	K, Z := []byte("kkkkkkkk"), []byte("zzzzzzzz")
	for _, k := range [][]byte{K, Z} {
		if _, err := setup.Insert(k, []byte("v-"+string(k[:1]))); err != nil {
			t.Fatal(err)
		}
	}
	plantImpostor(t, setup, K[:4], K[4], wire.Slot{Leaf: true, Addr: leafAddrOf(t, setup, Z)})
	return f, shared, filter
}

// TestDeleteCollisionConfirmCrashSweep: a Delete whose jump lands beside
// the key (prefix collision) confirms through a shallower start; a fault
// during that confirm must surface or restart the operation — it must
// never be swallowed into a fabricated (false, nil) "absent" answer while
// the key is still present. The test aims a client crash at every verb of
// the operation, so the confirm read's whole window is covered; the cut past
// the operation is the clean run, which detects exactly one collision and
// deletes the key.
func TestDeleteCollisionConfirmCrashSweep(t *testing.T) {
	K := []byte("kkkkkkkk")
	fabrictest.Cuts(fabric.ErrClientCrashed, func(cut *fabrictest.Cut) {
		f, shared, filter := deleteCollisionCluster(t)
		fscktest.Accept(f, rart.CrashedLock) // docs/failure-model.md §3: the victim dies holding its locks
		victim := NewClient(shared, f.NewClient(), Options{Filter: filter, LeafCache: testLAC(0)})
		var ok bool
		var err error
		fabrictest.Run(f, cut, fabrictest.Proc{C: victim.eng.C, Fn: func() { ok, err = victim.Delete(K) }})
		if cut.At == nil && (err != nil || !ok || victim.stats.CollisionRetries != 1) {
			t.Fatalf("clean delete = %v, %v with %d collisions detected; want true, nil, 1", ok, err, victim.stats.CollisionRetries)
		}
		if err == nil && !ok {
			// (false, nil) claims the key was absent; it must actually be.
			check := newTestClient(f, shared, Options{})
			if _, present, cerr := check.Search(K); cerr != nil || present {
				t.Fatalf("crash at verb %d: Delete(%q) = (false, nil) but the key is still present (err=%v)", cut.K, K, cerr)
			}
		}
		fscktest.Done(t, f)
	})
}

// searchCollisionCluster builds the two-level §III-B collision chain for
// key K: impostor A at K[:5] leads to impostor B at K[:6], whose only
// child is an unrelated key's leaf. A clean Search(K) detects exactly two
// collisions (narrowing 6 → 5 → root) before finding the key.
func searchCollisionCluster(t *testing.T, cfg fabric.Config) (*fabric.Fabric, Shared, *FilterCache) {
	t.Helper()
	f, shared := newCluster(t, 1, cfg, 1000)
	filter := NewFilterCache(1<<12, 1)
	setup := newTestClient(f, shared, Options{Filter: filter})
	K, Z := []byte("kkkkkkkk"), []byte("zzzzzzzz")
	for _, k := range [][]byte{K, Z} {
		if _, err := setup.Insert(k, []byte("v-"+string(k[:1]))); err != nil {
			t.Fatal(err)
		}
	}
	b := plantImpostor(t, setup, K[:6], K[6], wire.Slot{Leaf: true, Addr: leafAddrOf(t, setup, Z)})
	plantImpostor(t, setup, K[:5], K[5], wire.Slot{ChildType: b.Hdr.Type, Addr: b.Addr})
	return f, shared, filter
}

// TestSearchCollisionNarrowingNodeDownSweep: the §III-B narrowed prefix
// bound must survive retriable fabric faults. Descents re-learn collided
// prefixes into the filter (SawNode fires before the leaf-level check),
// so widening the bound on a fault re-detects the same collisions and can
// loop arbitrarily. The test sweeps a one-instant node-down window across
// the operation's timeline; wherever it lands, the search must still find
// the key with at most the clean run's two collision detections.
func TestSearchCollisionNarrowingNodeDownSweep(t *testing.T) {
	cfg := fabric.Config{RTTPs: 1_000_000}
	K := []byte("kkkkkkkk")

	// Calibrate the clean run: two collisions, and its elapsed time bounds
	// the sweep.
	f, shared, filter := searchCollisionCluster(t, cfg)
	fc := f.NewClient()
	probe := NewClient(shared, fc, Options{Filter: filter, LeafCache: testLAC(0)})
	v, ok, err := probe.Search(K)
	if err != nil || !ok || !bytes.Equal(v, []byte("v-k")) {
		t.Fatalf("clean search = %q, %v, %v", v, ok, err)
	}
	if probe.stats.CollisionRetries != 2 {
		t.Fatalf("clean search detected %d collisions, want 2; scenario broken", probe.stats.CollisionRetries)
	}
	elapsed := fc.Clock()
	if elapsed == 0 {
		t.Fatal("clean search consumed no virtual time")
	}

	var faulted int
	for ps := int64(0); ps <= elapsed; ps += cfg.RTTPs {
		f, shared, filter := searchCollisionCluster(t, cfg)
		f.SetFaultPlan(&fabric.FaultPlan{
			Seed: 1,
			Down: []fabric.DownWindow{{Node: shared.Ring.Nodes()[0], FromPs: ps, ToPs: ps + 1}},
		})
		fc := f.NewClient()
		c := NewClient(shared, fc, Options{Filter: filter, LeafCache: testLAC(0)})
		v, ok, err := c.Search(K)
		if err != nil || !ok || !bytes.Equal(v, []byte("v-k")) {
			t.Fatalf("window at %d ps: search = %q, %v, %v", ps, v, ok, err)
		}
		if fc.Stats().NodeDownRejects > 0 {
			faulted++
		}
		if c.stats.CollisionRetries > 2 {
			t.Fatalf("window at %d ps: %d collision detections (clean run: 2); narrowing was lost across the fault",
				ps, c.stats.CollisionRetries)
		}
		fscktest.Done(t, f)
	}
	if faulted == 0 {
		t.Fatal("no sweep window ever hit a batch; the sweep exercises nothing")
	}
}

// TestInvalidArgsLeaveStatsUntouched: rejected arguments pay no round
// trip and must not count as operations — otherwise per-op rates (RT/op,
// restarts/kop) are skewed by calls that never touched the index.
func TestInvalidArgsLeaveStatsUntouched(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	if _, err := c.Insert([]byte("anchor"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	rt0 := c.eng.C.Stats().RoundTrips

	tooLong := make([]byte, wire.MaxDepth+1)
	if _, _, err := c.Search(nil); err == nil {
		t.Error("Search(nil) succeeded")
	}
	if _, err := c.Insert(nil, []byte("v")); err == nil {
		t.Error("Insert(nil) succeeded")
	}
	if _, err := c.Insert(tooLong, []byte("v")); err == nil {
		t.Error("Insert(overlong) succeeded")
	}
	if _, err := c.Update(nil, []byte("v")); err == nil {
		t.Error("Update(nil) succeeded")
	}
	if _, err := c.Delete(nil); err == nil {
		t.Error("Delete(nil) succeeded")
	}
	if _, err := c.Scan([]byte("b"), []byte("a"), 0); err == nil {
		t.Error("Scan(lo>hi) succeeded")
	}
	if _, err := c.Scan(nil, nil, -1); err == nil {
		t.Error("Scan(limit<0) succeeded")
	}

	if after := c.Stats(); after != before {
		t.Errorf("rejected arguments moved counters:\nbefore %+v\nafter  %+v", before, after)
	}
	if rt := c.eng.C.Stats().RoundTrips; rt != rt0 {
		t.Errorf("rejected arguments paid %d round trips", rt-rt0)
	}
}

// TestChaosRegistryCounters: under a probabilistic fault plan, a registry
// assembled from fabric counters, core counters and a batch-observing
// metric set must reconcile — the per-stage round-trip histograms account
// for exactly the round trips the fabric counted, and snapshot diffs
// isolate the faulted window.
func TestChaosRegistryCounters(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	f.SetFaultPlan(chaosPlan(31))
	m := obs.NewMetrics()
	fc := f.NewClient()
	c := NewClient(shared, fc, withCaches(shared, Options{Observer: m}, 5))

	reg := obs.NewRegistry()
	reg.AddCounterStruct("fabric", func() any { return fc.Stats() })
	reg.AddCounterStruct("core", func() any { return c.Stats() })
	reg.AddMetrics("session", m)
	before := reg.Snapshot()

	for i := 0; i < 600; i++ {
		k := []byte(fmt.Sprintf("reg-%03d", i%120))
		switch i % 3 {
		case 0:
			if _, err := c.Insert(k, []byte("v")); err != nil {
				t.Fatalf("insert %q: %v", k, err)
			}
		case 1:
			if _, _, err := c.Search(k); err != nil {
				t.Fatalf("search %q: %v", k, err)
			}
		default:
			if _, err := c.Delete(k); err != nil {
				t.Fatalf("delete %q: %v", k, err)
			}
		}
	}

	diff := reg.Snapshot().Sub(before)
	if diff.Counters["fabric_transients"] == 0 {
		t.Fatal("workload saw no transient faults; the plan exercises nothing")
	}
	if diff.Counters["core_restarts"] == 0 {
		t.Fatal("faults never restarted an operation")
	}
	if got, want := m.StageRTTotal(), fc.Stats().RoundTrips; got != want {
		t.Errorf("stage histograms hold %d round trips, fabric counted %d", got, want)
	}
	if got, want := diff.Counters["fabric_round_trips"], fc.Stats().RoundTrips; got != want {
		t.Errorf("diffed fabric_round_trips = %d, want %d (before-snapshot was not empty)", got, want)
	}

	var prom strings.Builder
	if err := reg.Snapshot().WritePrometheus(&prom, "sphinx"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sphinx_fabric_round_trips ",
		"sphinx_fabric_transients ",
		"sphinx_core_restarts ",
		`sphinx_session_stage_round_trips_count{stage="node-read"}`,
		`sphinx_session_stage_latency_ps_bucket{stage="leaf-read",le=`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}
