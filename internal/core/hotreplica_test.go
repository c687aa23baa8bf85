package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// The hotreplica suite pins the hot-spot tolerance contract (DESIGN.md
// §5.13): a promoted key serves warm Gets from a replica record in one
// verified round trip; writes republish or remove every replica before
// acknowledging, so a route to a superseded record is always refuted and
// re-routed, never served; and under concurrent promote/demote/write
// churn no Get ever returns a value older than the last acknowledged
// write for its key.

// newHotCluster is newCluster plus the hot-replication layer at factor r. Its
// fabric is idle: a test that needs keys promoted makes a NIC queue first
// (fabrictest.Queue).
func newHotCluster(t *testing.T, mns int, cfg fabric.Config, r int) (*fabric.Fabric, Shared) {
	t.Helper()
	return bootCluster(t, mns, cfg, func(f *fabric.Fabric, ring *consistenthash.Ring) (Shared, error) {
		shared, err := Bootstrap(f, ring, 1000)
		if err == nil {
			err = BootstrapHot(f, &shared, 256, r)
		}
		return shared, err
	})
}

// eagerHotSet builds a tracker that promotes on the n-th observation and
// effectively never decays or demotes, so tests control promotion timing
// exactly.
func eagerHotSet(r int, promoteAt uint32) *HotSet {
	hs := NewHotSet(0, 7, r)
	hs.SetThresholds(promoteAt, 1, 1<<40)
	return hs
}

// promoted builds a hot cluster with one NIC queueing and a client whose
// tracker promotes at the third observation, and drives Searches of
// "popular-key", inserted as v1, until the tracker promotes it. The
// speculative leaf cache serves some of them; all of them feed the tracker.
func promoted(t *testing.T) (c *Client, hs *HotSet, key []byte) {
	t.Helper()
	f, shared := newHotCluster(t, 3, fabric.DefaultConfig(), 3)
	fabrictest.Queue(t, f, shared.Hot.Load, 0)
	hs, key = eagerHotSet(3, 3), []byte("popular-key")
	c = newTestClient(f, shared, Options{Hot: hs})
	if _, err := c.Insert(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && c.Stats().HotPromotes == 0; i++ {
		warmSearch(t, c, key, []byte("v1"))
	}
	return c, hs, key
}

func TestHotPromoteAndServe(t *testing.T) {
	c, hs, key := promoted(t)
	val := []byte("v1")
	st := c.Stats()
	if st.HotPromotes != 1 {
		t.Fatalf("HotPromotes = %d after warm searches, want 1", st.HotPromotes)
	}
	// Promoted: the next Search must be ONE round trip served by the hot
	// path, ahead of the leaf-address cache.
	rt0 := c.eng.C.Stats().RoundTrips
	warmSearch(t, c, key, val)
	if rt := c.eng.C.Stats().RoundTrips - rt0; rt != 1 {
		t.Errorf("promoted Search took %d round trips, want 1", rt)
	}
	if got := c.Stats().HotHits; got != st.HotHits+1 {
		t.Errorf("HotHits = %d, want %d", got, st.HotHits+1)
	}
	// Every replica rank learned a route (R targets on 3 nodes).
	routed := 0
	for i := 0; i < hs.Ranks(); i++ {
		if _, _, ok := hs.Rank(i).Lookup(key); ok {
			routed++
		}
	}
	if routed != 3 {
		t.Errorf("routes learned on %d ranks, want 3", routed)
	}
}

// TestHotPromotionNeedsQueueing pins the promotion rule (DESIGN.md §5.13): a
// key that crosses the tracker's threshold is promoted only while the fabric
// shows one NIC queueing out of proportion to the others. On an idle fabric,
// and with every NIC queueing alike, the promotion is declined: the claim is
// dropped, the writers' gate stays shut, and a write's acknowledgement posts
// no hot leg. With one NIC queueing the key promotes at once — and so it does
// when the collision came after the layer's last look at the fabric, once the
// declines themselves have ticked the contention cache into a refresh.
func TestHotPromotionNeedsQueueing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		queue    func(t *testing.T, f *fabric.Fabric, shared Shared)
		promote  bool
		declines bool // before the promotion, where there is one
	}{
		{name: "idle fabric", queue: func(*testing.T, *fabric.Fabric, Shared) {}, declines: true},
		{name: "one NIC queueing", queue: func(t *testing.T, f *fabric.Fabric, shared Shared) {
			fabrictest.Queue(t, f, shared.Hot.Load, 0)
		}, promote: true},
		{name: "one NIC queueing, unseen by the layer's cache", queue: func(t *testing.T, f *fabric.Fabric, _ Shared) {
			fabrictest.Queue(t, f, f.NewLoadCache(0), 0)
		}, promote: true, declines: true},
		{name: "every NIC queueing evenly", queue: func(t *testing.T, f *fabric.Fabric, shared Shared) {
			fabrictest.Queue(t, f, shared.Hot.Load, 0, 1, 2)
		}, declines: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, shared := newHotCluster(t, 3, fabric.DefaultConfig(), 3)
			hs := eagerHotSet(3, 3)
			c := newTestClient(f, shared, Options{Hot: hs})
			key := []byte("popular-key")
			if _, err := c.Insert(key, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			tc.queue(t, f, shared)
			// One contention window past the threshold: every Search from the
			// third on crosses it again while the key is unclaimed.
			for i := 0; i < 300 && c.Stats().HotPromotes == 0; i++ {
				warmSearch(t, c, key, []byte("v1"))
			}
			st := c.Stats()
			if promoted := st.HotPromotes == 1; promoted != tc.promote || (st.HotDeclined > 0) != tc.declines {
				t.Fatalf("%d promotions after %d declines; want promoted %v, declines %v", st.HotPromotes, st.HotDeclined, tc.promote, tc.declines)
			}
			if hs.Claimed(key) != tc.promote || shared.Hot.Published() != tc.promote {
				t.Errorf("claimed %v, writers' gate open %v; want both %v", hs.Claimed(key), shared.Hot.Published(), tc.promote)
			}
			stages := newStageCounter()
			c.eng.C.SetObserver(stages)
			if _, err := c.Update(key, []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if hotLeg := stages.rts(fabric.StageHotPub) > 0; hotLeg != tc.promote {
				t.Errorf("the write's acknowledgement posted %d hot-pub round trips; want a hot leg: %v", stages.rts(fabric.StageHotPub), tc.promote)
			}
		})
	}
}

// TestHotTierNeedsATracker: on a hot cluster whose NIC queues, a client given
// no hot-key tracker neither promotes keys nor serves hot reads, yet its
// writes refresh the records another CN's tracker published: each of that
// CN's Gets after an acknowledged write returns the value just written.
func TestHotTierNeedsATracker(t *testing.T) {
	f, shared := newHotCluster(t, 3, fabric.DefaultConfig(), 3)
	fabrictest.Queue(t, f, shared.Hot.Load, 0)
	key := []byte("popular-key")
	b := NewClient(shared, f.NewClient(), Options{Filter: testFilter(0), LeafCache: testLAC(0)})
	if _, err := b.Insert(key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	t.Run("reads", func(t *testing.T) {
		stages := newStageCounter()
		b.eng.C.SetObserver(stages)
		defer b.eng.C.SetObserver(nil)
		for i := 0; i < 100; i++ {
			warmSearch(t, b, key, []byte("v0"))
		}
		if got := b.Stats().HotPromotes; got != 0 {
			t.Errorf("HotPromotes = %d; want 0: the client has no tracker", got)
		}
		if rts := stages.rts(fabric.StageHotRead); rts != 0 {
			t.Errorf("%d hot-read round trips; want 0", rts)
		}
	})
	t.Run("writes", func(t *testing.T) {
		a := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 3)})
		for i := 0; i < 8 && a.Stats().HotPromotes == 0; i++ {
			warmSearch(t, a, key, []byte("v0"))
		}
		if a.Stats().HotPromotes != 1 {
			t.Fatal("A did not promote the key")
		}
		for i := 1; i <= 3; i++ {
			val := []byte(fmt.Sprintf("v%d", i))
			if _, err := b.Update(key, val); err != nil {
				t.Fatal(err)
			}
			warmSearch(t, a, key, val)
		}
		if got := b.Stats().HotRefreshes; got != 3 {
			t.Errorf("B's writes refreshed the hot records %d times; want 3", got)
		}
	})
}

func TestHotWriteRefreshesReplicas(t *testing.T) {
	c, _, key := promoted(t)
	if c.Stats().HotPromotes == 0 {
		t.Fatal("key did not promote")
	}
	// The write must republish the replicas before acking…
	if _, err := c.Update(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().HotRefreshes; got != 1 {
		t.Errorf("HotRefreshes = %d after update, want 1", got)
	}
	// …so the very next hot-path read serves the NEW value, still in one
	// round trip, with no refutation.
	st := c.Stats()
	rt0 := c.eng.C.Stats().RoundTrips
	warmSearch(t, c, key, []byte("v2"))
	if rt := c.eng.C.Stats().RoundTrips - rt0; rt != 1 {
		t.Errorf("post-update hot Search took %d round trips, want 1", rt)
	}
	if got := c.Stats(); got.HotHits != st.HotHits+1 || got.HotRefutes != st.HotRefutes {
		t.Errorf("post-update hot read: hits %d→%d refutes %d→%d; want one clean hit",
			st.HotHits, got.HotHits, st.HotRefutes, got.HotRefutes)
	}
}

func TestHotDeleteRemovesReplicas(t *testing.T) {
	c, _, key := promoted(t)
	if ok, err := c.Delete(key); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	// The routes still point at the removed records: the next Search must
	// refute them all and answer absent — never the deleted value.
	v, ok, err := c.Search(key)
	if err != nil || ok {
		t.Fatalf("Search(deleted) = %q, %v, %v; want absent", v, ok, err)
	}
	if c.Stats().HotHits != 0 {
		t.Errorf("HotHits = %d after delete, want 0", c.Stats().HotHits)
	}
}

// TestHotStaleRouteRefutedNoBackoff pins the trust-but-verify contract
// at the record level: a route left pointing at a retired record image
// costs one refuted round trip and falls back with no backoff sleep and
// no retry budget, mirroring the leaf-address-cache contract.
func TestHotStaleRouteRefutedNoBackoff(t *testing.T) {
	c, hs, key := promoted(t)
	// Retire every replica record behind the tracker's back, leaving the
	// route caches stale (the shape a lost write-refresh race would have
	// if the protocol allowed one).
	for i := 0; i < hs.Ranks(); i++ {
		if addr, _, ok := hs.Rank(i).Lookup(key); ok {
			if err := c.eng.C.WriteUint64(addr, recordHeader(wire.StatusInvalid, key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The clock moves by the round trips' own time and by backoff waits alone;
	// the batches account for the first.
	batches := newStageCounter()
	c.eng.C.SetObserver(batches)
	clock0 := c.eng.C.Clock()
	st0 := c.Stats()
	warmSearch(t, c, key, []byte("v1")) // authoritative fallback still serves
	if dt := c.eng.C.Clock() - clock0 - batches.ps(); dt != 0 {
		t.Errorf("refuted hot reads slept %d ps of backoff; want 0", dt)
	}
	st := c.Stats()
	if st.Restarts != st0.Restarts {
		t.Errorf("refuted hot reads consumed %d retry budget; want 0", st.Restarts-st0.Restarts)
	}
	if st.HotRefutes == st0.HotRefutes {
		t.Error("no HotRefutes counted for retired records")
	}
	if st.HotHits != st0.HotHits {
		t.Errorf("retired record served as a hit (%d→%d)", st0.HotHits, st.HotHits)
	}
}

// TestHotReadReconciled pins the accounting identity the bench verdict
// relies on: every StageHotRead round trip is a hit or a refutation
// (aborts are zero without fault injection), so the hot fast path's RTs
// reconcile exactly.
func TestHotReadReconciled(t *testing.T) {
	f, shared := newHotCluster(t, 3, fabric.DefaultConfig(), 3)
	fabrictest.Queue(t, f, shared.Hot.Load, 0)
	hs := eagerHotSet(3, 3)
	c := newTestClient(f, shared, Options{Hot: hs})
	obsv := newStageCounter()
	c.eng.C.SetObserver(obsv)
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if _, err := c.Insert(keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 12; round++ {
		for _, k := range keys {
			warmSearch(t, c, k, []byte("v"))
		}
		if round == 6 {
			for _, k := range keys {
				if _, err := c.Update(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := c.Stats()
	if st.HotHits == 0 {
		t.Fatal("workload never hit the hot path; test is vacuous")
	}
	hotRTs := obsv.rts(fabric.StageHotRead)
	if hotRTs != st.HotHits+st.HotRefutes || st.HotAborts != 0 {
		t.Errorf("hot reconciliation: %d StageHotRead RTs != %d hits + %d refutes (aborts %d)",
			hotRTs, st.HotHits, st.HotRefutes, st.HotAborts)
	}
}

// stageCounter tallies round trips per stage from batch events, and the
// virtual time the batches took.
type stageCounter struct {
	mu   sync.Mutex
	rtm  map[fabric.Stage]uint64
	took int64
}

func newStageCounter() *stageCounter {
	return &stageCounter{rtm: make(map[fabric.Stage]uint64)}
}

func (s *stageCounter) ObserveBatch(ev fabric.BatchEvent) {
	s.mu.Lock()
	s.rtm[ev.Stage] += uint64(ev.RoundTrips)
	s.took += ev.EndPs - ev.StartPs
	s.mu.Unlock()
}

func (s *stageCounter) rts(st fabric.Stage) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rtm[st]
}

func (s *stageCounter) ps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.took
}

// TestHotChurn hammers a small hot keyspace with concurrent readers,
// writers and the promote/demote machinery, asserting the acknowledged-
// write floor: a Get that begins after write seq S was acknowledged for
// its key must never return a value older than S. Run with -race and
// -cpu 1,4,8 (CI's churn matrix) this doubles as the memory-model check
// for the CN-shared tracker and route caches.
func TestHotChurn(t *testing.T) {
	f, shared := newHotCluster(t, 4, fabric.DefaultConfig(), 3)
	const (
		workers = 6
		keys    = 8
		opsEach = 400
	)
	// One CN: every worker client shares the tracker, filter and leaf
	// cache, exactly as sessions of one ComputeNode do. Aggressive
	// thresholds maximize promote/demote churn.
	hs := NewHotSet(0, 7, 3)
	hs.SetThresholds(4, 3, 512)
	filter := NewFilterCache(1<<12, 1)
	lac := NewLeafCache(1<<12, 1)
	setup := newTestClient(f, shared, Options{Hot: hs, Filter: filter, LeafCache: lac})

	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("hot-%02d", i)) }
	valOf := func(k int, seq uint64) []byte {
		v := make([]byte, 16)
		binary.LittleEndian.PutUint64(v, uint64(k))
		binary.LittleEndian.PutUint64(v[8:], seq)
		return v
	}
	// acked[k] is the highest sequence acknowledged for key k (0 = the
	// seeded value). Writers store AFTER the ack returns; readers load
	// BEFORE issuing the Get, so the floor is always conservative.
	var acked [keys]atomic.Uint64
	for k := 0; k < keys; k++ {
		if _, err := setup.Insert(keyOf(k), valOf(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	fabrictest.Queue(t, f, shared.Hot.Load, 0)

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newTestClient(f, shared, Options{Hot: hs, Filter: filter, LeafCache: lac})
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func(n uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			for i := 0; i < opsEach; i++ {
				k := int(next(keys))
				key := keyOf(k)
				// Writers own disjoint keys (worker w writes k ≡ w mod
				// workers), so per-key sequences are monotone; everyone
				// reads everything.
				if next(4) == 0 && k%workers == w {
					seq := acked[k].Load() + 1
					if _, err := c.Update(key, valOf(k, seq)); err != nil {
						errc <- fmt.Errorf("worker %d: update %q: %w", w, key, err)
						return
					}
					acked[k].Store(seq)
					continue
				}
				floor := acked[k].Load()
				v, ok, err := c.Search(key)
				if err != nil {
					errc <- fmt.Errorf("worker %d: search %q: %w", w, key, err)
					return
				}
				if !ok {
					errc <- fmt.Errorf("worker %d: %q absent; nothing deletes it", w, key)
					return
				}
				if len(v) != 16 || binary.LittleEndian.Uint64(v) != uint64(k) {
					errc <- fmt.Errorf("worker %d: %q returned foreign value %q", w, key, v)
					return
				}
				if got := binary.LittleEndian.Uint64(v[8:]); got < floor {
					errc <- fmt.Errorf("worker %d: %q returned seq %d older than acked floor %d",
						w, key, got, floor)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The churn must have exercised the machinery, or the floor assertion
	// proved nothing.
	st := setup.Stats()
	var total Stats
	total = total.Add(st)
	if hsSum := st.HotPromotes; hsSum == 0 {
		// Promotions may have happened on any worker client; sum is not
		// available here (clients are goroutine-local), so check the
		// cluster-wide published counter instead.
		if !shared.Hot.Published() {
			t.Error("churn never promoted a key; thresholds too high for the workload")
		}
	}
	_ = total
}

// TestHotDemoteTearsDown drives a promoted key cold and checks demotion
// removes its records and routes (a later Get takes the normal path and
// re-promotion still works).
func TestHotDemoteTearsDown(t *testing.T) {
	f, shared := newHotCluster(t, 3, fabric.DefaultConfig(), 3)
	fabrictest.Queue(t, f, shared.Hot.Load, 0)
	hs := NewHotSet(0, 7, 3)
	// Demote at < 4, decay every 32 observations: a burst promotes, a
	// stream of other-key traffic decays it cold.
	hs.SetThresholds(6, 4, 32)
	c := newTestClient(f, shared, Options{Hot: hs})
	hot := []byte("hot-key")
	if _, err := c.Insert(hot, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16 && c.Stats().HotPromotes == 0; i++ {
		warmSearch(t, c, hot, []byte("v"))
	}
	if c.Stats().HotPromotes == 0 {
		t.Fatal("key did not promote")
	}
	// Cool it: hammer other keys so the epoch advances and the hot key's
	// count halves below the demotion threshold, then touch it once to
	// trigger the demotion decision.
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("cold-%03d", i))
		if _, err := c.Insert(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		warmSearch(t, c, k, []byte("x"))
	}
	for i := 0; i < 8 && c.Stats().HotDemotes == 0; i++ {
		warmSearch(t, c, hot, []byte("v"))
	}
	if c.Stats().HotDemotes == 0 {
		t.Fatal("cooled key never demoted")
	}
	// Routes are gone; the key still reads correctly via the normal path.
	if _, _, ok := hs.Rank(0).Lookup(hot); ok {
		// Rank 0 may have been re-learned by a re-promotion burst above;
		// only fail if the demotion count never moved.
		t.Log("rank-0 route present after demotion (re-promoted)")
	}
	warmSearch(t, c, hot, []byte("v"))
}

// TestHotPublishGateOpensBeforePlaceholders: once a promotion's placeholders
// are discoverable, Published() is already true, so a write committing
// between the promoter's authoritative read and its final swap runs the
// replica refresh instead of skipping it — and the promoter's pre-write value
// then loses the LWW swap instead of sticking as a verified-servable stale
// record. A Delete that lands ahead of the placeholders instead — behind the
// first batch of their fan-out, the gate open, nothing placed yet, so the
// Delete finds no record to retire — leaves the promoter's read finding the
// key gone: the promotion aborts, takes back its placeholders (hotAbandon),
// and no record of the key is left on any hot target.
func TestHotPublishGateOpensBeforePlaceholders(t *testing.T) {
	for _, tc := range []struct {
		name  string
		at    fabric.Stage // the promoter's batch the write lands behind
		write func(*Client, []byte) error
	}{
		{"update", fabric.StageLeafRead, func(w *Client, key []byte) error { _, err := w.Update(key, []byte("v2")); return err }},
		{"delete", fabric.StageHotPub, func(w *Client, key []byte) error { _, err := w.Delete(key); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, shared := newHotCluster(t, 3, fabric.DefaultConfig(), 3)
			fabrictest.Queue(t, f, shared.Hot.Load, 0)
			c := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 1<<30)}) // never promotes by itself
			writer := newTestClient(f, shared, Options{})
			key := []byte("raced-key")
			if _, err := c.Insert(key, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if shared.Hot.Published() {
				t.Fatal("Published() true before any hot record exists")
			}
			sw := fabrictest.Switch(0, func(s fabrictest.Step) bool { return s.BatchEnd && s.Stage == tc.at })
			fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { c.hotPromote(key) }}, fabrictest.Proc{Fn: func() {
				if !shared.Hot.Published() {
					t.Error("Published() false with placeholders discoverable; a racing write would skip the replica refresh")
				}
				if err := tc.write(writer, key); err != nil {
					t.Error(err)
				}
			}})
			if sw.Turns[0].At == nil {
				t.Fatalf("the promoter posted no %v batch; the write never raced it", tc.at)
			}
			targets, _ := c.hot.targets(c.members.Current(), key, false)
			for _, tgt := range slices.Clone(targets) {
				recs, err := c.hot.recordsOn(tgt, key)
				if err != nil {
					t.Fatalf("records on node %d: %v", tgt, err)
				}
				for _, r := range recs {
					if tc.name == "delete" {
						t.Errorf("node %d: a %v record v%d of the deleted key is left behind the aborted promotion", tgt, r.status, r.version)
					} else if r.status == wire.StatusIdle && !bytes.Equal(r.value, []byte("v2")) {
						t.Errorf("node %d: hot record v%d serves %q after the racing write, want %q", tgt, r.version, r.value, "v2")
					}
				}
			}
			if got := c.Stats().HotPromotes; tc.name == "delete" && got != 0 {
				t.Errorf("HotPromotes = %d; want the promotion of the deleted key aborted", got)
			}
		})
	}
}

// TestHotOversizedValueExcluded pins the size gate: a value whose record
// image exceeds the route cache's 8-bit unit field (~16 KiB) must never
// enter the hot layer — without the gate every promotion ended at
// routed=0, unclaimed, and was retried as soon as the sketch re-crossed
// the threshold, churning forever with no routable result.
func TestHotOversizedValueExcluded(t *testing.T) {
	f, shared := newHotCluster(t, 3, fabric.DefaultConfig(), 3)
	fabrictest.Queue(t, f, shared.Hot.Load, 0)
	hs := eagerHotSet(3, 3)
	c := newTestClient(f, shared, Options{Hot: hs})
	key := []byte("jumbo-key")
	// The hot record header (24 B) is larger than the leaf header (16 B),
	// so a narrow band of pairs fits a 255-unit tree leaf but not a hot
	// record image; this value puts key+value at the top of that band.
	big := make([]byte, 16304-len(key))
	for i := range big {
		big[i] = byte(i)
	}
	if hotRoutable(key, len(big)) {
		t.Fatal("test value unexpectedly routable; grow it")
	}
	if _, err := c.Insert(key, big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		warmSearch(t, c, key, big)
	}
	if got := c.Stats().HotPromotes; got != 0 {
		t.Errorf("HotPromotes = %d for unroutable value, want 0", got)
	}
	if shared.Hot.Published() {
		t.Error("unroutable key left discoverable hot records; the size gate failed")
	}
	if hs.Claimed(key) {
		t.Error("unroutable key holds a promotion claim; Observe saw an unroutable key")
	}
	// The gate is per-key, not a kill switch: a routable key on the same
	// client still promotes.
	small := []byte("small-key")
	if _, err := c.Insert(small, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && c.Stats().HotPromotes == 0; i++ {
		warmSearch(t, c, small, []byte("v"))
	}
	if got := c.Stats().HotPromotes; got != 1 {
		t.Errorf("HotPromotes = %d for routable key, want 1", got)
	}
}

// TestHotReadsFreshAcrossMembershipChange: two CNs promote one key, a
// membership change runs to cutover, and then A updates the key three times;
// after each acknowledged update B's Gets read the new value. Draining one of
// the key's hot targets moves its replica set, and the record left on the
// drained node is no longer refreshed by writes: B's routes predate the
// change, so hotGet flushes them on the new epoch (HotSet.FlushRoutes) and
// re-promotes rather than serve that record. A joining node hosts a hot table
// of its own: the key's set moves to it (it is among the key's first three
// successors), the re-promotion publishes a record there, and the reads stay
// fresh too.
func TestHotReadsFreshAcrossMembershipChange(t *testing.T) {
	for _, change := range []string{"drain", "add"} {
		t.Run(change, func(t *testing.T) {
			f, shared := newHotCluster(t, 4, fabric.DefaultConfig(), 3)
			fabrictest.Queue(t, f, shared.Hot.Load, 0)
			a := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 3)})
			b := newTestClient(f, shared, Options{Hot: eagerHotSet(3, 3)})
			key := []byte("popular-key")
			if _, err := a.Insert(key, []byte("v0")); err != nil {
				t.Fatal(err)
			}
			for _, c := range []*Client{a, b} {
				for i := 0; i < 8 && c.Stats().HotPromotes == 0; i++ {
					warmSearch(t, c, key, []byte("v0"))
				}
				if c.Stats().HotPromotes != 1 {
					t.Fatalf("HotPromotes = %d after warm searches, want 1", c.Stats().HotPromotes)
				}
			}
			targets, _ := a.hot.targets(a.members.Current(), key, false)
			before := slices.Clone(targets)
			var joined mem.NodeID
			switch change {
			case "drain":
				victim := before[0]
				if victim == shared.Root.Node() {
					victim = before[1]
				}
				if _, err := BeginDrainNode(shared, victim); err != nil {
					t.Fatal(err)
				}
			case "add":
				joined = f.AddNode(64 << 20)
				if _, err := BeginAddNode(f, shared, joined, 1000); err != nil {
					t.Fatal(err)
				}
			}
			sweepToCutover(t, a)
			after, _ := a.hot.targets(a.members.Current(), key, false)
			if slices.Equal(before, after) || change == "add" && !slices.Contains(after, joined) {
				t.Fatalf("the key's hot targets went %v -> %v; want them moved (to the joined node %d)", before, after, joined)
			}
			hits := b.Stats().HotHits
			for i := 1; i <= 3; i++ {
				val := []byte(fmt.Sprintf("v%d", i))
				if _, err := a.Update(key, val); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 4; j++ {
					warmSearch(t, b, key, val)
				}
			}
			if b.Stats().HotHits == hits {
				t.Error("B served no Get from a replica after the change; the test exercises nothing")
			}
			if recs, err := a.hot.recordsOn(joined, key); change == "add" && (err != nil || len(recs) != 1 || string(recs[0].value) != "v3") {
				t.Errorf("joined node %d holds %d records of the key (err %v); want the one refreshed", joined, len(recs), err)
			}
		})
	}
}
