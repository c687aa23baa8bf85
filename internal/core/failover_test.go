package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// newReplicatedCluster is newCluster with the fault-tolerance layer
// bootstrapped (anchor tables, R=2 replication, breaker gating on).
func newReplicatedCluster(t *testing.T, mns int, cfg fabric.Config, expected int) (*fabric.Fabric, Shared) {
	t.Helper()
	return bootCluster(t, mns, cfg, func(f *fabric.Fabric, ring *consistenthash.Ring) (Shared, error) {
		return BootstrapReplicated(f, ring, expected, DefaultReplication)
	})
}

// victimFor returns a node that owns at least one of the keys, so killing
// it actually severs tree paths.
func victimFor(shared Shared, keys [][]byte) mem.NodeID {
	for _, k := range keys {
		return shared.Ring.OwnerKey(k)
	}
	return shared.Ring.Nodes()[0]
}

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("failover-key-%04d", i))
	}
	return keys
}

// TestSearchFailoverNoBackoff is the retry-accounting satellite: with the
// breaker aware of the dead node, a read whose home died must fail over to
// a replica without consuming a single backoff sleep. Under InstantConfig
// every verb is free and gated rejects cost nothing, so any clock advance
// can only come from backoff sleeps — which the fail-fast path must not
// take.
func TestSearchFailoverNoBackoff(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	keys := testKeys(64)
	for _, k := range keys {
		if _, err := c.Insert(k, append([]byte("val-"), k...)); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	victim := victimFor(shared, keys)
	f.KillNode(victim)
	// One discovery contact teaches the shared breaker about the death (a
	// dedicated client keeps the measured client's stats clean).
	probe := newTestClient(f, shared, Options{})
	probe.Search(keys[0])
	if f.Health().State(victim) != fabric.HealthDead {
		t.Fatalf("breaker did not learn the death")
	}

	clock0 := c.eng.C.Clock()
	served := 0
	for _, k := range keys {
		v, ok, err := c.Search(k)
		if err != nil {
			t.Fatalf("search %q after kill: %v", k, err)
		}
		if !ok || !bytes.Equal(v, append([]byte("val-"), k...)) {
			t.Fatalf("search %q after kill: ok=%v v=%q", k, ok, v)
		}
		served++
	}
	if dt := c.eng.C.Clock() - clock0; dt != 0 {
		t.Errorf("post-kill searches advanced the clock by %dps: backoff sleeps on the failover path", dt)
	}
	st := c.Stats()
	if st.Failovers == 0 {
		t.Errorf("no failovers recorded across %d post-kill searches", served)
	}
	if st.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 (failover must bypass the retry loop)", st.Restarts)
	}
}

// TestKilledClusterWritesSurvive: every acknowledged write before and
// after the kill must stay readable; degraded writes land anchor-only and
// are found via the degraded-absent confirmation path.
func TestKilledClusterWritesSurvive(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	keys := testKeys(200)
	for i, k := range keys {
		if _, err := c.Insert(k, []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	victim := victimFor(shared, keys)
	f.KillNode(victim)

	// Post-kill writes: updates of old keys and brand-new inserts, all of
	// which must be acknowledged and durable.
	for i, k := range keys[:100] {
		if _, err := c.Insert(k, []byte(fmt.Sprintf("v1-%d", i))); err != nil {
			t.Fatalf("post-kill update %q: %v", k, err)
		}
	}
	fresh := make([][]byte, 50)
	for i := range fresh {
		fresh[i] = []byte(fmt.Sprintf("post-kill-key-%04d", i))
		if _, err := c.Insert(fresh[i], []byte(fmt.Sprintf("p-%d", i))); err != nil {
			t.Fatalf("post-kill insert %q: %v", fresh[i], err)
		}
	}

	for i, k := range keys {
		want := fmt.Sprintf("v0-%d", i)
		if i < 100 {
			want = fmt.Sprintf("v1-%d", i)
		}
		v, ok, err := c.Search(k)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("search %q: ok=%v v=%q err=%v (want %q)", k, ok, v, err, want)
		}
	}
	for i, k := range fresh {
		v, ok, err := c.Search(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("p-%d", i) {
			t.Fatalf("search fresh %q: ok=%v v=%q err=%v", k, ok, v, err)
		}
	}
	// Absent keys stay absent (the degraded confirm path must not
	// fabricate values).
	if _, ok, err := c.Search([]byte("never-written")); err != nil || ok {
		t.Errorf("absent key after kill: ok=%v err=%v", ok, err)
	}
}

// TestRepairConvergence: after a kill, sweeps re-replicate every surviving
// anchor onto a healthy successor and the deficit gauge reaches zero.
func TestRepairConvergence(t *testing.T) {
	f, shared := newReplicatedCluster(t, 4, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	keys := testKeys(300)
	for i, k := range keys {
		if _, err := c.Insert(k, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	victim := victimFor(shared, keys)
	f.KillNode(victim)
	// Teach the breaker (repair placement consults Health).
	newTestClient(f, shared, Options{}).Search(keys[0])

	repairer := newTestClient(f, shared, Options{})
	var rep RepairReport
	converged := false
	for sweep := 0; sweep < 6; sweep++ {
		var err error
		rep, err = repairer.RepairSweep()
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		if rep.Deficits == 0 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("repair did not converge: final report %+v", rep)
	}
	if shared.FT.UnderReplicated() != 0 {
		t.Errorf("under-replicated gauge = %d after convergence", shared.FT.UnderReplicated())
	}
	sweeps, copied := shared.FT.RepairTotals()
	if sweeps == 0 || copied == 0 {
		t.Errorf("repair totals: sweeps=%d copied=%d, want both > 0", sweeps, copied)
	}
	// Kill a second node: every key must still be served, because repair
	// restored full replication — any acked key now has a live replica
	// among the survivors.
	var second mem.NodeID
	for _, n := range shared.Ring.Nodes() {
		if n != victim {
			second = n
			break
		}
	}
	f.KillNode(second)
	reader := newTestClient(f, shared, Options{})
	for i, k := range keys {
		v, ok, err := reader.Search(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("search %q after second kill: ok=%v v=%q err=%v", k, ok, v, err)
		}
	}
}

// TestConcurrentKillRepairServe drives workers, a mid-run kill and repair
// sweeps concurrently; run under -race this is the data-race check for the
// whole failover stack.
func TestConcurrentKillRepairServe(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 2000)
	loader := newTestClient(f, shared, Options{})
	const workers = 4
	const perWorker = 120
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%d-key-%04d", w, i))
			if _, err := loader.Insert(k, []byte("seed")); err != nil {
				t.Fatalf("load %q: %v", k, err)
			}
		}
	}
	victim := shared.Ring.OwnerKey([]byte("w0-key-0000"))

	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newTestClient(f, shared, Options{})
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-key-%04d", w, i))
				if w == 0 && i == perWorker/2 {
					f.KillNode(victim)
				}
				if i%2 == 0 {
					if _, err := c.Insert(k, []byte(fmt.Sprintf("v%d", i))); err != nil && !errors.Is(err, ErrReplicaSetUnavailable) {
						errCh <- fmt.Errorf("w%d insert %q: %w", w, k, err)
						return
					}
				} else {
					if _, _, err := c.Search(k); err != nil && !errors.Is(err, ErrReplicaSetUnavailable) {
						errCh <- fmt.Errorf("w%d search %q: %w", w, k, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := newTestClient(f, shared, Options{})
		for s := 0; s < 4; s++ {
			if _, err := r.RepairSweep(); err != nil {
				errCh <- fmt.Errorf("repair sweep %d: %w", s, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestAnchorConcurrentSameKeyUpdates is the regression test for the
// anchor last-writer-wins races: concurrent writers of one key race on the
// anchor-table entry CAS. Before the swap-if-present rule the losing updater
// called View.Replace with its stale expectation — then a wait loop meant
// for lock-holding callers — and died waiting for an entry gone for good;
// and concurrent FIRST inserts, which all observe "absent", each insert an
// entry, so a replica holds duplicates until the next publish. Competing
// writers must all succeed, every replica must serve the same acknowledged
// value — the highest version, whatever the bucket order — and one more
// write must leave one entry per replica.
func TestAnchorConcurrentSameKeyUpdates(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
	key := []byte("anchor-race-key")

	const writers, updates = 6, 40
	written := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newTestClient(f, shared, Options{})
			for i := 0; i < updates; i++ {
				val := []byte(fmt.Sprintf("w%d-i%d", w, i))
				// Round 0 is every writer's first Insert of the key, all at
				// once; the rest are updates.
				if _, err := c.Insert(key, val); err != nil {
					errCh <- fmt.Errorf("writer %d write %d: %w", w, i, err)
					return
				}
				mu.Lock()
				written[string(val)] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The tree's value and every anchor replica must hold an acknowledged
	// value (LWW: the winner is the highest version, which is one of them),
	// and the replicas must agree on it: every writer published to every
	// replica, so each one's highest version is the cluster's.
	r := newTestClient(f, shared, Options{})
	v, ok, err := r.Search(key)
	if err != nil || !ok {
		t.Fatalf("read after race: ok=%v err=%v", ok, err)
	}
	if !written[string(v)] {
		t.Fatalf("surviving value %q was never acknowledged", v)
	}
	targets := r.anchors.place(nil, shared.Ring, key)
	var agreed []byte
	for _, node := range targets {
		cands, err := r.anchors.recordsOn(node, key)
		if err != nil || len(cands) == 0 {
			t.Fatalf("anchor on node %d: %d records, err=%v", node, len(cands), err)
		}
		av := newestWhole(cands).value
		if !written[string(av)] {
			t.Fatalf("anchor on node %d holds unacknowledged value %q", node, av)
		}
		if agreed == nil {
			agreed = av
		} else if !bytes.Equal(av, agreed) {
			t.Fatalf("replicas disagree: node %d serves %q, node %d serves %q", node, av, targets[0], agreed)
		}
	}
	if av, ok, err := r.anchorGet(key); err != nil || !ok || !bytes.Equal(av, agreed) {
		t.Fatalf("anchorGet = %q, %v, %v; want the replicas' %q", av, ok, err, agreed)
	}
	if _, err := r.Update(key, []byte("settled")); err != nil {
		t.Fatal(err)
	}
	for _, node := range targets {
		if cands, err := r.anchors.recordsOn(node, key); err != nil || len(cands) != 1 || string(cands[0].value) != "settled" {
			t.Fatalf("anchor on node %d after one more write: %d records, err=%v; want exactly the new one", node, len(cands), err)
		}
	}
}

// TestAnchorDuplicateEntriesServeNewest replays, on one goroutine, what two
// publishers that both observed "absent" leave behind — a foreground write
// racing the repair or migration sweep, or two clients' first Insert of one
// key: two entries for the key in one anchor table. Reads must serve the
// higher version whichever entry comes first in bucket order, and the next
// publish must leave exactly one entry.
func TestAnchorDuplicateEntriesServeNewest(t *testing.T) {
	for _, order := range []string{"older entry first", "newer entry first"} {
		t.Run(order, func(t *testing.T) {
			f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
			c := newTestClient(f, shared, Options{})
			key := []byte("twice-inserted-key")
			older := record{wire.StatusIdle, key, []byte("older"), c.anchors.nextVersion()}
			newer := record{wire.StatusIdle, key, []byte("newer"), c.anchors.nextVersion()}
			planted := []record{older, newer}
			if order == "newer entry first" {
				planted = []record{newer, older}
			}
			targets := c.anchors.place(nil, shared.Ring, key)
			for _, node := range targets {
				for _, rec := range planted {
					plantRecord(t, c.anchors, node, rec)
				}
				if cands, err := c.anchors.recordsOn(node, key); err != nil || len(cands) != 2 {
					t.Fatalf("node %d: staged %d records, err=%v; want the duplicate pair", node, len(cands), err)
				}
			}
			if v, ok, err := c.anchorGet(key); err != nil || !ok || string(v) != "newer" {
				t.Fatalf("anchorGet over duplicates = %q, %v, %v; want the higher version's %q", v, ok, err, "newer")
			}
			if _, err := c.anchorUpsert(key, []byte("next")); err != nil {
				t.Fatal(err)
			}
			for _, node := range targets {
				cands, err := c.anchors.recordsOn(node, key)
				if err != nil || len(cands) != 1 || string(cands[0].value) != "next" {
					t.Fatalf("node %d after the next publish: %d records, err=%v; want exactly the new one", node, len(cands), err)
				}
			}
			if v, ok, err := c.anchorGet(key); err != nil || !ok || string(v) != "next" {
				t.Fatalf("anchorGet after the next publish = %q, %v, %v", v, ok, err)
			}
		})
	}
}
