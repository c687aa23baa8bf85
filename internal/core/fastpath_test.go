package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sphinx/internal/fabric"
)

// The fastpath suite pins the speculative 1-RT warm-read contract
// (DESIGN.md §5.12): a leaf-address-cache hit serves a verified value in
// one round trip; a stale entry — after a delete, an out-of-place update,
// or a memory-node loss — is always refuted and re-routed, never served;
// and the refuted fallback is a routing decision that burns no retry
// backoff or budget.

// warmSearch searches key and fails the test on any miss; the successful
// traversal teaches the client's leaf-address cache.
func warmSearch(t *testing.T, c *Client, key, want []byte) {
	t.Helper()
	v, ok, err := c.Search(key)
	if err != nil || !ok || !bytes.Equal(v, want) {
		t.Fatalf("warm Search(%q) = %q, %v, %v; want %q", key, v, ok, err, want)
	}
}

// TestSpecStaleEntryNoBackoff is the retry-accounting satellite for the
// fast path: a refuted speculative read must fall back to the hash path
// as ONE no-backoff decision — no sleep, no retry budget — exactly like
// the failover and need-parent re-routes. A stale entry is planted by
// hand (key A's slot pointing at key B's live leaf), so the verification
// fails on the full-key comparison with a perfectly healthy leaf image.
func TestSpecStaleEntryNoBackoff(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	keyA, keyB := []byte("alpha-key"), []byte("bravo-key")
	if _, err := c.Insert(keyA, []byte("va")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(keyB, []byte("vb")); err != nil {
		t.Fatal(err)
	}
	warmSearch(t, c, keyB, []byte("vb"))
	addrB, unitsB, ok := c.lac.Lookup(keyB)
	if !ok {
		t.Fatal("warm search did not learn keyB's leaf address")
	}
	// Plant the stale hint: keyA's slot claims keyB's leaf.
	c.lac.Learn(keyA, addrB, unitsB)

	clock0 := c.eng.C.Clock()
	st0 := c.Stats()
	v, found, err := c.Search(keyA)
	if err != nil || !found || !bytes.Equal(v, []byte("va")) {
		t.Fatalf("Search(keyA) with stale hint = %q, %v, %v", v, found, err)
	}
	// Under InstantConfig every verb is free, so any clock advance can
	// only come from backoff sleeps — which the refuted fallback must not
	// take.
	if dt := c.eng.C.Clock() - clock0; dt != 0 {
		t.Errorf("refuted speculation slept %d ps of backoff; want 0", dt)
	}
	st := c.Stats()
	if st.Restarts != st0.Restarts {
		t.Errorf("refuted speculation consumed %d retry budget; want 0", st.Restarts-st0.Restarts)
	}
	if st.SpecRefutes != st0.SpecRefutes+1 {
		t.Errorf("SpecRefutes = %d, want %d", st.SpecRefutes, st0.SpecRefutes+1)
	}
	// The refutation unlearned the stale entry AND the fallback traversal
	// re-learned the true address, so the next search is a clean 1-RT hit.
	rt0 := c.eng.C.Stats().RoundTrips
	warmSearch(t, c, keyA, []byte("va"))
	if rt := c.eng.C.Stats().RoundTrips - rt0; rt != 1 {
		t.Errorf("post-refutation search took %d round trips, want 1", rt)
	}
	if got := c.Stats().SpecHits; got != st.SpecHits+1 {
		t.Errorf("SpecHits = %d, want %d", got, st.SpecHits+1)
	}
}

// TestSpecRefuteAfterDelete: a delete retires the leaf in place (status
// Invalid) before clearing its slot, so a stale leaf-address-cache entry
// MUST be refuted — a speculative read may never resurrect a deleted key.
func TestSpecRefuteAfterDelete(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	key := []byte("doomed-key")
	if _, err := c.Insert(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert([]byte("doomed-kin"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	warmSearch(t, c, key, []byte("v1"))
	if _, _, ok := c.lac.Lookup(key); !ok {
		t.Fatal("warm search did not learn the leaf address")
	}
	if ok, err := c.Delete(key); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}

	st0 := c.Stats()
	v, found, err := c.Search(key)
	if err != nil || found {
		t.Fatalf("Search after delete = %q, %v, %v; want absent", v, found, err)
	}
	st := c.Stats()
	if st.SpecRefutes != st0.SpecRefutes+1 {
		t.Errorf("SpecRefutes = %d, want %d (stale entry must be refuted)", st.SpecRefutes, st0.SpecRefutes+1)
	}
	if _, _, ok := c.lac.Lookup(key); ok {
		t.Error("stale entry survived its refutation")
	}
	// The next search must not re-speculate: the entry is gone.
	if _, found, err := c.Search(key); err != nil || found {
		t.Fatalf("second Search after delete = %v, %v", found, err)
	}
	if got := c.Stats().SpecMisses; got != st.SpecMisses+1 {
		t.Errorf("SpecMisses = %d, want %d", got, st.SpecMisses+1)
	}
}

// TestSpecRefuteAfterLeafMove: an update that outgrows the leaf moves the
// key out of place and retires the old image in the SAME commit batch, so
// another compute node's stale cached address must be refuted — the old
// value may never be served after the update acked — and the fallback
// re-learns the new address for a clean hit right after. (The writer's own
// cache is relearned by the put itself: TestSpecUpdateOutgrownLeaf.)
func TestSpecRefuteAfterLeafMove(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	writer := newTestClient(f, shared, Options{})
	key := []byte("growing-key")
	if _, err := c.Insert(key, []byte("small")); err != nil {
		t.Fatal(err)
	}
	warmSearch(t, c, key, []byte("small"))
	oldAddr, _, ok := c.lac.Lookup(key)
	if !ok {
		t.Fatal("warm search did not learn the leaf address")
	}

	big := bytes.Repeat([]byte("B"), 1000) // forces an out-of-place move
	if ok, err := writer.Update(key, big); err != nil || !ok {
		t.Fatalf("grow update = %v, %v", ok, err)
	}

	st0 := c.Stats()
	v, found, err := c.Search(key)
	if err != nil || !found || !bytes.Equal(v, big) {
		t.Fatalf("Search after move = %d bytes, %v, %v; want the new value", len(v), found, err)
	}
	st := c.Stats()
	if st.SpecRefutes != st0.SpecRefutes+1 {
		t.Errorf("SpecRefutes = %d, want %d (moved leaf must refute)", st.SpecRefutes, st0.SpecRefutes+1)
	}
	newAddr, _, ok := c.lac.Lookup(key)
	if !ok {
		t.Fatal("fallback did not re-learn the moved leaf")
	}
	if newAddr == oldAddr {
		t.Fatal("update did not move the leaf; the scenario exercises nothing")
	}
	rt0 := c.eng.C.Stats().RoundTrips
	warmSearch(t, c, key, big)
	if rt := c.eng.C.Stats().RoundTrips - rt0; rt != 1 {
		t.Errorf("search after re-learn took %d round trips, want 1", rt)
	}
}

// TestSpecCrossClientInvalidation: sessions of one CN share the
// leaf-address cache; a delete issued by one client must be seen by the
// other through verification, not through any cache coherence protocol —
// the other's next speculative read through the stale entry refutes and
// unlearns it, and the truth is served. (A writer's put through a stale
// shared entry: TestSpecUpdateRefutesStaleAddress.)
func TestSpecCrossClientInvalidation(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 1000)
	lac := NewLeafCache(1<<12, 1)
	c1 := newTestClient(f, shared, Options{LeafCache: lac})
	c2 := newTestClient(f, shared, Options{LeafCache: lac})
	key := []byte("shared-key")
	if _, err := c1.Insert(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Insert([]byte("shared-kin"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	warmSearch(t, c1, key, []byte("v1"))

	// c2 deletes; nothing tells the shared cache. c1's cached address points
	// at the retired leaf: its speculative read refutes, unlearns and falls
	// back to the tree, which says absent.
	if ok, err := c2.Delete(key); err != nil || !ok {
		t.Fatalf("c2 delete = %v, %v", ok, err)
	}
	st1 := c1.Stats()
	if v, found, err := c1.Search(key); err != nil || found {
		t.Fatalf("c1 Search after c2 delete = %q, %v, %v; want absent", v, found, err)
	}
	if got := c1.Stats().SpecRefutes; got != st1.SpecRefutes+1 {
		t.Errorf("c1 SpecRefutes = %d, want %d", got, st1.SpecRefutes+1)
	}
	if _, _, ok := lac.Lookup(key); ok {
		t.Error("the refuted entry is still in the shared cache")
	}

	// c2 re-inserts: the entry is gone, so the put's speculative write has
	// nothing to try (a miss, not a refute), and c1 reads the new value.
	st2 := c2.Stats()
	if _, err := c2.Insert(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats(); got.SpecUpdMisses != st2.SpecUpdMisses+1 || got.SpecUpdRefutes != st2.SpecUpdRefutes {
		t.Errorf("c2 re-insert: SpecUpdMisses %d -> %d, SpecUpdRefutes %d -> %d; want +1, +0",
			st2.SpecUpdMisses, got.SpecUpdMisses, st2.SpecUpdRefutes, got.SpecUpdRefutes)
	}
	v, found, err := c1.Search(key)
	if err != nil || !found || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("c1 Search after c2 rewrite = %q, %v, %v; want \"v2\"", v, found, err)
	}
	// The shared cache now carries the new address: c2 hits on it without
	// ever having searched the key itself.
	rt0 := c2.eng.C.Stats().RoundTrips
	warmSearch(t, c2, key, []byte("v2"))
	if rt := c2.eng.C.Stats().RoundTrips - rt0; rt != 1 {
		t.Errorf("c2 search via shared cache took %d round trips, want 1", rt)
	}
	if c2.Stats().SpecHits == 0 {
		t.Error("c2 never hit the shared cache")
	}
}

// TestSpecFailoverRefutesThenDegradedBypass: after a memory-node kill in
// a replicated cluster, a warm leaf-address cache full of addresses into
// dead memory must never produce a wrong answer. The first read whose
// cached leaf died refutes (node lost), unlearns, and fails over to the
// anchor replicas; once the breaker knows the death, degraded mode
// bypasses the cache wholesale — no speculative read may be served while
// the tree is not authoritative.
func TestSpecFailoverRefutesThenDegradedBypass(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	keys := testKeys(64)
	for _, k := range keys {
		if _, err := c.Insert(k, append([]byte("val-"), k...)); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	for _, k := range keys {
		warmSearch(t, c, k, append([]byte("val-"), k...))
	}
	if c.Stats().SpecMisses == 0 {
		t.Fatal("warm pass never consulted the leaf-address cache")
	}

	victim := victimFor(shared, keys)
	f.KillNode(victim)

	// No probe: the measured client itself discovers the death, possibly
	// through a speculative read against dead memory. Every answer must
	// still be correct.
	for _, k := range keys {
		v, ok, err := c.Search(k)
		if err != nil {
			t.Fatalf("search %q after kill: %v", k, err)
		}
		if !ok || !bytes.Equal(v, append([]byte("val-"), k...)) {
			t.Fatalf("search %q after kill: ok=%v v=%q — speculative read served stale data", k, ok, v)
		}
	}
	if f.Health().State(victim) != fabric.HealthDead {
		t.Fatal("breaker never learned the death")
	}
	st := c.Stats()
	if st.Failovers == 0 {
		t.Error("no failovers recorded after the kill")
	}

	// Degraded mode: the cache is bypassed wholesale — further searches
	// move NO speculative counter, hit or otherwise.
	for _, k := range keys {
		v, ok, err := c.Search(k)
		if err != nil || !ok || !bytes.Equal(v, append([]byte("val-"), k...)) {
			t.Fatalf("degraded search %q = %q, %v, %v", k, v, ok, err)
		}
	}
	st2 := c.Stats()
	if st2.SpecHits != st.SpecHits || st2.SpecMisses != st.SpecMisses ||
		st2.SpecRefutes != st.SpecRefutes || st2.SpecAborts != st.SpecAborts {
		t.Errorf("degraded searches moved speculative counters: %+v -> %+v", st, st2)
	}
}

// TestChaosLACChurn drives concurrent workers through insert/grow-update/
// delete churn on a SHARED leaf-address cache (sessions of one CN), with
// probabilistic fabric faults, in both cache modes. Every worker's own
// keys follow a per-worker oracle; a preloaded immutable key set must
// never go absent or change value, no matter how stale the shared cache
// gets. Run under -race this is the data-race check for the whole
// speculative path.
func TestChaosLACChurn(t *testing.T) {
	for _, mode := range []string{"lac-on", "lac-off"} {
		t.Run(mode, func(t *testing.T) {
			f, shared := newCluster(t, 2, fabric.DefaultConfig(), 4000)
			f.SetFaultPlan(chaosPlan(17))
			var lac *LeafCache // lac-off runs without one
			if mode == "lac-on" {
				lac = NewLeafCache(1<<10, 7) // shared, collision-prone
			}
			mount := func() *Client {
				return NewClient(shared, f.NewClient(), Options{Filter: testFilter(0), LeafCache: lac})
			}

			loader := mount()
			const immutable = 60
			for i := 0; i < immutable; i++ {
				k := []byte(fmt.Sprintf("pinned-%03d", i))
				if _, err := loader.Insert(k, append([]byte("pin-"), k...)); err != nil {
					t.Fatalf("preload %q: %v", k, err)
				}
			}

			const workers = 6
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			clients := make([]*Client, workers)
			for w := 0; w < workers; w++ {
				clients[w] = mount()
			}
			big := bytes.Repeat([]byte("G"), 700)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := clients[w]
					rng := rand.New(rand.NewSource(int64(1000 + w)))
					oracle := map[string][]byte{}
					for i := 0; i < 400; i++ {
						k := fmt.Sprintf("own-%d-%02d", w, rng.Intn(20))
						switch rng.Intn(6) {
						case 0:
							v := []byte(fmt.Sprintf("v%d", i))
							if _, err := c.Insert([]byte(k), v); err != nil {
								errCh <- fmt.Errorf("w%d insert %q: %w", w, k, err)
								return
							}
							oracle[k] = v
						case 1:
							// Grow update: moves the leaf out of place,
							// staling every shared-cache entry for it.
							if _, err := c.Insert([]byte(k), big); err != nil {
								errCh <- fmt.Errorf("w%d grow %q: %w", w, k, err)
								return
							}
							oracle[k] = big
						case 2:
							if _, err := c.Delete([]byte(k)); err != nil {
								errCh <- fmt.Errorf("w%d delete %q: %w", w, k, err)
								return
							}
							delete(oracle, k)
						case 3, 4:
							got, ok, err := c.Search([]byte(k))
							if err != nil {
								errCh <- fmt.Errorf("w%d search %q: %w", w, k, err)
								return
							}
							want, wantOK := oracle[k]
							if ok != wantOK || (ok && !bytes.Equal(got, want)) {
								errCh <- fmt.Errorf("w%d: %q = %.20q,%v want %.20q,%v", w, k, got, ok, want, wantOK)
								return
							}
						default:
							pk := []byte(fmt.Sprintf("pinned-%03d", (w*67+i)%immutable))
							got, ok, err := c.Search(pk)
							if err != nil {
								errCh <- fmt.Errorf("w%d pinned %q: %w", w, pk, err)
								return
							}
							if !ok || !bytes.Equal(got, append([]byte("pin-"), pk...)) {
								errCh <- fmt.Errorf("w%d: pinned %q = %.20q,%v — stale or lost", w, pk, got, ok)
								return
							}
						}
						if n := c.eng.Holding(); n != 0 {
							errCh <- fmt.Errorf("w%d step %d: the engine's hand holds %d entries between operations", w, i, n)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			var agg Stats
			for _, c := range clients {
				agg = agg.Add(c.Stats())
			}
			if mode == "lac-on" {
				if agg.SpecHits == 0 {
					t.Error("churn never hit the shared leaf-address cache")
				}
				if agg.SpecRefutes == 0 {
					t.Error("churn never refuted a stale entry; the scenario exercises nothing")
				}
			} else if agg.SpecHits+agg.SpecMisses+agg.SpecRefutes+agg.SpecAborts != 0 {
				t.Errorf("disabled cache moved speculative counters: %+v", agg)
			}
		})
	}
}
