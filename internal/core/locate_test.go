package core

import (
	"math/rand/v2"
	"testing"

	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// Tests of the filter-less locate (locateParallel, the noSFC ablation): it
// reads every prefix's bucket pair in one batch and then judges each
// prefix's candidates with the table path's own landing (land), so it differs
// from a locate through the filter in which prefixes it reads and nothing
// else: the same stale-entry removal, the same counters, and no lease bet.

// lateEntryCluster builds the type-switch scenario's cluster after its switch
// — the Node4 of "budget-" grown into a Node16 by the setup client's insert —
// and then inserts the Node4's own entry beside the grown copy's: the
// creator's table insert landing late, which the upsert swap admits
// (racehash.View.Replace). It returns a reader with no leaf-address cache —
// filter-less, or sharing the setup client's filter — the retired Node4, and
// the table's entries for the prefix.
func lateEntryCluster(t *testing.T, filter bool) (*Client, *rart.Node, func() []racehash.Candidate) {
	t.Helper()
	sc := typeSwitchScenario
	prefix := []byte("budget-")
	f, shared, setup := sc.build(t, 2)
	original := landingOf(t, setup, sc.setup[0], string(prefix))
	if _, err := setup.Insert([]byte(sc.key), []byte("v-"+sc.key)); err != nil {
		t.Fatal(err)
	}
	if grown := landingOf(t, setup, sc.setup[0], string(prefix)); grown.Addr == original.Addr {
		t.Fatal("the insert did not switch the node's type; the scenario exercises nothing")
	}
	view := setup.viewFor(prefix)
	h := racehash.PlacementHash(prefix)
	if err := view.Insert(h, entryOf(prefix, original), setup.eng.Alloc); err != nil {
		t.Fatal(err)
	}
	entries := func() []racehash.Candidate {
		t.Helper()
		cands, err := view.LookupAppend(nil, h, wire.FP12(prefix))
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	if n := len(entries()); n != 2 {
		t.Fatalf("the table holds %d entries for %q; want the grown copy's and the late one", n, prefix)
	}
	opts := Options{}
	if filter {
		opts = Options{Filter: setup.filter}
	}
	return NewClient(shared, f.NewClient(), opts), original, entries
}

// TestFilterlessLocateRemovesLateEntry: a reader whose jump meets the retired
// Node4's late entry beside the grown copy's lands on the copy and removes the
// stale entry on its first search, filter-less as through the filter; its
// later searches read one candidate.
func TestFilterlessLocateRemovesLateEntry(t *testing.T) {
	for _, filter := range []bool{false, true} {
		t.Run(map[bool]string{false: "filter-less", true: "through the filter"}[filter], func(t *testing.T) {
			reader, original, entries := lateEntryCluster(t, filter)
			for i := 0; i < 3; i++ {
				warmSearch(t, reader, []byte("budget-a"), []byte("v-budget-a"))
				st := reader.Stats()
				if landed := st.FilterHits + st.FilterFallbacks; st.StaleEntries != 1 || landed != uint64(i+1) || st.RootStarts != 0 {
					t.Fatalf("search %d: %d stale entries removed, %d table landings, %d root starts; want 1, %d, 0",
						i, st.StaleEntries, landed, st.RootStarts, i+1)
				}
				cands := entries()
				if len(cands) != 1 || cands[0].Entry.Addr == original.Addr {
					t.Fatalf("search %d: the table holds %v for the prefix; want the grown copy's entry alone", i, cands)
				}
			}
		})
	}
}

// TestFilterlessLocateCountsOneLocate: FilterHits + FilterFallbacks +
// RootStarts is the number of locates, so with no leaf-address cache and no
// restart it equals the number of searches — for a filter-less hit, which
// lands on a table node, and for a filter-less miss whose key no inner node
// prefixes, which starts at the root and counts there alone.
func TestFilterlessLocateCountsOneLocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  string
		hit  bool
	}{
		{"hit", "budget-a", true},
		{"miss", "zebra", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reader, _, _ := lateEntryCluster(t, false)
			if _, ok, err := reader.Search([]byte(tc.key)); err != nil || ok != tc.hit {
				t.Fatalf("Search(%q) = %v, %v; want found %v", tc.key, ok, err, tc.hit)
			}
			st := reader.Stats()
			if locates := st.FilterHits + st.FilterFallbacks + st.RootStarts; locates != st.Searches || st.Restarts != 0 {
				t.Errorf("%d filter hits + %d filter-less landings + %d root starts = %d locates for %d searches (%d restarts); want one each",
					st.FilterHits, st.FilterFallbacks, st.RootStarts, locates, st.Searches, st.Restarts)
			}
		})
	}
}

// TestFilterlessPutPostsNoLeaseBet: DESIGN.md §5.6 keeps the landing bet off
// the filter-less locate, so a filter-less put that links a fresh leaf at its
// landing posts no lease CAS ahead of the node read.
func TestFilterlessPutPostsNoLeaseBet(t *testing.T) {
	reader, _, _ := lateEntryCluster(t, false)
	bets := reader.eng.Stats().LeaseBets
	if _, err := reader.Insert([]byte("budget-~"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := reader.eng.Stats().LeaseBets; got != bets {
		t.Errorf("the filter-less put posted %d lease bets; want none", got-bets)
	}
	if reader.Stats().FilterFallbacks == 0 {
		t.Error("the put never landed through the filter-less locate")
	}
	warmSearch(t, reader, []byte("budget-~"), []byte("fresh"))
}

// TestPrefixStatesMatchFilterHash: the one forward pass locate and scanPath
// take their probes from gives every prefix the hash the filter holds it
// under, bit for bit, at every length of random keys 0–64 bytes long.
func TestPrefixStatesMatchFilterHash(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	c := &Client{}
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.IntN(65))
		for j := range key {
			key[j] = byte(rng.Uint32())
		}
		states := c.prefixStates(key)
		if len(states) != len(key)+1 {
			t.Fatalf("%d states for a key of %d bytes", len(states), len(key))
		}
		for l := 0; l <= len(key); l++ {
			if got, want := wire.Mix64(states[l]), PrefixFilterHash(key[:l]); got != want {
				t.Fatalf("key %x prefix %d: state hashes to %#x, PrefixFilterHash %#x", key, l, got, want)
			}
		}
	}
}
