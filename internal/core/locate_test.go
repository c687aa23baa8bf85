package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"sphinx/internal/fabric"
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
// under, and the hash its node word is filed under, bit for bit, at every
// length of random keys 0–64 bytes long; and prefixHashes answers from it for
// a prefix of that key as it hashes any other.
func TestPrefixStatesMatchFilterHash(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	c := &Client{lac: NewLeafCache(64, 3)}
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.IntN(65))
		for j := range key {
			key[j] = byte(rng.Uint32())
		}
		sfc, node := c.prefixStates(key)
		if len(sfc) != len(key)+1 || len(node) != len(key)+1 {
			t.Fatalf("%d and %d states for a key of %d bytes", len(sfc), len(node), len(key))
		}
		for l := 0; l <= len(key); l++ {
			if got, want := wire.Mix64(sfc[l]), PrefixFilterHash(key[:l]); got != want {
				t.Fatalf("key %x prefix %d: state hashes to %#x, PrefixFilterHash %#x", key, l, got, want)
			}
			if got, want := wire.Mix64(node[l]), c.lac.NodeHash(key[:l]); got != want {
				t.Fatalf("key %x prefix %d: node state hashes to %#x, NodeHash %#x", key, l, got, want)
			}
			other := bytes.Clone(key[:l])
			f, n := c.prefixHashes(key[:l])
			fo, no := c.prefixHashes(other)
			if f != fo || n != no || f != PrefixFilterHash(other) || n != c.lac.NodeHash(other) {
				t.Fatalf("key %x prefix %d: prefixHashes %#x/%#x off the states, %#x/%#x off a copy", key, l, f, n, fo, no)
			}
		}
	}
}

// TestDescentLearnsFilterHashes: the hashes a descent and a put's
// publications insert into the filter and file node words under are taken off
// the operation's forward pass, and are PrefixFilterHash and NodeHash of every
// inner node's prefix on the key's path, bit for bit: the filter holds one
// entry per such prefix and nothing else, and each node word answers with its
// node.
func TestDescentLearnsFilterHashes(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 4096)
	writer := newTestClient(f, shared, Options{Filter: testFilter(1), LeafCache: testLAC(1)})
	keys := []string{"desc/a/1", "desc/a/2", "desc/b/1", "desc/b/22", "desc/b/23", "dx"}
	for _, k := range keys {
		if _, err := writer.Insert([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	reader := newTestClient(f, shared, Options{Filter: testFilter(2), LeafCache: testLAC(2)})
	for _, k := range keys {
		warmSearch(t, reader, []byte(k), []byte(k))
	}
	for name, c := range map[string]*Client{"writer": writer, "reader": reader} {
		// The path's inner nodes, as the table names them.
		inner := map[string]*rart.Node{}
		for _, k := range keys {
			for l := 1; l < len(k); l++ {
				n, err := c.fetchValidated([]byte(k[:l]))
				if err != nil {
					t.Fatal(err)
				}
				if n != nil {
					inner[k[:l]] = n
				}
			}
		}
		if len(inner) < 3 {
			t.Fatalf("%d inner nodes on the keys' paths; the test wants a deeper tree", len(inner))
		}
		for p, n := range inner {
			if !c.filter.Contains(PrefixFilterHash([]byte(p))) {
				t.Errorf("%s: inner node %q is not in the filter under PrefixFilterHash", name, p)
			}
			if addr, _, ok := c.lac.LookupNode(c.lac.NodeHash([]byte(p))); !ok || addr != n.Addr {
				t.Errorf("%s: the node word of %q = %v, %v; want %v", name, p, addr, ok, n.Addr)
			}
		}
		if occ, _ := c.filter.Occupancy(); occ != uint64(len(inner)) {
			t.Errorf("%s: the filter holds %d entries for %d inner-node prefixes", name, occ, len(inner))
		}
	}
}

// TestPrefixStatesFollowReusedKeyBuffer: a caller may rewrite one key buffer
// between operations. The states are matched to a key by its buffer, so
// every operation — a Get's begin, a Scan — drops the last one's: the hashes
// read off them are the rewritten key's.
func TestPrefixStatesFollowReusedKeyBuffer(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 4096)
	c := newTestClient(f, shared, Options{})
	for _, k := range []string{"reuse-a", "reuse-b"} {
		if _, err := c.Insert([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	buf := []byte("reuse-a")
	warmSearch(t, c, buf, []byte("reuse-a"))
	for _, step := range []struct {
		key string
		op  func() error
	}{
		{"reuse-b", func() error { _, _, err := c.Search(buf); return err }},
		{"reuse-a", func() error { _, err := c.Scan(buf, nil, 1); return err }},
	} {
		copy(buf, step.key)
		if err := step.op(); err != nil {
			t.Fatal(err)
		}
		if f, n := c.prefixHashes(buf); f != PrefixFilterHash([]byte(step.key)) || n != c.lac.NodeHash([]byte(step.key)) {
			t.Fatalf("after an operation on the buffer rewritten to %q, its hashes are another key's", step.key)
		}
	}
}
