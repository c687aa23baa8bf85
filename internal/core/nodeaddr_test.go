package core

import (
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/obs"
)

// Tests of the remembered landing (DESIGN.md §5.11, locate.go
// fetchRemembered): an inner node's address in the leaf-address cache is a
// hint, verified by the image read there, and a peer that moves or retires the
// node costs the holder one refuted read — never a wrong answer, a backoff or
// a write into a node the tree no longer reaches. The crash points and batch
// boundaries of a type switch are swept in writepath_test.go
// (TestFusedWriteCrashSweep, TestTypeSwitchNoFalseAbsenceBetweenBatches), the
// lease bet at a remembered address in leasebet_test.go.

// typeSwitchScenario is the full Node4 under "budget-" and the key whose put
// grows it.
var typeSwitchScenario = writeScenarios[5]

// TestNodeAddressRefutedByPeerTypeSwitch: the holder remembers the Node4; a
// peer's insert replaces it with a Node16 at another address and retires it.
// The holder's next operation reads the retired image at the remembered
// address, unlearns exactly that word, asks the table and goes on from the
// grown copy: the right answer, one round trip more than a first touch, no
// restart and no wait; and it remembers the copy from then on.
func TestNodeAddressRefutedByPeerTypeSwitch(t *testing.T) {
	sc := typeSwitchScenario
	ops := []struct {
		name   string
		op     func(c *Client) error
		stages string // the holder's batches: the refuted read, then a first touch
	}{
		{"get", func(c *Client) error {
			v, ok, err := c.Search([]byte(sc.key))
			if err == nil && (!ok || string(v) != "peer") {
				err = fmt.Errorf("the peer's acknowledged key reads %q, %v", v, ok)
			}
			return err
		}, "[node-read hash-read node-read leaf-read]"},
		{"put", func(c *Client) error { _, err := c.Insert([]byte("budget-~"), []byte("holder")); return err },
			"[lock hash-read lock install]"},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			f, shared, setup := sc.build(t, 2)
			holder := NewClient(shared, f.NewClient(), Options{Filter: setup.filter, LeafCache: testLAC(0)})
			warmSlabs(t, holder)
			original := landingOf(t, holder, sc.setup[0], "budget-")
			peer := newTestClient(f, shared, Options{})
			if _, err := peer.Insert([]byte(sc.key), []byte("peer")); err != nil {
				t.Fatal(err)
			}
			if grown := landingOf(t, peer, sc.setup[0], "budget-"); grown.Addr == original.Addr {
				t.Fatal("the peer's insert did not switch the node's type; the scenario exercises nothing")
			}

			rec := obs.NewRecorder()
			rec.Begin(tc.name, holder.eng.C.Clock())
			holder.SetRecorder(rec)
			var log batchLog
			holder.eng.C.SetObserver(obs.Tee{A: &log, B: rec})
			st0, eng0 := holder.Stats(), holder.eng.Stats()
			if err := tc.op(holder); err != nil {
				t.Fatal(err)
			}
			holder.eng.C.SetObserver(nil)
			holder.SetRecorder(nil)

			var stages []string
			for _, ev := range log.evs {
				stages = append(stages, ev.Stage.String())
			}
			if fmt.Sprint(stages) != tc.stages {
				t.Errorf("batches %v, want %s: the refuted read and then a first touch", stages, tc.stages)
			}
			for i, w := range log.waits() {
				if w != 0 {
					t.Errorf("%d ps passed between batches %d and %d: a refuted address is a routing decision, not a wait", w, i, i+1)
				}
			}
			st := holder.Stats()
			if st.NodeRefutes != st0.NodeRefutes+1 || st.NodeHits != st0.NodeHits || st.NodeAborts != 0 || st.Restarts != 0 {
				t.Errorf("node address refutes %d→%d, hits %d→%d, leased %d, restarts %d; want one refutation and nothing else",
					st0.NodeRefutes, st.NodeRefutes, st0.NodeHits, st.NodeHits, st.NodeAborts, st.Restarts)
			}
			if !strings.Contains(rec.Trace().Format(), nodeRetiredNote) {
				t.Errorf("trace lacks the note %q:\n%s", nodeRetiredNote, rec.Trace().Format())
			}
			// A put's bet at the retired node lost to the lease its retirement
			// left behind; nothing was won there, nothing is given back.
			if es := holder.eng.Stats(); es.LeaseBetsReturned != eng0.LeaseBetsReturned || es.LockSteals != 0 {
				t.Errorf("%d bets returned, %d leases stolen; want 0, 0", es.LeaseBetsReturned-eng0.LeaseBetsReturned, es.LockSteals)
			}
			addr, typ, ok := holder.lac.LookupNode(holder.lac.NodeHash([]byte("budget-")))
			if !ok || addr == original.Addr || typ != original.Hdr.Type.Grow() {
				t.Errorf("the holder remembers %v (%v), %v; want the grown copy, not the original %v", addr, typ, ok, original.Addr)
			}
			// And the next one is a remembered landing again.
			rts := holder.eng.C.RoundTrips()
			warmSearch(t, holder, []byte(sc.setup[1]), []byte("v-"+sc.setup[1]))
			if got := holder.eng.C.RoundTrips() - rts; got != 2 || holder.Stats().NodeHits != st.NodeHits+1 {
				t.Errorf("the Get behind the relearn took %d round trips with %d node hits; want 2, 1", got, holder.Stats().NodeHits-st.NodeHits)
			}
			sc.checkReadable(t, f, shared, tc.name)
		})
	}
}

// TestNodeAddressSurvivesDrainAndKill: a client that remembers where the inner
// nodes lived keeps reading through an add-node and a drain-node transition
// whose migrator relocates them (every relocation a refuted address, no
// fallback to the previous epoch's table), and through the death of the
// drained node with addresses on it still remembered: a lost memory node
// refutes the address like a retired image does, and the table — which lives
// where the prefix lives now — answers. No fault-tolerance layer here, so a
// read that insisted on the dead address would fail outright.
func TestNodeAddressSurvivesDrainAndKill(t *testing.T) {
	const keys = 300
	f, shared := newCluster(t, 3, fabric.InstantConfig(), keys)
	c := newTestClient(f, shared, Options{})
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("elastic-key-%05d", i))
		if _, err := c.Insert(key, []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two holders learn every node's address from one pass of reads, with no
	// leaf addresses to answer in their place afterwards.
	holders := [2]*Client{}
	for i := range holders {
		holders[i] = newTestClient(f, shared, Options{})
		verifyAll(t, holders[i], keys, "teaching pass")
		holders[i].lac.forgetLeaves()
	}
	migrator := newTestClient(f, shared, Options{})

	id := f.AddNode(64 << 20)
	if _, err := BeginAddNode(f, shared, id, keys); err != nil {
		t.Fatal(err)
	}
	sweepToCutover(t, migrator)
	verifyAll(t, holders[0], keys, "after the add")
	st := holders[0].Stats()
	if st.NodeRefutes == 0 || st.EpochFallbacks != 0 || st.Restarts != 0 {
		t.Errorf("after the add: %d refuted addresses, %d epoch fallbacks, %d restarts; want some, 0, 0", st.NodeRefutes, st.EpochFallbacks, st.Restarts)
	}
	holders[0].lac.forgetLeaves()

	victim := shared.Root.Node()
	for _, n := range shared.Members.Current().Ring.Nodes() {
		if n != shared.Root.Node() && n != id {
			victim = n
		}
	}
	if _, err := BeginDrainNode(shared, victim); err != nil {
		t.Fatal(err)
	}
	sweepToCutover(t, migrator)
	f.KillNode(victim)
	// holders[0] re-learned after the add, holders[1] still remembers the
	// first placement: both hold addresses on the dead node.
	for i, h := range holders {
		what := fmt.Sprintf("holder %d, drained node killed", i)
		st0, clock0 := h.Stats(), h.eng.C.Clock()
		verifyAll(t, h, keys, what)
		st := h.Stats()
		if st.NodeRefutes == st0.NodeRefutes || st.Restarts != st0.Restarts || h.eng.C.Clock() != clock0 {
			t.Errorf("%s: %d refuted addresses, %d restarts, %d ps of backoff; want some, 0, 0", what,
				st.NodeRefutes-st0.NodeRefutes, st.Restarts-st0.Restarts, h.eng.C.Clock()-clock0)
		}
	}
}

// forgetLeaves empties every leaf word, so that reads go by the node words.
func (lc *LeafCache) forgetLeaves() {
	for i, w := range lc.words {
		if w != 0 && !isNodeWord(w) {
			lc.words[i] = 0
		}
	}
}

// TestNodeAddressOnKilledNodeFailsOver: with the fault-tolerance layer, the
// first operation to meet a killed memory node — before any breaker knows —
// must fail over to the anchors in one decision. A remembered address on the
// dead node is refuted, the table gives today's verdict, and the operation
// costs the holder no backoff and no restart, exactly as it costs its twin
// that remembers nothing.
func TestNodeAddressOnKilledNodeFailsOver(t *testing.T) {
	for _, remembers := range []bool{false, true} {
		t.Run(fmt.Sprintf("remembers %v", remembers), func(t *testing.T) {
			f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
			c := newTestClient(f, shared, Options{})
			keys := testKeys(64)
			for _, k := range keys {
				if _, err := c.Insert(k, append([]byte("val-"), k...)); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{Filter: c.filter}
			if remembers {
				opts.LeafCache = testLAC(0)
			}
			reader := NewClient(shared, f.NewClient(), opts)
			key := keys[7]
			landing, l, err := reader.locate(key, len(key))
			if err != nil || l == 0 {
				t.Fatalf("locating %q: prefix %d, %v", key, l, err)
			}
			f.KillNode(landing.Addr.Node())

			v, ok, err := reader.Search(key)
			if err != nil || !ok || string(v) != "val-"+string(key) {
				t.Fatalf("Search after the kill = %q, %v, %v", v, ok, err)
			}
			st := reader.Stats()
			if st.Failovers != 1 || st.Restarts != 0 || reader.eng.C.Clock() != 0 {
				t.Errorf("%d failovers, %d restarts, %d ps of backoff; want 1, 0, 0", st.Failovers, st.Restarts, reader.eng.C.Clock())
			}
			if !remembers {
				return
			}
			if st.NodeRefutes != 1 || st.NodeHits != 0 {
				t.Errorf("%d refuted addresses, %d hits; want 1, 0", st.NodeRefutes, st.NodeHits)
			}
			if addr, _, known := reader.lac.LookupNode(reader.lac.NodeHash(key[:l])); known {
				t.Errorf("the address %v on the dead node is still remembered", addr)
			}
		})
	}
}

// TestNodeWordLandsWhereFilterDropped: the filter has evicted the prefix of a
// node the client's leaf-address cache still remembers. A Get — an operation
// that does not insert — lands on the remembered node word anyway, deepest
// prefix first: node-read, leaf-read, no table read, a landing counted as
// unclaimed. An inserting put under the same prefix keeps the filter's order
// and does not: it lands on the shorter prefix the filter still claims. Fails
// with the node word asked only behind a filter claim.
func TestNodeWordLandsWhereFilterDropped(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 4096)
	keys := []string{"drop/a1", "drop/a2", "drop/b1", "drop/b2"}
	c := newTestClient(f, shared, Options{})
	for _, k := range keys {
		if _, err := c.Insert([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		warmSearch(t, c, []byte(k), []byte("v-"+k))
	}
	for _, p := range []string{"drop/", "drop/a"} {
		if n, err := c.fetchValidated([]byte(p)); err != nil || n == nil {
			t.Fatalf("no inner node at %q (%v): the scenario exercises nothing", p, err)
		}
	}
	c.filter.Delete(PrefixFilterHash([]byte("drop/a")))
	c.lac.Unlearn([]byte("drop/a1"))

	var log batchLog
	c.eng.C.SetObserver(&log)
	st0, hs0 := c.Stats(), c.HashStats()
	warmSearch(t, c, []byte("drop/a1"), []byte("v-drop/a1"))
	c.eng.C.SetObserver(nil)
	var stages []string
	for _, ev := range log.evs {
		stages = append(stages, ev.Stage.String())
	}
	st := c.Stats()
	if fmt.Sprint(stages) != "[node-read leaf-read]" || st.NodeHits != st0.NodeHits+1 ||
		st.UnclaimedLandings != st0.UnclaimedLandings+1 || c.HashStats().Lookups != hs0.Lookups {
		t.Errorf("Get under a dropped prefix: batches %v, node hits +%d, unclaimed +%d, table lookups +%d; want [node-read leaf-read], 1, 1, 0",
			stages, st.NodeHits-st0.NodeHits, st.UnclaimedLandings-st0.UnclaimedLandings, c.HashStats().Lookups-hs0.Lookups)
	}
	// The descent from the landing learned its prefix back into the filter
	// (hooks.SawNode); drop it again for the put.
	if !c.filter.Contains(PrefixFilterHash([]byte("drop/a"))) {
		t.Error("the descent from an unclaimed landing did not learn its prefix back into the filter")
	}
	c.filter.Delete(PrefixFilterHash([]byte("drop/a")))
	st0 = c.Stats()
	if _, err := c.Insert([]byte("drop/a3"), []byte("v-drop/a3")); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.UnclaimedLandings != st0.UnclaimedLandings || st.FilterHits != st0.FilterHits+1 {
		t.Errorf("an inserting put under the dropped prefix: unclaimed landings +%d, filter hits +%d; want 0, 1 (the claimed \"drop/\")",
			st.UnclaimedLandings-st0.UnclaimedLandings, st.FilterHits-st0.FilterHits)
	}
	warmSearch(t, c, []byte("drop/a3"), []byte("v-drop/a3"))
}
