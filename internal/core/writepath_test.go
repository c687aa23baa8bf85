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

// Tests of the fused write protocols (DESIGN.md §5.6): exact round-trip and
// verb budgets with the inner-node hash table in the loop, crash and fault
// safety of the batches that write objects ahead of their lock, and the
// accounting of what that speculation abandons.

// writeScenario is one structural write path: the keys that build the tree
// it needs, and the key whose put takes the path.
type writeScenario struct {
	name  string
	setup []string
	key   string
	// Budget of an uncontended put behind its reads (hash, node and leaf
	// reads excluded; the jump's landing batch, which carries the lease CAS,
	// is a lock batch and counts): round trips, verbs, and batch stages in
	// order.
	rts, verbs int
	stages     []string
	// total is every round trip of the put, reads included, when the client
	// touches the landing's prefix for the first time and asks the table;
	// remembered when the leaf-address cache holds the landing's address
	// (the same verbs minus the bucket-pair READ of the lookup); bare the
	// round trips behind the descent of the same put on a tree without the
	// hash table, which takes no bet (rart.TestWriteBudgets).
	total, remembered, bare int
}

var longShared = string(bytes.Repeat([]byte("p"), 2*wire.MaxPartial+5))

// writeScenarios lists every structural write. The verb counts are those
// of the one-batch-per-verb-group protocol this design replaced, minus one
// per fresh entry: fusion regroups verbs into dependency levels, it adds none
// — the hash-table verbs ride the lock batch and the commit batch, and the
// lease CAS + READ of a jump's landing are the verbs the bare tree's lock
// batch carries, posted one level earlier in place of the unlocked node read
// — and a fresh entry's CAS goes blind, the bucket pair READ behind it in
// place of the READ ahead of it and the header re-read. So a jump-started
// write is hash-read, landing, then the bare tree's batches without their
// lock verbs: the plain insert's whole lock level is gone (3 round trips in
// all), and so is a conversion's, whose staged objects lead its commit batch
// (4). And a landing at a remembered address drops the hash read: lock‖read,
// commit — 2 round trips for the plain insert, 3 for the conversion. A type
// switch's swap reads its bucket pair in the batch of the re-routed landing,
// a descent batch (the root's READ here), so its lock batch carries 2 verbs
// fewer than the bare tree's plus the swap's.
var writeScenarios = []writeScenario{
	// hash | CAS,READ landing | W leaf + W slot + CAS unlock
	{"fresh insert", []string{"budget-a", "budget-b"}, "budget-c", 2, 5, []string{"lock", "install"}, 3, 2, 2},
	{"EOL insert", []string{"budget-a", "budget-b"}, "budget-", 2, 5, []string{"lock", "install"}, 3, 2, 2},
	// hash | CAS,READ landing | leaf | W leaf + W node + W slot + CAS entry + 2 READ bucket + CAS unlock
	{"leaf conversion, chain 1", []string{"budget-a", "budget-b"}, "budget-ax", 2, 9, []string{"lock", "publish"}, 4, 3, 2},
	// chain of 3 from the root (no jump, no bet): root | leaf | W leaf + 3 W node + CAS,READ lock |
	// W slot + 3×(CAS entry + 2 READ bucket) + CAS unlock
	{"leaf conversion, chain 3", []string{"budget-a", "budget-b", longShared + "A"}, longShared + "B", 2, 17, []string{"lock", "publish"}, 4, 4, 2},
	// No jump (the filter knows no prefix of the key), so no bet:
	// root | node | W leaf + W mid + 2×(CAS,READ) lock | W child head + W parent slot + CAS entry + 2 READ bucket + CAS unlock
	{"partial split", []string{"budget-a", "budget-b"}, "bud!", 2, 12, []string{"lock", "publish"}, 4, 4, 2},
	// hash | CAS,READ landing: full, need parent, lease kept | root + 2 READ bucket | W leaf + W grown + CAS,READ parent | W parent slot + CAS entry + READ header + W invalidate + CAS unlock
	{"type switch", []string{"budget-a", "budget-b", "budget-c", "budget-d"}, "budget-e", 3, 11, []string{"lock", "lock", "publish"}, 5, 4, 2},
}

// peerKeys names, per scenario, a key another client can put without any lock
// the scenario's write holds: into the inner node the write creates, or, for a
// split, into the child whose lease its head WRITE gives back.
var peerKeys = map[string]string{
	"leaf conversion, chain 1": "budget-ay",
	"leaf conversion, chain 3": longShared + "C",
	"partial split":            "budget-",
	"type switch":              "budget-f",
}

// outOfPlaceUpdate is the one structural write that links no new key: the put
// of a key the setup holds, with a value that outgrows its leaf (value). The
// slot swings to a fresh leaf and the old one is retired in the commit batch.
var outOfPlaceUpdate = writeScenario{name: "out-of-place update", setup: []string{"budget-a", "budget-b"}, key: "budget-a"}

// value is what the scenario's put stores under tag: for a key the setup
// already holds, bytes enough to outgrow its leaf.
func (sc writeScenario) value(tag string) []byte {
	for _, k := range sc.setup {
		if k == sc.key {
			return append([]byte(tag), bytes.Repeat([]byte("G"), 700)...)
		}
	}
	return []byte(tag)
}

// build creates a cluster holding the scenario's setup keys, inserted by a
// client of its own (fabric client 0).
func (sc writeScenario) build(t *testing.T, mns int) (*fabric.Fabric, Shared, *Client) {
	t.Helper()
	f, shared := newCluster(t, mns, fabric.DefaultConfig(), 1000)
	setup := newTestClient(f, shared, Options{})
	for _, k := range sc.setup {
		if _, err := setup.Insert([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("setup %q: %v", k, err)
		}
	}
	return f, shared, setup
}

// batchLog records every doorbell batch a client posts.
type batchLog struct{ evs []fabric.BatchEvent }

func (b *batchLog) ObserveBatch(ev fabric.BatchEvent) { b.evs = append(b.evs, ev) }

func isDescent(s fabric.Stage) bool {
	return s == fabric.StageHashRead || s == fabric.StageNodeRead || s == fabric.StageLeafRead
}

// writeCost sums the batches that follow an operation's descent.
func (b *batchLog) writeCost() (rts, verbs int, stages []string) {
	for _, ev := range b.evs {
		if !isDescent(ev.Stage) {
			rts += int(ev.RoundTrips)
			verbs += ev.Verbs
			stages = append(stages, ev.Stage.String())
		}
	}
	return rts, verbs, stages
}

// bareTreeCost measures the scenario's put on a tree with no side structure:
// the same engine, rart.NopHooks, every put from the root.
func (sc writeScenario) bareTreeCost(t *testing.T) (rts, verbs int) {
	t.Helper()
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 1000)
	fscktest.Accept(f, rart.NoEntry) // the bare tree's puts publish no entries
	c := newTestClient(f, shared, Options{})
	var log batchLog
	for _, k := range append(append([]string(nil), sc.setup...), sc.key) {
		root, err := c.readRoot()
		if err != nil {
			t.Fatal(err)
		}
		if k == sc.key {
			c.eng.C.SetObserver(&log)
		}
		if _, err := c.eng.PutFrom(root, []byte(k), []byte("v"), rart.PutUpsert, rart.NopHooks{}); err != nil {
			t.Fatalf("bare-tree put %q: %v", k, err)
		}
	}
	rts, verbs, _ = log.writeCost()
	return rts, verbs
}

// TestWriteBudgetsWithINHT pins the cost of every structural write at the
// core level — the jump's landing bet and the hash-table publication included
// — in round trips and verbs, batch by batch, in two columns: the first touch
// of the landing's prefix, which asks the table, and the landing at a
// remembered address, which is the same put minus the hash read; that the bare
// tree's twin of the put still costs what rart.TestWriteBudgets says; that
// every entry landed in the commit batch it rode; and that an uncontended
// write abandons nothing, gives back no lease in a round trip of its own and
// leaves none held.
func TestWriteBudgetsWithINHT(t *testing.T) {
	for _, sc := range writeScenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Run("first touch", func(t *testing.T) { sc.budgetWithINHT(t, false, sc.total) })
			t.Run("remembered landing", func(t *testing.T) { sc.budgetWithINHT(t, true, sc.remembered) })
		})
	}
}

func (sc writeScenario) budgetWithINHT(t *testing.T, remembered bool, total int) {
	// One memory node: every slab the put needs was reserved by the
	// setup puts, so no allocator round trip blurs the count. The
	// setup puts also taught the client where its nodes live.
	_, _, c := sc.build(t, 1)
	if !remembered {
		c.lac.Reset()
	}
	hs0 := c.HashStats()
	bets, st0 := c.eng.Stats(), c.Stats()
	var log batchLog
	c.eng.C.SetObserver(&log)
	if _, err := c.Insert([]byte(sc.key), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.eng.C.SetObserver(nil)
	rts, verbs, stages := log.writeCost()
	if rts != sc.rts || verbs != sc.verbs || fmt.Sprint(stages) != fmt.Sprint(sc.stages) {
		t.Errorf("cost behind the reads = %d RT, %d verbs, batches %v; want %d RT, %d verbs, batches %v",
			rts, verbs, stages, sc.rts, sc.verbs, sc.stages)
	}
	if len(log.evs) != total {
		t.Errorf("the put took %d round trips in all, want %d: %+v", len(log.evs), total, log.evs)
	}
	bareRTs, bareVerbs := sc.bareTreeCost(t)
	if bareRTs != sc.bare {
		t.Errorf("cost behind the descent on the bare tree = %d RT, want %d", bareRTs, sc.bare)
	}
	// A put that jumps bets once, on its landing; an uncontended bet is
	// never lost, and the lease it wins becomes a lock of the write. A
	// remembered landing is a jump with no hash read ahead of it.
	wantBets, wantHits := uint64(0), uint64(0)
	if sc.total != sc.remembered {
		wantBets = 1
		if remembered {
			wantHits = 1
		}
	}
	if (log.evs[0].Stage == fabric.StageHashRead) != (wantBets == 1 && !remembered) {
		t.Errorf("first batch %v: a first touch that jumps, and nothing else, reads the table", log.evs[0].Stage)
	}
	if st := c.eng.Stats(); st.LeaseBets-bets.LeaseBets != wantBets || st.LeaseBetsLost != bets.LeaseBetsLost || st.LeaseBetsReturned != bets.LeaseBetsReturned {
		t.Errorf("lease bets %d, lost %d, returned %d; want %d, 0, 0", st.LeaseBets-bets.LeaseBets,
			st.LeaseBetsLost-bets.LeaseBetsLost, st.LeaseBetsReturned-bets.LeaseBetsReturned, wantBets)
	}
	if st := c.Stats(); st.NodeHits-st0.NodeHits != wantHits || st.NodeRefutes != 0 || st.NodeAborts != 0 {
		t.Errorf("node address hits %d, refutes %d, aborts %d; want %d, 0, 0", st.NodeHits-st0.NodeHits, st.NodeRefutes, st.NodeAborts, wantHits)
	}
	// What the table adds to the bare tree's verbs is three per fresh entry —
	// the blind CAS and the bucket pair READ behind it, all in the commit
	// batch — and four per swap: the bucket pair in the lock batch, or in the
	// re-routed landing's READ ahead of it, the CAS and the header re-read in
	// the commit batch. Every entry landed there.
	hs := c.HashStats()
	blind, swaps := hs.BlindInserts-hs0.BlindInserts, hs.PlannedSwaps-hs0.PlannedSwaps
	ahead := c.Stats().AheadSwaps - st0.AheadSwaps
	if verbs+2*int(ahead) != bareVerbs+3*int(blind)+4*int(swaps) || ahead != swaps || hs.PlannedLost != 0 || hs.BlindLost != 0 {
		t.Errorf("%d verbs against the bare tree's %d with %d blind entries and %d swaps (%d read ahead) in the commit batch, %d + %d of them lost; want 3 verbs per blind entry, 4 per swap, 2 of them ahead, none lost",
			verbs, bareVerbs, blind, swaps, ahead, hs.BlindLost, hs.PlannedLost)
	}
	if st := c.eng.Stats(); st.AbandonedObjects != 0 || st.PublishRetries != 0 {
		t.Errorf("uncontended put: %d abandoned objects, %d publish retries", st.AbandonedObjects, st.PublishRetries)
	}
	if c.Stats().Restarts != 0 {
		t.Errorf("uncontended put restarted %d times", c.Stats().Restarts)
	}
	for _, k := range append(sc.setup, sc.key) {
		if _, ok, err := c.Search([]byte(k)); err != nil || !ok {
			t.Errorf("%q unreadable after the put: %v", k, err)
		}
	}
}

// TestOneDriverLoadAbandonsNothing: without write contention or faults the
// write-ahead never loses its bet — the speculative-waste counters read 0
// over a load that takes every write path many times, every swap lands in the
// commit batch it was planned into, and a fresh entry's blind CAS misses its
// guessed slot about as rarely as the table is full there.
func TestOneDriverLoadAbandonsNothing(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 20000)
	c := newTestClient(f, shared, Options{})
	for i := 0; i < 6000; i++ {
		k := []byte(fmt.Sprintf("user%d@host%d.example", i*7919%6000, i%37))
		if _, err := c.Insert(k, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	st := c.eng.Stats()
	if st.AbandonedObjects != 0 || st.AbandonedBytes != 0 {
		t.Errorf("one-driver load abandoned %d objects (%d bytes), want 0", st.AbandonedObjects, st.AbandonedBytes)
	}
	if c.Stats().ParentRetries == 0 {
		t.Error("load never re-routed a type switch through the parent; the scenario misses that path")
	}
	hs := c.HashStats()
	if hs.PlannedSwaps == 0 || hs.PlannedLost != 0 {
		t.Errorf("%d entries planned into commit batches, %d of them fell to the table loop; want some, 0", hs.PlannedSwaps, hs.PlannedLost)
	}
	// A blind entry CAS loses only where its guessed slot is taken — about as
	// often as its bucket pair is full, a few percent in this table (600
	// entries, 19 losses); several times that means the guess is not uniform.
	if hs.BlindInserts == 0 || hs.BlindLost*10 > hs.BlindInserts {
		t.Errorf("%d fresh entries went blind, %d of them lost their guessed slot; want some, at most a tenth", hs.BlindInserts, hs.BlindLost)
	}
}

// emptyHand asserts that c, between its operations, holds nothing in its
// engine's hand: no lease a bet won outlives the operation it was won for.
func emptyHand(t *testing.T, c *Client, what string) {
	t.Helper()
	if n := c.eng.Holding(); n != 0 {
		t.Errorf("%s: the client's hand holds %d entries between operations", what, n)
	}
}

// commitShape locates the commit batch of a clean put — the slot WRITE
// first, the hash-table verbs behind it, the unlock last — in the sequence
// of verbs and batches its client posts.
type commitShape struct {
	verbs uint64 // of the whole put
	batch int    // index of the commit batch among the put's batches
	first uint64 // verbs posted before it: its first verb is verb first+1
	n     int    // its verbs
	// bet is the verbs posted before the landing batch of a put that jumps —
	// the lease CAS is verb bet+1, the READ behind it bet+2 — or -1.
	bet int64
}

// victim mounts the client whose put a test watches, cuts or kills — fabric
// client 1 of the scenario's cluster. Warm, it shares the setup client's filter
// cache, as the workers of one compute node do, so its put jumps through the
// hash table and bets on its landing's lease; cold, it walks from the root
// and locks what it writes in the lock batch.
func (sc writeScenario) victim(t *testing.T, f *fabric.Fabric, shared Shared, setup *Client, warm bool) *Client {
	t.Helper()
	var opts Options
	if warm {
		opts.Filter = setup.filter
	}
	return NewClient(shared, f.NewClient(), withCaches(shared, opts, 0))
}

// calibrate runs the scenario's put cleanly, by the victim of a cluster of its
// own, and reports where its commit batch sits: the first install, publish or
// leaf-write batch of two or more verbs.
func (sc writeScenario) calibrate(t *testing.T, warm bool) commitShape {
	t.Helper()
	f, shared, setup := sc.build(t, 2)
	var log batchLog
	victim := sc.victim(t, f, shared, setup, warm)
	victim.eng.C.SetObserver(&log)
	if _, err := victim.Insert([]byte(sc.key), sc.value("victim")); err != nil {
		t.Fatalf("clean put: %v", err)
	}
	shape := commitShape{verbs: victim.eng.C.Stats().Verbs, batch: -1, bet: -1}
	for i, ev := range log.evs {
		if (ev.Stage == fabric.StageInstall || ev.Stage == fabric.StagePublish || ev.Stage == fabric.StageLeafWrite) && ev.Verbs >= 2 {
			shape.batch, shape.n = i, ev.Verbs
			return shape
		}
		if shape.bet < 0 && ev.Stage == fabric.StageLock && i > 0 && log.evs[i-1].Stage == fabric.StageHashRead {
			shape.bet = int64(shape.first)
		}
		shape.first += uint64(ev.Verbs)
	}
	t.Fatalf("calibration found no commit batch: %+v", log.evs)
	return shape
}

// checkReadable asserts every setup key of the scenario reads back through
// the filter-guided path and through the filter-less one, which looks up
// every prefix of the key in the hash table.
func (sc writeScenario) checkReadable(t *testing.T, f *fabric.Fabric, shared Shared, what string) {
	t.Helper()
	for _, opts := range []Options{withCaches(shared, Options{}, 0), {}} {
		c := NewClient(shared, f.NewClient(), opts)
		for _, k := range sc.setup {
			if k == sc.key {
				continue // the put's own key: the caller checks it
			}
			v, ok, err := c.Search([]byte(k))
			if err != nil || !ok || string(v) != "v-"+k {
				t.Fatalf("%s: acked key %q = %q, %v, %v (filter off: %v)", what, k, v, ok, err, opts.Filter == nil)
			}
		}
	}
}

// TestFusedWriteCrashSweep kills a client after every verb of every
// structural write — the fused lock batch with its write-ahead objects, the
// commit batches with the hash-table verbs they carry — and requires of a
// survivor that it reads every previously acknowledged key, that no
// hash-table entry names a never-reachable node and no prefix has two, and
// that it can insert the victim's key and read it back. The sweep calibrates
// itself, per verb, on a clean run of each path.
//
// The two-node protocols have a window the lease steal cannot repair, right
// after their commit point, where only publish-to-completion by the (now
// dead) writer would have finished the structure (docs/failure-model.md §4);
// the sweep pins what still holds there (and, for a put that jumps, the
// point before any of it: the victim dead with nothing but its landing bet):
//
//   - a compressed-path split killed between the child's head write and the
//     parent repoint — the first two verbs of one batch, told by which of
//     the victim's verbs executed — leaves a child whose partial is shorter
//     than its parent slot implies. Readers stay correct (the prefix-hash
//     check); a later split at that node restarts until its budget runs out,
//     so the survivor's insert is not required to succeed;
//   - a type switch killed between the parent-slot WRITE and the entry-swap
//     CAS behind it — two verbs of one batch — leaves the table naming the
//     retired, still valid original. Everything acknowledged is in both
//     copies and the survivor's insert succeeds; only a jump-started read of
//     a key the original lacks misses it, so the victim's key is read back
//     through the root path. From the CAS on the entry names the grown copy
//     and the jump-started survivor reads the key itself.
//
// A third client, the holder, remembers since before the victim's put where
// the node under "budget-" lived. At every crash point it reads every
// acknowledged key and inserts a key of its own, which a reader walking from
// the root must find: the insert never lands in a node the tree no longer
// reaches. From the entry swap to the invalidation that never came, a type
// switch's original is such a node — valid, named by nothing but the holder's
// cache — and it is the dead victim's lease on it that keeps the holder out
// (fetchRemembered: a leased image asks the table). Where the table itself
// still names the original, the one crash point above, no jump is safe, with
// or without a remembered address, and the holder's insert is left out.
func TestFusedWriteCrashSweep(t *testing.T) {
	for _, sc := range writeScenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Run("from the root", func(t *testing.T) { sc.crashSweep(t, false) })
			t.Run("jumping", func(t *testing.T) { sc.crashSweep(t, true) })
		})
	}
}

func (sc writeScenario) crashSweep(t *testing.T, warm bool) {
	shape := sc.calibrate(t, warm)
	if warm && shape.bet < 0 {
		t.Skip("the filter knows no prefix of the key: the put walks from the root either way")
	}
	crashed := 0
	for n := uint64(1); n <= shape.verbs; n++ {
		what := fmt.Sprintf("crash after verb %d/%d", n, shape.verbs)
		f, shared, setup := sc.build(t, 2)
		// docs/failure-model.md §4: a crash past the commit point is not
		// repaired — leases stay, entries go missing, windows (a) and (b).
		crashLeftovers := []rart.Kind{rart.CrashedLock, rart.NoEntry, rart.ShortPartial, rart.OrphanOriginal}
		fscktest.Accept(f, crashLeftovers...)
		victim := sc.victim(t, f, shared, setup, warm)
		victim.eng.C.FailAt(n, fabric.ErrClientCrashed)
		holder := NewClient(shared, f.NewClient(), Options{Filter: setup.filter, LeafCache: testLAC(0)})
		original := landingOf(t, holder, "budget-a", "budget-") // and the holder remembers it
		// Window (a) of a split: its head WRITE — the one WRITE of a node's
		// head, SlotBase bytes — executed, the parent slot's WRITE behind it not.
		head, link := false, false
		f.Trace = func(c *fabric.Client, op *fabric.Op) {
			if c == victim.eng.C && op.Kind == fabric.Write {
				head, link = head || len(op.Data) == wire.SlotBase, link || head && len(op.Data) == 8
			}
		}
		_, err := victim.Insert([]byte(sc.key), []byte("victim"))
		f.Trace = nil
		if err != nil {
			if !errors.Is(err, fabric.ErrClientCrashed) {
				t.Fatalf("%s: victim put = %v", what, err)
			}
			crashed++
		}
		sc.checkReadable(t, f, shared, what)
		// Holding only the bet: the victim died with the landing's lease and
		// nothing else — the CAS executed, at most the READ behind it. Nothing
		// of its put is reachable, and a survivor that jumps too loses its own
		// bet on that node, watches the lease out and steals it.
		onlyBet := shape.bet >= 0 && (n == uint64(shape.bet)+1 || n == uint64(shape.bet)+2)
		// No leaf-address cache: the survivor reads its put back through
		// the filter-guided jump, not at the address the put learned.
		opts := Options{Filter: testFilter(0)}
		if onlyBet {
			opts.Filter = setup.filter
		}
		fscktest.Now(t, f, what, crashLeftovers...)
		survivor := NewClient(shared, f.NewClient(), opts)
		if onlyBet {
			if _, ok, err := survivor.Search([]byte(sc.key)); err != nil || ok {
				t.Fatalf("%s: victim's key reads %v, %v while the victim held only its bet", what, ok, err)
			}
		}
		if head && !link {
			fscktest.Done(t, f)
			continue // head written, parent not repointed
		}
		if _, err := survivor.Insert([]byte(sc.key), []byte("survivor")); err != nil {
			t.Fatalf("%s: survivor put of the victim's key: %v", what, err)
		}
		if st := survivor.eng.Stats(); onlyBet && (st.LockSteals != 1 || st.LeaseBetsLost == 0) {
			t.Errorf("%s: survivor stole %d leases and lost %d bets; want the dead victim's one lease stolen behind a lost bet", what, st.LockSteals, st.LeaseBetsLost)
		}
		reader := survivor
		if sc.name == "type switch" && n == shape.first+1 {
			// Parent repointed, entry not swapped.
			reader = newTestClient(f, shared, Options{}) // cold filter: root path
		}
		if v, ok, err := reader.Search([]byte(sc.key)); err != nil || !ok || string(v) != "survivor" {
			t.Fatalf("%s: victim's key after the survivor's put = %q, %v, %v", what, v, ok, err)
		}
		sc.checkReadable(t, f, shared, what+", after the survivor's put")
		emptyHand(t, survivor, what+", after the survivor's put")

		if addr, _, ok := holder.lac.LookupNode(holder.lac.NodeHash([]byte("budget-"))); !ok || addr != original.Addr {
			t.Fatalf("%s: the holder remembers %v, %v for \"budget-\"; want the original %v", what, addr, ok, original.Addr)
		}
		for _, k := range sc.setup {
			if want := "v-" + k; k != sc.key {
				warmSearch(t, holder, []byte(k), []byte(want))
			}
		}
		tableNamesOrphan := sc.name == "type switch" && n == shape.first+1
		// The commit batch executed up to the entry CAS, and the victim died
		// before the invalidation behind it: the original is valid, leased for
		// good, and off the tree.
		orphaned := sc.name == "type switch" && n > shape.first+1 && n < shape.verbs-1
		if addr, _, _ := holder.lac.LookupNode(holder.lac.NodeHash([]byte("budget-"))); orphaned && (holder.Stats().NodeAborts != 1 || addr == original.Addr) {
			t.Errorf("%s: the holder turned down %d leased images and remembers %v; want the orphaned original %v turned down once, for the copy the table names",
				what, holder.Stats().NodeAborts, addr, original.Addr)
		}
		if !tableNamesOrphan {
			// The survivor's put is acknowledged: the holder reads it. Then the
			// holder's own writes — a fresh key, and an out-of-place update,
			// which swings a slot of whichever node it lands in (the orphan of a
			// type switch is full and turns an insert away by itself).
			warmSearch(t, holder, []byte(sc.key), []byte("survivor"))
			mine, grown := []byte("budget-~"), outOfPlaceUpdate.value("holder")
			if _, err := holder.Insert(mine, []byte("holder")); err != nil {
				t.Fatalf("%s: holder put: %v", what, err)
			}
			if ok, err := holder.Update([]byte(sc.setup[0]), grown); err != nil || !ok {
				t.Fatalf("%s: holder update = %v, %v", what, ok, err)
			}
			fromRoot := newTestClient(f, shared, Options{}) // cold filter
			warmSearch(t, fromRoot, mine, []byte("holder"))
			warmSearch(t, fromRoot, []byte(sc.setup[0]), grown)
		}
		fscktest.Done(t, f)
	}
	if crashed == 0 {
		t.Fatal("no sweep point crashed the victim; the sweep exercises nothing")
	}
}

// TestSpeculativeWritesNeverPublished: objects written ahead of a lock are
// a bet on the descent's unlocked image. When the bet is lost — the locked
// image refutes the unlocked one, or a transient fault cuts the lock batch —
// they are abandoned and counted, the put restarts and succeeds, and no
// hash-table entry ever names them.
func TestSpeculativeWritesNeverPublished(t *testing.T) {
	// A rival changes the node between the victim's descent and its lock.
	lost := []struct {
		scenario  string
		rival     func(c *Client) error
		abandoned uint64
	}{
		{"fresh insert", func(c *Client) error { _, err := c.Insert([]byte("budget-c"), []byte("rival")); return err }, 1},
		{"leaf conversion, chain 1", func(c *Client) error { _, err := c.Insert([]byte("budget-ay"), []byte("rival")); return err }, 2},
		{"partial split", func(c *Client) error { _, err := c.Insert([]byte("bug"), []byte("rival")); return err }, 2},
		{"type switch", func(c *Client) error {
			// Re-homing one child's leaf changes a slot word and leaves the
			// node full.
			if _, err := c.Delete([]byte("budget-d")); err != nil {
				return err
			}
			_, err := c.Insert([]byte("budget-d"), []byte("v-budget-d"))
			return err
		}, 2},
	}
	for _, tc := range lost {
		t.Run("lost verify/"+tc.scenario, func(t *testing.T) {
			var sc writeScenario
			for _, s := range writeScenarios {
				if s.name == tc.scenario {
					sc = s
				}
			}
			f, shared, setup := sc.build(t, 2)
			node, l, err := setup.locate([]byte("budget-a"), len("budget-a"))
			if err != nil || l != len("budget-") {
				t.Fatalf("locating the contended node: prefix %d, %v", l, err)
			}
			rival := newTestClient(f, shared, Options{})
			victim := newTestClient(f, shared, Options{})
			rec := obs.NewRecorder()
			rec.Begin("put", victim.eng.C.Clock())
			victim.SetRecorder(rec)
			// The rival's writes land between the victim's unlocked descent —
			// its READ of the node — and its lock batch.
			var rerr error
			sw := fabrictest.Switch(0, func(s fabrictest.Step) bool { return s.Op.Kind == fabric.Read && s.Op.Addr == node.Addr })
			fabrictest.Run(f, sw, fabrictest.Proc{C: victim.eng.C, Fn: func() { _, err = victim.Insert([]byte(sc.key), []byte("victim")) }},
				fabrictest.Proc{Fn: func() { rerr = tc.rival(rival) }})
			if err != nil {
				t.Fatalf("victim put: %v", err)
			}
			if sw.Turns[0].At == nil || rerr != nil {
				t.Fatalf("rival ran at %+v, err %v", sw.Turns[0].At, rerr)
			}
			st := victim.eng.Stats()
			if st.AbandonedObjects != tc.abandoned || st.AbandonedBytes == 0 {
				t.Errorf("victim abandoned %d objects (%d bytes), want %d", st.AbandonedObjects, st.AbandonedBytes, tc.abandoned)
			}
			if victim.Stats().Restarts == 0 {
				t.Error("victim never restarted; the race missed its lock")
			}
			if want := fmt.Sprintf("abandoned %d write-ahead objects", tc.abandoned); !strings.Contains(rec.Trace().Format(), want) {
				t.Errorf("put trace lacks the note %q:\n%s", want, rec.Trace().Format())
			}
			sc.checkReadable(t, f, shared, "after the race")
			check := newTestClient(f, shared, Options{})
			if _, ok, err := check.Search([]byte(sc.key)); err != nil || !ok {
				t.Errorf("victim's key unreadable after the race: %v", err)
			}
			emptyHand(t, check, "after the race")
		})
	}

	// Transient faults cut the victim's batches at random verbs, the fused
	// lock batch among them.
	t.Run("transient truncation", func(t *testing.T) {
		var abandoned uint64
		for seed := uint64(1); seed <= 8; seed++ {
			for _, sc := range writeScenarios {
				what := fmt.Sprintf("seed %d, %s", seed, sc.name)
				f, shared, _ := sc.build(t, 2)
				f.SetFaultPlan(&fabric.FaultPlan{Seed: seed, TransientPer64k: 1 << 13})
				victim := newTestClient(f, shared, Options{})
				f.SetFaultPlan(nil)
				if _, err := victim.Insert([]byte(sc.key), []byte("victim")); err != nil {
					t.Fatalf("%s: victim put: %v", what, err)
				}
				abandoned += victim.eng.Stats().AbandonedObjects
				sc.checkReadable(t, f, shared, what)
				check := newTestClient(f, shared, Options{})
				if v, ok, err := check.Search([]byte(sc.key)); err != nil || !ok || string(v) != "victim" {
					t.Fatalf("%s: victim's key = %q, %v, %v", what, v, ok, err)
				}
				emptyHand(t, check, what)
				fscktest.Done(t, f)
			}
		}
		if abandoned == 0 {
			t.Fatal("no seed cut a batch that carried write-ahead objects; the sweep exercises nothing")
		}
	})
}

// quickPs bounds a fault-free write of a key nobody holds a lock on: a few
// round trips, far below what a waiter spends polling a held lock.
const quickPs = 125_000_000

// TestOutOfPlaceUpdateRetiresOldLeafAcrossFaults: an out-of-place update and
// a delete take the key's leaf off the tree in one commit batch — [W slot · W
// Invalid · CAS unlock], behind the leaf's lock, which rides the node's lock
// batch. A transient can cut either batch at any verb: a cut lock batch gives
// back what it took, a cut commit is issued again under the held locks. Were
// the old leaf left Idle at an address the leaf-address cache still holds, a
// speculative read would serve the value from before the acknowledged write.
// Sweeping fault seeds at a rate where double faults are common, the
// acknowledged outcome is the only one a read may return, and afterwards a
// fault-free client's write of the key, in place where the key is there,
// finishes within quickPs: no live lock was left behind.
func TestOutOfPlaceUpdateRetiresOldLeafAcrossFaults(t *testing.T) {
	key, small, big := []byte("oop-key"), []byte("small"), bytes.Repeat([]byte("G"), 700)
	for _, leg := range []struct {
		name  string
		write func(*Client) error
		want  []byte // what a read returns after the ack; nil: absent
	}{
		{"grow update", func(c *Client) error { _, err := c.Insert(key, big); return err }, big},
		{"delete", func(c *Client) error { _, err := c.Delete(key); return err }, nil},
	} {
		t.Run(leg.name, func(t *testing.T) {
			redriven := uint64(0)
			for seed := uint64(1); seed <= 100; seed++ {
				f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
				lac := NewLeafCache(1<<10, 7)
				reader := newTestClient(f, shared, Options{LeafCache: lac})
				if _, err := reader.Insert(key, small); err != nil {
					t.Fatal(err)
				}
				// A traversal teaches the shared cache the small leaf's address.
				if v, ok, err := reader.Search(key); err != nil || !ok || !bytes.Equal(v, small) {
					t.Fatalf("seed %d: warm-up read = %q, %v, %v", seed, v, ok, err)
				}
				f.SetFaultPlan(&fabric.FaultPlan{Seed: seed, TransientPer64k: 1 << 14})
				writer := newTestClient(f, shared, Options{LeafCache: lac})
				f.SetFaultPlan(nil)
				err := leg.write(writer)
				// At this fault rate a write can run out of retries; an
				// unacknowledged write promises nothing.
				if err != nil && !errors.Is(err, ErrRetriesExhausted) {
					t.Fatalf("seed %d: %s: %v", seed, leg.name, err)
				}
				if err == nil {
					redriven += writer.eng.Stats().PublishRetries
					if v, ok, err := reader.Search(key); err != nil || ok != (leg.want != nil) || !bytes.Equal(v, leg.want) {
						t.Fatalf("seed %d: read after the acknowledged %s = %.20q, %v, %v; want %.20q", seed, leg.name, v, ok, err, leg.want)
					}
				}
				fresh := newTestClient(f, shared, Options{})
				t0 := fresh.eng.C.Clock()
				v, _, err := fresh.Search(key)
				if err == nil {
					_, err = fresh.Insert(key, bytes.Repeat([]byte("H"), max(len(v), 1)))
				}
				if dt := fresh.eng.C.Clock() - t0; err != nil || dt >= quickPs {
					t.Fatalf("seed %d: a fault-free read and write of the key took %d ps (bound %d) and returned %v: a live lock was left behind", seed, dt, int64(quickPs), err)
				}
				fscktest.Done(t, f)
			}
			if redriven == 0 {
				t.Fatal("no seed cut a commit batch; the sweep exercises nothing")
			}
		})
	}
}

// TestPlannedEntrySlotTakenByRival: a conversion's entry CAS goes blind, at a
// slot of the bucket pair guessed from the entry's word, with the pair READ
// behind it. A rival that takes that very slot between the lock batch and the
// commit batch makes the CAS lose; the swing still commits, and the pair
// image the commit batch brought back plans the retry into a free slot —
// exactly one entry, one round trip more, no table loop, nothing re-driven —
// and the put's trace says so.
func TestPlannedEntrySlotTakenByRival(t *testing.T) {
	sc := writeScenarios[2] // leaf conversion, chain 1
	// Where the entry CAS goes: the commit batch's CAS expecting an empty slot,
	// in a clean run — the same address in every build of the scenario.
	var guess mem.Addr
	{
		f, shared, setup := sc.build(t, 2)
		victim := sc.victim(t, f, shared, setup, false)
		f.Trace = func(c *fabric.Client, op *fabric.Op) {
			if c == victim.eng.C && c.Stage() == fabric.StagePublish && op.Kind == fabric.CAS && op.Expect == 0 {
				guess = op.Addr
			}
		}
		if _, err := victim.Insert([]byte(sc.key), []byte("victim")); err != nil || guess.IsNull() {
			t.Fatalf("clean put: %v, entry CAS at %v", err, guess)
		}
	}
	f, shared, setup := sc.build(t, 2)
	victim := sc.victim(t, f, shared, setup, false)
	rival := newTestClient(f, shared, Options{})
	rec := obs.NewRecorder()
	rec.Begin("put", victim.eng.C.Clock())
	victim.SetRecorder(rec)

	prefix := []byte(sc.key[:len(sc.key)-1]) // the converted edge's new node
	// An entry no lookup of the prefix matches (the fingerprint differs),
	// naming a node the tree holds.
	stranger := wire.HashEntry{Valid: true, FP: wire.FP12(prefix) ^ 1, Type: wire.Node256, Addr: shared.Root}
	var log batchLog
	victim.eng.C.SetObserver(&log)
	// The rival lands between the lock batch and the commit batch.
	var err error
	sw := fabrictest.Switch(0, func(s fabrictest.Step) bool { return s.BatchEnd && s.Stage == fabric.StageLock })
	fabrictest.Run(f, sw, fabrictest.Proc{C: victim.eng.C, Fn: func() { _, err = victim.Insert([]byte(sc.key), []byte("victim")) }},
		fabrictest.Proc{Fn: func() {
			if old, err := rival.eng.C.CompareSwap(guess, 0, stranger.Encode()); err != nil || old != 0 {
				t.Errorf("rival CAS into the guessed slot: %#x, %v", old, err)
			}
		}})
	victim.eng.C.SetObserver(nil)
	if err != nil || sw.Turns[0].At == nil {
		t.Fatalf("victim put: %v, the rival ran at %+v", err, sw.Turns[0].At)
	}

	// The victim is a cold client (allocator slabs, directory caches), so
	// the count starts at the lock batch that carries its staged objects.
	for len(log.evs) > 0 && log.evs[0].Stage != fabric.StageLock {
		log.evs = log.evs[1:]
	}
	if rts, _, stages := log.writeCost(); rts != 2+1 {
		t.Errorf("cost from the staged lock batch on = %d RT (%v), want it and the commit batch + 1 for the retry", rts, stages)
	}
	hs := victim.HashStats()
	if hs.BlindInserts != 1 || hs.BlindLost != 1 || hs.PlannedLost != 0 || hs.RetryReads != 0 {
		t.Errorf("BlindInserts = %d, BlindLost = %d, PlannedLost = %d, RetryReads = %d; want 1, 1, 0, 0", hs.BlindInserts, hs.BlindLost, hs.PlannedLost, hs.RetryReads)
	}
	if st := victim.eng.Stats(); st.PublishRetries != 0 || victim.Stats().Restarts != 0 {
		t.Errorf("PublishRetries = %d, Restarts = %d; want 0, 0", st.PublishRetries, victim.Stats().Restarts)
	}
	if want := "inht entry: guessed slot taken, planned again from the pair read"; !strings.Contains(rec.Trace().Format(), want) {
		t.Errorf("put trace lacks the note %q:\n%s", want, rec.Trace().Format())
	}
	if strings.Contains(rec.Trace().Format(), "table loop") {
		t.Errorf("the retry fell to the table loop:\n%s", rec.Trace().Format())
	}
	check := NewClient(shared, f.NewClient(), Options{})
	if n, l, err := check.locate([]byte(sc.key), len(sc.key)); err != nil || l != len(prefix) {
		t.Errorf("the hash table does not lead to the new node: prefix %d (%v), %v", l, n, err)
	}
	warmSearch(t, check, []byte(sc.key), []byte("victim"))
	sc.checkReadable(t, f, shared, "after the race")
	emptyHand(t, check, "after the race")
}

// TestCommitBatchSurvivesFaults aims one transient at every verb of the
// commit batch of every structural write — the objects that lead a leased
// insert's or conversion's, a split's child head, the slot WRITE, each entry
// CAS, each bucket re-read, the old leaf's retirement, the unlock — and one
// lost completion at the batch as a whole. A transient executed a prefix, the
// node's lease still held: the rest of the batch is issued again from the
// first verb that did not execute, and the entries' outcomes stand in the
// batch, whichever attempt ran them. A lost completion executed everything,
// the unlock included: nothing is issued again, the entries' outcomes are
// unknown and the table's loop finds them. Either way the put acks without
// starting over, every prefix has exactly one entry, the lease is released,
// every verb of the batch executed once, and no slot is written once the
// unlock has executed.
//
// Every write runs twice: from the root, where the lock batch takes the
// lease, and jumping, where the landing's bet did. The plain insert and the
// out-of-place update are in the sweep because their commit batch used to be
// a bare Batch: a transient behind the slot WRITE sent the put around again,
// which found its own leaf, updated it in place, and left the node's lease
// behind for the next writer.
func TestCommitBatchSurvivesFaults(t *testing.T) {
	for _, sc := range append(append([]writeScenario(nil), writeScenarios...), outOfPlaceUpdate) {
		t.Run(sc.name, func(t *testing.T) {
			t.Run("from the root", func(t *testing.T) { sc.commitFaultSweep(t, false) })
			t.Run("jumping", func(t *testing.T) { sc.commitFaultSweep(t, true) })
		})
	}
}

func (sc writeScenario) commitFaultSweep(t *testing.T, warm bool) {
	shape := sc.calibrate(t, warm)
	if warm && shape.bet < 0 {
		t.Skip("the filter knows no prefix of the key: the put walks from the root either way")
	}
	// A transient after each verb of the commit batch, then a lost
	// completion of the whole of it (cut == shape.n).
	for cut := 0; cut <= shape.n; cut++ {
		timeout := cut == shape.n
		what, at, fault := fmt.Sprintf("transient after verb %d/%d", cut, shape.n), shape.first+uint64(cut), fabric.ErrTransient
		if timeout {
			what, at, fault = "lost completion", shape.first, fabric.ErrTimeout
		}
		f, shared, setup := sc.build(t, 2)
		victim := sc.victim(t, f, shared, setup, warm)
		victim.eng.C.FailAt(at, fault)
		// No verb of the victim may write a slot once its unlock ran. The
		// slot WRITE is the commit batch's first WRITE of one word; a split's
		// head WRITE, of SlotBase bytes, is ahead of it.
		var slot mem.Addr
		head, unlocked, seen := false, false, uint64(0)
		f.Trace = func(c *fabric.Client, op *fabric.Op) {
			if c != victim.eng.C {
				return
			}
			seen++
			switch {
			case seen <= shape.first:
			case slot.IsNull():
				if op.Kind == fabric.Write && len(op.Data) == 8 {
					slot = op.Addr
				}
				head = head || op.Kind == fabric.Write && len(op.Data) == wire.SlotBase
			case op.Kind == fabric.Write && op.Addr == slot && unlocked:
				t.Errorf("%s: slot %v written after the unlock executed", what, slot)
			case op.Kind == fabric.CAS && op.Desired == 0 && op.Old == op.Expect && seen >= shape.first+uint64(shape.n):
				unlocked = true
			}
		}
		// In the backoff after a transient, a peer writes what the executed
		// prefix made reachable without any lock the victim holds: the
		// victim's key, in place, once the slot names it, and a key of its own
		// into the node the write created — or the split's child, once the
		// head WRITE gave its lease back. Both writes are acknowledged there
		// and must survive the batch issued again: from the first verb that
		// did not execute, every verb of the commit batch executes once.
		peer := newTestClient(f, shared, Options{})
		peerKey, updated, inserted := peerKeys[sc.name], false, false
		peerFn := func() {
			if timeout {
				return
			}
			if !slot.IsNull() {
				ok, err := peer.Update([]byte(sc.key), []byte("peer"))
				if updated = ok; err != nil || !ok {
					t.Errorf("%s: peer update of the linked key = %v, %v", what, ok, err)
					return
				}
			}
			if peerKey != "" && (!slot.IsNull() || head) { // head: a split's, the only WRITE of SlotBase bytes
				if _, err := peer.Insert([]byte(peerKey), []byte("peer")); err != nil {
					t.Errorf("%s: peer put %q: %v", what, peerKey, err)
					return
				}
				inserted = true
			}
		}
		var log batchLog
		victim.eng.C.SetObserver(&log)
		var err error
		// The peer lands where the fault cut: park `at` is FailAt(at)'s point.
		sw := fabrictest.Switch(int(at), nil)
		fabrictest.Run(f, sw, fabrictest.Proc{C: victim.eng.C, Fn: func() { _, err = victim.Insert([]byte(sc.key), sc.value("victim")) }},
			fabrictest.Proc{Fn: peerFn})
		f.Trace = nil
		if err != nil || sw.Turns[0].At == nil || sw.Turns[0].At.K != at {
			t.Fatalf("%s: victim put: %v, the peer ran at %+v", what, err, sw.Turns[0].At)
		}
		// The batch behind the faulted one is the re-issue: count the verbs
		// executed when it was done.
		faulted, reissued := false, uint64(0)
		for i, ev := range log.evs {
			if faulted = ev.Err != nil; faulted {
				for _, ev := range log.evs[:min(i+2, len(log.evs))] {
					reissued += uint64(ev.Verbs)
				}
				break
			}
		}
		if fs := victim.eng.C.Stats(); fs.Transients+fs.Timeouts != 1 || !faulted {
			t.Fatalf("%s: %d transients, %d timeouts; the fault missed", what, fs.Transients, fs.Timeouts)
		}
		if !timeout && reissued != shape.first+uint64(shape.n) {
			t.Errorf("%s: the %d-verb commit batch had executed %d verbs when it was done; want each once",
				what, shape.n, int64(reissued)-int64(shape.first))
		}
		// The batch was driven to completion: the put did not start over.
		if victim.Stats().Restarts != 0 || victim.eng.Stats().PublishRetries != 1 {
			t.Errorf("%s: %d restarts, %d re-driven steps; want 0, 1", what, victim.Stats().Restarts, victim.eng.Stats().PublishRetries)
		}

		check := newTestClient(f, shared, Options{})
		if updated {
			warmSearch(t, check, []byte(sc.key), []byte("peer"))
		} else {
			warmSearch(t, check, []byte(sc.key), sc.value("victim"))
		}
		if inserted {
			warmSearch(t, check, []byte(peerKey), []byte("peer"))
		}
		sc.checkReadable(t, f, shared, what)
		emptyHand(t, check, what)
		// Leases released: writers that lock the nodes the victim locked
		// — the node under "budget-", the root — are not kept waiting.
		clock0 := check.eng.C.Clock()
		for _, k := range []string{"budget-+", "+"} {
			if _, err := check.Insert([]byte(k), []byte("next")); err != nil {
				t.Fatalf("%s: next put %q: %v", what, k, err)
			}
		}
		if dt := check.eng.C.Clock() - clock0; dt > 100_000_000 || check.eng.Stats().LockSteals != 0 {
			t.Errorf("%s: the next writers took %d ps and stole %d leases; a lease was left held", what, dt, check.eng.Stats().LockSteals)
		}
		fscktest.Done(t, f)
	}
}

// TestReissueKeepsPeerUpdate: a commit batch a transient cut is issued again
// from the first verb that did not execute, never from the top. A warm insert
// commits in one batch, [W leaf · W slot · CAS unlock]; cut after its slot
// WRITE, the key is reachable during the victim's backoff, and a peer's put of
// the key updates the leaf in place and is acknowledged — it takes the leaf's
// lock, not the node's. Issued again whole, the batch's leaf WRITE would put
// the victim's image back over the acknowledged value.
func TestReissueKeepsPeerUpdate(t *testing.T) {
	sc := writeScenarios[0]
	shape := sc.calibrate(t, true)
	key := []byte(sc.key)
	f, shared, setup := sc.build(t, 2)
	victim := sc.victim(t, f, shared, setup, true)
	at := shape.first + 2
	victim.eng.C.FailAt(at, fabric.ErrTransient)
	peer := newTestClient(f, shared, Options{})
	acked := false
	var err error
	// The peer lands where the transient cut the commit batch.
	sw := fabrictest.Switch(int(at), nil)
	fabrictest.Run(f, sw, fabrictest.Proc{C: victim.eng.C, Fn: func() { _, err = victim.Insert(key, []byte("victim")) }},
		fabrictest.Proc{Fn: func() {
			if _, err := peer.Insert(key, []byte("peer")); err != nil {
				t.Errorf("peer put: %v", err)
				return
			}
			acked = warmSearch(t, peer, key, []byte("peer"))
		}})
	if sw.Turns[0].At == nil || !sw.Turns[0].At.BatchEnd || sw.Turns[0].At.Op.Kind != fabric.Write || len(sw.Turns[0].At.Op.Data) != 8 {
		t.Fatalf("the peer ran at %+v; want where the commit batch was cut, behind its slot WRITE", sw.Turns[0].At)
	}
	if err != nil || !acked {
		t.Fatalf("victim put: %v (peer acked %v)", err, acked)
	}
	warmSearch(t, newTestClient(f, shared, Options{}), key, []byte("peer"))
}

// TestTypeSwitchOfNodeWithoutEntry: a leaf conversion is killed behind its
// slot WRITE, before its entry CAS, so the node it linked is live in the tree
// with no hash-table entry — for good, its creator is dead. A survivor inserts
// under that node's prefix until the node type-switches. The swap finds no old
// entry and inserts the grown copy's (racehash.View.Replace is an upsert): the
// put succeeds, the table holds exactly one live entry for the prefix, naming
// the grown copy, and a reader that jumps through the table finds every key.
// A swap that waited for the old entry instead failed the put once its wait
// budget ran out.
func TestTypeSwitchOfNodeWithoutEntry(t *testing.T) {
	sc := writeScenarios[2] // leaf conversion, chain 1: links the node of "budget-a"
	prefix := []byte("budget-a")
	shape := sc.calibrate(t, false)
	f, shared, setup := sc.build(t, 2)
	victim := sc.victim(t, f, shared, setup, false)
	victim.eng.C.FailAt(shape.first+1, fabric.ErrClientCrashed)
	if _, err := victim.Insert([]byte(sc.key), []byte("victim")); !errors.Is(err, fabric.ErrClientCrashed) {
		t.Fatalf("victim put = %v; want it killed behind its slot WRITE", err)
	}
	survivor := newTestClient(f, shared, Options{})
	if n, err := survivor.fetchValidated(prefix); err != nil || n != nil {
		t.Fatalf("the table names %v (%v) for the victim's node; want no entry", n, err)
	}
	want := map[string]string{sc.key: "victim"}
	for _, k := range sc.setup {
		want[k] = "v-" + k
	}
	for i := 0; i < 4; i++ { // the node holds "x"; the fourth key fills it over
		k := fmt.Sprintf("%s%d", prefix, i)
		if _, err := survivor.Insert([]byte(k), []byte(k)); err != nil {
			t.Fatalf("survivor put %q: %v", k, err)
		}
		want[k] = k
	}
	grown, err := survivor.fetchValidated(prefix)
	if err != nil || grown == nil || grown.Hdr.Type != wire.Node16 {
		t.Fatalf("the table names %v for %q (%v); want the grown copy", grown, prefix, err)
	}
	if _, reached := Fsck(f.NewClient(), shared).Inner[grown.Addr]; !reached {
		t.Fatalf("the table names %v for %q, which the tree does not reach", grown.Addr, prefix)
	}
	if st := survivor.HashStats(); st.ReplaceInserts != 1 {
		t.Errorf("%d swaps inserted their entry; want the type switch's one", st.ReplaceInserts)
	}
	reader := NewClient(shared, f.NewClient(), Options{Filter: survivor.filter})
	for k, v := range want {
		warmSearch(t, reader, []byte(k), []byte(v))
	}
	if reader.Stats().RootStarts != 0 {
		t.Errorf("the reader walked from the root %d times; want every read to jump", reader.Stats().RootStarts)
	}
}

// TestTypeSwitchNoFalseAbsenceBetweenBatches: at every batch boundary of a
// type switch past its commit point, a rival whose filter knows the node's
// prefix inserts a fresh key through the root path — it lands in the grown
// copy, which the parent's slot names from the commit batch on — and reads it
// back through its filter-guided jump. The read is never absent: the entry
// swap rides the commit batch behind the parent repoint, so no batch boundary
// separates "the tree leads to the grown copy" from "the table does". (With
// the swap in a batch of its own, the jump at that boundary lands on the
// still-valid original, which lacks the key.) The boundary behind the lock
// batch is left out: both nodes are leased there and a rival waits, by design.
//
// A second rival remembers the original's address, which nothing but that
// cache names once the swing landed. The original's invalidation rides the
// swing too, so the holder's landing there is refuted (were the original
// still valid, it would be leased by the switching writer, and a leased image
// is not trusted either): the holder asks the table, reads the first rival's
// key in the grown copy, and its own insert lands where a walk from the root
// finds it.
func TestTypeSwitchNoFalseAbsenceBetweenBatches(t *testing.T) {
	sc := writeScenarios[5]
	// The boundaries past the commit point: every batch end from the commit
	// batch's — the first publish batch of more than one verb; the table's
	// one-verb reads ahead of the lock are publish-stage too — on. The switch
	// asks at every park of the victim's until it is taken, so the predicate
	// follows the run: batchStart is whether the park's verb opened a batch.
	committed, batchStart := false, true
	pastCommit := func(s fabrictest.Step) bool {
		committed = committed || s.BatchEnd && !batchStart && s.Stage == fabric.StagePublish
		batchStart = s.BatchEnd
		return committed && s.BatchEnd
	}
	boundaries := fabrictest.Switches(pastCommit, func(at int, sw *fabrictest.Script) {
		committed, batchStart = false, true
		f, shared, _ := sc.build(t, 2)
		victim := NewClient(shared, f.NewClient(), withCaches(shared, Options{}, 0))
		rival := NewClient(shared, f.NewClient(), Options{Filter: testFilter(0)})
		warmSearch(t, rival, []byte(sc.setup[0]), []byte("v-"+sc.setup[0]))
		holder := newTestClient(f, shared, Options{Filter: rival.filter})
		original := landingOf(t, holder, sc.setup[0], "budget-")
		fresh := []byte("budget-~") // a free edge of the switching node
		rivalFn := func() {
			root, err := rival.readRoot()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := rival.eng.PutFrom(root, fresh, []byte("fresh"), rart.PutUpsert, hooks{rival}); err != nil {
				t.Errorf("boundary %d: rival put through the root: %v", at, err)
				return
			}
			jumps := rival.Stats().FilterHits
			v, ok, err := rival.Search(fresh)
			if err != nil || !ok || string(v) != "fresh" {
				t.Errorf("boundary %d: the rival's own insert reads back %q, %v, %v", at, v, ok, err)
			}
			if rival.Stats().FilterHits != jumps+1 {
				t.Errorf("boundary %d: the read-back did not jump through the hash table", at)
			}
			if addr, _, ok := holder.lac.LookupNode(holder.lac.NodeHash([]byte("budget-"))); !ok || addr != original.Addr {
				t.Errorf("boundary %d: the holder remembers %v, %v; want the original %v", at, addr, ok, original.Addr)
				return
			}
			if !warmSearch(t, holder, fresh, []byte("fresh")) {
				return
			}
			if st := holder.Stats(); st.NodeHits != 0 || st.NodeAborts+st.NodeRefutes != 1 {
				t.Errorf("boundary %d: the holder's landing at the original: %d hits, %d leased, %d refuted; want it turned down once",
					at, st.NodeHits, st.NodeAborts, st.NodeRefutes)
			}
			if _, err := holder.Insert([]byte("budget-}"), []byte("held")); err != nil {
				t.Errorf("boundary %d: holder put: %v", at, err)
				return
			}
			warmSearch(t, newTestClient(f, shared, Options{}), []byte("budget-}"), []byte("held")) // from the root
		}
		var err error
		fabrictest.Run(f, sw, fabrictest.Proc{C: victim.eng.C, Fn: func() { _, err = victim.Insert([]byte(sc.key), []byte("victim")) }},
			fabrictest.Proc{Fn: rivalFn})
		if err != nil {
			t.Fatalf("victim put: %v", err)
		}
		if sw.Turns[0].At != nil {
			warmSearch(t, rival, fresh, []byte("fresh"))
			warmSearch(t, rival, []byte(sc.key), []byte("victim"))
		}
	})
	if boundaries < 1 {
		t.Fatalf("%d batch boundaries behind the commit point; want the swing's", boundaries)
	}
}
