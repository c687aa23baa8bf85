package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/rart"
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
	// Post-descent budget of an uncontended put (hash, node and leaf reads
	// excluded): round trips, verbs, and batch stages in order.
	rts, verbs int
	stages     []string
}

var longShared = string(bytes.Repeat([]byte("p"), 2*wire.MaxPartial+5))

// writeScenarios lists every structural write. The verb counts are those
// of the one-batch-per-verb-group protocol this design replaced: fusion
// regroups verbs into dependency levels, it adds none.
var writeScenarios = []writeScenario{
	// W leaf + CAS,READ lock | W slot + CAS unlock
	{"fresh insert", []string{"budget-a", "budget-b"}, "budget-c", 2, 5, []string{"lock", "install"}},
	{"EOL insert", []string{"budget-a", "budget-b"}, "budget-", 2, 5, []string{"lock", "install"}},
	// W leaf + W node + 2 READ bucket + CAS,READ lock | W slot + CAS unlock | CAS entry + READ bucket header
	{"leaf conversion, chain 1", []string{"budget-a", "budget-b"}, "budget-ax", 3, 10, []string{"lock", "publish", "publish"}},
	// chain of 3: 3 W node, 3×2 READ bucket, 3×(CAS entry + READ header)
	{"leaf conversion, chain 3", []string{"budget-a", "budget-b", longShared + "A"}, longShared + "B", 3, 20, []string{"lock", "publish", "publish"}},
	// W leaf + W mid + 2 READ bucket + 2×(CAS,READ) lock | W child head | W parent slot + CAS unlock | CAS entry + READ header
	{"partial split", []string{"budget-a", "budget-b"}, "bud!", 4, 13, []string{"lock", "publish", "publish", "publish"}},
	// W leaf + W grown + 2 READ bucket + 2×(CAS,READ) lock | W parent slot + CAS unlock | CAS entry + READ header | W invalidate
	{"type switch", []string{"budget-a", "budget-b", "budget-c", "budget-d"}, "budget-e", 4, 13, []string{"lock", "publish", "publish", "publish"}},
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

// TestWriteBudgetsWithINHT pins the post-descent cost of every structural
// write at the core level — hash-table publication included — in round
// trips and verbs, and that an uncontended write abandons nothing.
func TestWriteBudgetsWithINHT(t *testing.T) {
	for _, sc := range writeScenarios {
		t.Run(sc.name, func(t *testing.T) {
			// One memory node: every slab the put needs was reserved by the
			// setup puts, so no allocator round trip blurs the count.
			_, _, c := sc.build(t, 1)
			var log batchLog
			c.eng.C.SetObserver(&log)
			if _, err := c.Insert([]byte(sc.key), []byte("v")); err != nil {
				t.Fatal(err)
			}
			c.eng.C.SetObserver(nil)
			var rts, verbs int
			var stages []string
			for _, ev := range log.evs {
				if !isDescent(ev.Stage) {
					rts += int(ev.RoundTrips)
					verbs += ev.Verbs
					stages = append(stages, ev.Stage.String())
				}
			}
			if rts != sc.rts || verbs != sc.verbs || fmt.Sprint(stages) != fmt.Sprint(sc.stages) {
				t.Errorf("post-descent cost = %d RT, %d verbs, batches %v; want %d RT, %d verbs, batches %v",
					rts, verbs, stages, sc.rts, sc.verbs, sc.stages)
			}
			if sc.name == "fresh insert" && len(log.evs) != 4 {
				t.Errorf("warm fresh-key insert took %d round trips, want 4 (hash-read, node-read, lock‖leaf, install+unlock)", len(log.evs))
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
		})
	}
}

// TestOneDriverLoadAbandonsNothing: without write contention or faults the
// write-ahead never loses its bet — the speculative-waste counters read 0
// over a load that takes every write path many times.
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
}

// reachableInner returns the addresses of every inner node reachable from
// the root.
func reachableInner(t *testing.T, c *Client) map[mem.Addr]bool {
	t.Helper()
	seen := make(map[mem.Addr]bool)
	var visit func(n *rart.Node)
	visit = func(n *rart.Node) {
		seen[n.Addr] = true
		for _, s := range n.Children() {
			if s.Leaf || seen[s.Addr] {
				continue
			}
			child, err := c.eng.ReadNode(s.Addr, s.ChildType)
			if err != nil {
				t.Fatalf("walking the tree: node %v: %v", s.Addr, err)
			}
			visit(child)
		}
	}
	root, err := c.readRoot()
	if err != nil {
		t.Fatal(err)
	}
	visit(root)
	return seen
}

// checkNoPhantomEntries asserts that every inner-node hash-table entry names
// a node that is, or (per before) once was, reachable from the tree: an
// object written ahead of a lock that was then lost must never be published.
func checkNoPhantomEntries(t *testing.T, c *Client, before map[mem.Addr]bool, what string) {
	t.Helper()
	after := reachableInner(t, c)
	for node := range c.members.Current().Tables {
		err := c.viewOf(node).Walk(func(e wire.HashEntry) error {
			if !after[e.Addr] && !before[e.Addr] {
				t.Errorf("%s: hash table of node %d publishes %v (%v), which the tree never reached", what, node, e.Addr, e.Type)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkReadable asserts every setup key of the scenario reads back through
// the filter-guided path and through the filter-less one, which looks up
// every prefix of the key in the hash table.
func (sc writeScenario) checkReadable(t *testing.T, f *fabric.Fabric, shared Shared, what string) {
	t.Helper()
	for _, opts := range []Options{{}, {DisableFilter: true, DisableLeafCache: true}} {
		c := newTestClient(f, shared, opts)
		for _, k := range sc.setup {
			v, ok, err := c.Search([]byte(k))
			if err != nil || !ok || string(v) != "v-"+k {
				t.Fatalf("%s: acked key %q = %q, %v, %v (filter off: %v)", what, k, v, ok, err, opts.DisableFilter)
			}
		}
	}
}

// TestFusedWriteCrashSweep kills a client after every verb of every
// structural write — the fused lock batch with its write-ahead objects, the
// commit batches, the one-batch publication — and requires of a survivor
// that it reads every previously acknowledged key, that no hash-table entry
// names a never-reachable node, and that it can insert the victim's key and
// read it back. The sweep calibrates itself on a clean run of each path.
//
// The two-node protocols have a window the lease steal cannot repair, right
// after their commit point, where only publish-to-completion by the (now
// dead) writer would have finished the structure (docs/failure-model.md §4);
// the sweep pins what still holds there:
//
//   - a compressed-path split killed between the child's head write and the
//     parent repoint leaves a child whose partial is shorter than its parent
//     slot implies. Readers stay correct (the prefix-hash check); a later
//     split at that node restarts until its budget runs out, so the
//     survivor's insert is not required to succeed;
//   - a type switch killed between the parent repoint and the hash-entry
//     swap leaves the table naming the retired, still valid original.
//     Everything acknowledged is in both copies and the survivor's insert
//     succeeds; only a jump-started read of a key the original lacks misses
//     it, so the victim's key is read back through the root path.
func TestFusedWriteCrashSweep(t *testing.T) {
	for _, sc := range writeScenarios {
		t.Run(sc.name, func(t *testing.T) {
			// Calibrate: verbs of a clean put by the victim (fabric client 1),
			// and the verbs after which its lock batch and its first commit
			// batch have fully executed.
			f, shared, _ := sc.build(t, 2)
			var log batchLog
			vc := f.NewClient()
			if vc.ID() != 1 {
				t.Fatalf("victim client ID = %d, want 1", vc.ID())
			}
			vc.SetObserver(&log)
			if _, err := NewClient(shared, vc, Options{}).Insert([]byte(sc.key), []byte("victim")); err != nil {
				t.Fatalf("clean put: %v", err)
			}
			verbs := vc.Stats().Verbs
			var lockEnd, commitEnd, n uint64
			for _, ev := range log.evs {
				n += uint64(ev.Verbs)
				if ev.Stage == fabric.StageLock {
					lockEnd = n
				} else if lockEnd != 0 && commitEnd == 0 {
					commitEnd = n
				}
			}
			if lockEnd == 0 || commitEnd == 0 {
				t.Fatalf("calibration found no lock batch followed by a commit batch: %+v", log.evs)
			}

			crashed := 0
			for n := uint64(1); n <= verbs; n++ {
				what := fmt.Sprintf("crash after verb %d/%d", n, verbs)
				f, shared, setup := sc.build(t, 2)
				before := reachableInner(t, setup)
				f.SetFaultPlan(&fabric.FaultPlan{Seed: 1, CrashAfterVerbs: map[int]uint64{1: n}})
				victim := NewClient(shared, f.NewClient(), Options{})
				f.SetFaultPlan(nil)
				if _, err := victim.Insert([]byte(sc.key), []byte("victim")); err != nil {
					if !errors.Is(err, fabric.ErrClientCrashed) {
						t.Fatalf("%s: victim put = %v", what, err)
					}
					crashed++
				}
				sc.checkReadable(t, f, shared, what)
				survivor := newTestClient(f, shared, Options{})
				checkNoPhantomEntries(t, survivor, before, what)
				unrepaired := n > lockEnd && n <= commitEnd
				if unrepaired && sc.name == "partial split" {
					continue
				}
				if _, err := survivor.Insert([]byte(sc.key), []byte("survivor")); err != nil {
					t.Fatalf("%s: survivor put of the victim's key: %v", what, err)
				}
				reader := survivor
				if unrepaired && sc.name == "type switch" {
					reader = newTestClient(f, shared, Options{}) // cold filter: root path
				}
				if v, ok, err := reader.Search([]byte(sc.key)); err != nil || !ok || string(v) != "survivor" {
					t.Fatalf("%s: victim's key after the survivor's put = %q, %v, %v", what, v, ok, err)
				}
				sc.checkReadable(t, f, shared, what+", after the survivor's put")
				checkNoPhantomEntries(t, survivor, before, what+", after the survivor's put")
			}
			if crashed == 0 {
				t.Fatal("no sweep point crashed the victim; the sweep exercises nothing")
			}
		})
	}
}

// raceAfterRead arms the fabric to run fn once, right after the given
// client's next READ of the node at addr completes: fn's writes land between
// that client's unlocked descent and its lock batch.
func raceAfterRead(f *fabric.Fabric, client *fabric.Client, addr mem.Addr, fn func()) {
	f.Trace = func(c *fabric.Client, op *fabric.Op) {
		if c == client && op.Kind == fabric.Read && op.Addr == addr {
			f.Trace = nil
			fn()
		}
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
			before := reachableInner(t, setup)
			node, l, err := setup.locate([]byte("budget-a"), len("budget-a"))
			if err != nil || l != len("budget-") {
				t.Fatalf("locating the contended node: prefix %d, %v", l, err)
			}
			rival := newTestClient(f, shared, Options{})
			victim := newTestClient(f, shared, Options{})
			rec := obs.NewRecorder()
			rec.Begin("put", victim.eng.C.Clock())
			victim.SetRecorder(rec)
			var rerr error
			raced := false
			raceAfterRead(f, victim.eng.C, node.Addr, func() { raced, rerr = true, tc.rival(rival) })
			if _, err := victim.Insert([]byte(sc.key), []byte("victim")); err != nil {
				t.Fatalf("victim put: %v", err)
			}
			if !raced || rerr != nil {
				t.Fatalf("rival ran: %v, err %v", raced, rerr)
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
			checkNoPhantomEntries(t, check, before, "after the race")
		})
	}

	// Transient faults cut the victim's batches at random verbs, the fused
	// lock batch among them.
	t.Run("transient truncation", func(t *testing.T) {
		var abandoned uint64
		for seed := uint64(1); seed <= 8; seed++ {
			for _, sc := range writeScenarios {
				what := fmt.Sprintf("seed %d, %s", seed, sc.name)
				f, shared, setup := sc.build(t, 2)
				before := reachableInner(t, setup)
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
				checkNoPhantomEntries(t, check, before, what)
			}
		}
		if abandoned == 0 {
			t.Fatal("no seed cut a batch that carried write-ahead objects; the sweep exercises nothing")
		}
	})
}

// TestOutOfPlaceUpdateRetiresOldLeafAcrossFaults: an out-of-place update
// swings the slot and retires the old leaf in one batch. A transient can cut
// that batch between the two, and the error path that then replays the
// retirement runs on the same faulty fabric; if it gives up after one try,
// the put restarts, finds the key at the new leaf, acks — and the old leaf
// stays Idle at an address the leaf-address cache still holds, so a
// speculative read serves the pre-update value after the ack. Sweeping fault
// seeds at a rate where double faults are common, the acknowledged value is
// the only one a read may return.
func TestOutOfPlaceUpdateRetiresOldLeafAcrossFaults(t *testing.T) {
	key, small, big := []byte("oop-key"), []byte("small"), bytes.Repeat([]byte("G"), 700)
	repaired := uint64(0)
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
		if _, err := writer.Insert(key, big); err != nil {
			// At this fault rate a put can run out of retries (a leaf lock
			// left by a cut in-place write is only broken after a lease of
			// unfaulted polls); an unacknowledged write promises nothing.
			if errors.Is(err, ErrRetriesExhausted) {
				continue
			}
			t.Fatalf("seed %d: grow update: %v", seed, err)
		}
		repaired += writer.eng.Stats().LeafRetireRepairs
		if v, ok, err := reader.Search(key); err != nil || !ok || !bytes.Equal(v, big) {
			t.Fatalf("seed %d: read after the acknowledged grow update = %.20q, %v, %v; want the 700-byte value", seed, v, ok, err)
		}
	}
	if repaired == 0 {
		t.Fatal("no seed cut a commit batch between swing and retirement; the sweep exercises nothing")
	}
}
