package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sphinx/internal/fabric"
)

// sweepToCutover drives migration sweeps until the transition cuts over,
// failing the test if it does not converge within a generous bound.
func sweepToCutover(t *testing.T, c *Client) MigrateReport {
	t.Helper()
	for i := 0; i < 30; i++ {
		rep, err := c.MigrateSweep()
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if rep.CutOver {
			return rep
		}
	}
	t.Fatal("migration did not converge within 30 sweeps")
	return MigrateReport{}
}

// loadElastic inserts the n keys verifyAll reads through a client of its own,
// and returns it.
func loadElastic(t *testing.T, f *fabric.Fabric, shared Shared, n int) *Client {
	t.Helper()
	c := newTestClient(f, shared, Options{})
	for i := 0; i < n; i++ {
		if _, err := c.Insert([]byte(fmt.Sprintf("elastic-key-%05d", i)), []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func verifyAll(t *testing.T, c *Client, n int, context string) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("elastic-key-%05d", i))
		want := fmt.Sprintf("val-%05d", i)
		v, ok, err := c.Search(key)
		if err != nil || !ok {
			t.Fatalf("%s: Search(%s) = %v, %v", context, key, ok, err)
		}
		if string(v) != want {
			t.Fatalf("%s: Search(%s) = %q, want %q", context, key, v, want)
		}
	}
}

func TestElasticAddNode(t *testing.T) {
	const keys = 400
	f, shared := newCluster(t, 2, fabric.InstantConfig(), keys)
	c := loadElastic(t, f, shared, keys)

	id := f.AddNode(64 << 20)
	p, err := BeginAddNode(f, shared, id, keys)
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 1 || !shared.Members.Transitioning() {
		t.Fatalf("after BeginAddNode: epoch=%d transitioning=%v", p.Epoch, shared.Members.Transitioning())
	}
	if !p.Ring.Contains(id) {
		t.Fatal("new node missing from the next epoch's ring")
	}

	// Mid-transition, before any migration: every key must stay readable
	// via the previous-epoch fallback — by a client that asks the table
	// (same warm filter, no remembered addresses).
	asking := NewClient(shared, f.NewClient(), Options{Filter: c.filter})
	verifyAll(t, asking, keys, "mid-transition")
	if fb := asking.Stats().EpochFallbacks; fb == 0 {
		t.Error("no epoch fallbacks recorded while reading mid-transition")
	}
	// Its twin remembers where the inner nodes live — it built them — and
	// needs neither table: an address says nothing about who owns the prefix.
	verifyAll(t, c, keys, "mid-transition, remembered addresses")
	if st := c.Stats(); st.EpochFallbacks != 0 || st.NodeHits == 0 || st.NodeRefutes != 0 {
		t.Errorf("reads through remembered addresses mid-transition: %d epoch fallbacks, %d node hits, %d refutes; want 0, some, 0",
			st.EpochFallbacks, st.NodeHits, st.NodeRefutes)
	}

	// New keys written mid-transition land in the new epoch's placement.
	if _, err := c.Insert([]byte("elastic-new-key"), []byte("new")); err != nil {
		t.Fatal(err)
	}

	first, err := c.MigrateSweep()
	if err != nil {
		t.Fatal(err)
	}
	if first.MovedLeaves+first.MovedNodes == 0 {
		t.Errorf("first sweep moved nothing: %+v", first)
	}
	rep := sweepToCutover(t, c)
	if shared.Members.Transitioning() {
		t.Fatal("still transitioning after cutover")
	}
	if got := shared.Members.Current().Epoch; got != 1 {
		t.Fatalf("post-cutover epoch = %d, want 1", got)
	}
	t.Logf("cutover report: %+v", rep)

	verifyAll(t, c, keys, "post-cutover")
	if v, ok, err := c.Search([]byte("elastic-new-key")); err != nil || !ok || string(v) != "new" {
		t.Fatalf("mid-transition insert lost: %q, %v, %v", v, ok, err)
	}

	// A fresh client — no warm caches, only the new placement — must see
	// everything too.
	c2 := newTestClient(f, shared, Options{})
	verifyAll(t, c2, keys, "fresh client post-cutover")
}

func TestElasticDrainNode(t *testing.T) {
	const keys = 300
	f, shared := newCluster(t, 3, fabric.InstantConfig(), keys)
	c := loadElastic(t, f, shared, keys)

	// Drain any member that does not host the pinned root.
	var victim = shared.Root.Node()
	for _, n := range shared.Members.Current().Ring.Nodes() {
		if n != shared.Root.Node() {
			victim = n
			break
		}
	}
	if _, err := BeginDrainNode(shared, victim); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, c, keys, "mid-drain")
	sweepToCutover(t, c)
	if shared.Members.Current().Ring.Contains(victim) {
		t.Fatal("drained node still on the ring after cutover")
	}
	verifyAll(t, c, keys, "post-drain")

	// The strongest possible check that nothing references the drained
	// node anymore: kill it and re-verify with a fresh client. Without the
	// fault-tolerance layer there is no failover, so any surviving pointer
	// into the drained node would fail the read outright.
	f.KillNode(victim)
	c2 := newTestClient(f, shared, Options{})
	verifyAll(t, c2, keys, "post-drain with drained node killed")
}

func TestElasticDrainRootRefused(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 100)
	_ = f
	if _, err := BeginDrainNode(shared, shared.Root.Node()); err == nil {
		t.Fatal("draining the root-hosting node must be refused")
	}
	if shared.Members.Transitioning() {
		t.Fatal("refused drain left a transition open")
	}
}

func TestElasticOverlappingTransitionRejected(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 100)
	id := f.AddNode(64 << 20)
	if _, err := BeginAddNode(f, shared, id, 100); err != nil {
		t.Fatal(err)
	}
	id2 := f.AddNode(64 << 20)
	if _, err := BeginAddNode(f, shared, id2, 100); !errors.Is(err, ErrTransitionActive) {
		t.Fatalf("overlapping add: err = %v, want ErrTransitionActive", err)
	}
	nodes := shared.Members.Current().Ring.Nodes()
	if _, err := BeginDrainNode(shared, nodes[len(nodes)-1]); !errors.Is(err, ErrTransitionActive) {
		t.Fatalf("drain during add: err = %v, want ErrTransitionActive", err)
	}
}

func TestElasticAddNodeReplicated(t *testing.T) {
	const keys = 300
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), keys)
	c := loadElastic(t, f, shared, keys)

	id := f.AddNode(64 << 20)
	if _, err := BeginAddNode(f, shared, id, keys); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, c, keys, "mid-transition")
	rep := sweepToCutover(t, c)
	if rep.AnchorsScanned == 0 {
		t.Error("replicated add: no anchors scanned by migration")
	}
	verifyAll(t, c, keys, "post-cutover")

	// The anchor store must be back at full replication under the NEW
	// placement: a repair sweep finds no deficits.
	for i := 0; i < 10; i++ {
		rr, err := c.RepairSweep()
		if err != nil {
			t.Fatal(err)
		}
		if rr.Deficits == 0 {
			break
		}
		if i == 9 {
			t.Fatalf("repair did not converge after migration: %+v", rr)
		}
	}
	if ur := shared.FT.UnderReplicated(); ur != 0 {
		t.Fatalf("under-replicated gauge = %d after migration + repair", ur)
	}
}

func TestElasticDrainReplicated(t *testing.T) {
	const keys = 200
	f, shared := newReplicatedCluster(t, 4, fabric.InstantConfig(), keys)
	c := loadElastic(t, f, shared, keys)
	var victim = shared.Root.Node()
	for _, n := range shared.Members.Current().Ring.Nodes() {
		if n != shared.Root.Node() {
			victim = n
			break
		}
	}
	if _, err := BeginDrainNode(shared, victim); err != nil {
		t.Fatal(err)
	}
	rep := sweepToCutover(t, c)
	if rep.Epoch != 1 {
		t.Fatalf("cutover epoch = %d, want 1", rep.Epoch)
	}
	verifyAll(t, c, keys, "post-drain")

	// After the graceful drain the victim holds nothing; killing it must
	// not lose a single key, and repair must find full replication among
	// the survivors.
	f.KillNode(victim)
	verifyAll(t, c, keys, "post-drain with victim killed")
	for i := 0; i < 10; i++ {
		rr, err := c.RepairSweep()
		if err != nil {
			t.Fatal(err)
		}
		if rr.Deficits == 0 {
			break
		}
		if i == 9 {
			t.Fatalf("repair did not converge after drain: %+v", rr)
		}
	}
}

// TestElasticMigrationUnderLoad runs the migration while concurrent
// clients keep writing: the sweep's relocations and the writers' ordinary
// publications race on the same nodes, leaves and tables, which is
// exactly the online-rebalancing claim. Run with -race.
func TestElasticMigrationUnderLoad(t *testing.T) {
	const keys = 200
	const workers = 3
	f, shared := newCluster(t, 2, fabric.InstantConfig(), keys)
	loader := newTestClient(f, shared, Options{})
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("load-key-%05d", i))
		if _, err := loader.Insert(key, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}

	id := f.AddNode(64 << 20)
	if _, err := BeginAddNode(f, shared, id, keys); err != nil {
		t.Fatal(err)
	}

	// Writers churn their own key shards (single writer per key, so the
	// final value is deterministic) while the migrator runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := newTestClient(f, shared, Options{})
			for round := 1; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < keys; i += workers {
					key := []byte(fmt.Sprintf("load-key-%05d", i))
					if _, err := wc.Update(key, []byte(fmt.Sprintf("v%d-%d", w, round))); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	migrator := newTestClient(f, shared, Options{})
	for i := 0; i < 40 && shared.Members.Transitioning(); i++ {
		if _, err := migrator.MigrateSweep(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Writers stopped; drive the remaining moves home.
	if shared.Members.Transitioning() {
		sweepToCutover(t, migrator)
	}

	// Every key must exist with some worker-written value.
	reader := newTestClient(f, shared, Options{})
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("load-key-%05d", i))
		v, ok, err := reader.Search(key)
		if err != nil || !ok {
			t.Fatalf("post-migration Search(%s) = %v, %v", key, ok, err)
		}
		if len(v) == 0 {
			t.Fatalf("post-migration Search(%s) returned empty value", key)
		}
	}
}
