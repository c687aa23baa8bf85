package sphinx

import (
	"fmt"
	"sync"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
)

// TestElasticMembershipPublicAPI drives the public elastic surface end to end:
// a memory node joins and then leaves again, each change driven by one
// session's MigrateSweep until MigrationPending is false, while a second
// session writes. Epoch counts the changes, MemoryNodes the members, every
// acknowledged write reads back, and the index check ends the test.
func TestElasticMembershipPublicAPI(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingInstant})
	if err != nil {
		t.Fatal(err)
	}
	fscktest.AtEnd(t, cluster.cl.F, func(fc *fabric.Client) *rart.Check {
		return rart.NewEngine(fc, nil, nil, rart.Config{}).Fsck(cluster.cl.Sphinx.Root)
	})
	migrator, writer := cluster.NewComputeNode().NewSession(), cluster.NewComputeNode().NewSession()
	acked := map[string]string{}
	put := func(k, v string) bool {
		if err := writer.Put([]byte(k), []byte(v)); err != nil {
			t.Errorf("put %q: %v", k, err)
			return false
		}
		acked[k] = v
		return true
	}
	for i := 0; i < 300 && put(fmt.Sprintf("el-%04d", i), "v0"); i++ {
	}
	members := cluster.MemoryNodes()
	if cluster.Epoch() != 0 || cluster.MigrationPending() {
		t.Fatalf("bootstrap: epoch %d, pending %v; want 0, false", cluster.Epoch(), cluster.MigrationPending())
	}

	// change begins one membership change and drives it to its cutover while
	// the writer puts fresh keys and overwrites old ones.
	change := func(name string, begin func() error, epoch uint64, nodes int) {
		if err := begin(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cluster.Epoch() != epoch || !cluster.MigrationPending() || cluster.MemoryNodes() != nodes {
			t.Fatalf("%s begun: epoch %d, pending %v, %d nodes; want %d, true, %d", name, cluster.Epoch(), cluster.MigrationPending(), cluster.MemoryNodes(), epoch, nodes)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200 && put(fmt.Sprintf("el-%s-%04d", name, i), name) && put(fmt.Sprintf("el-%04d", i), name); i++ {
			}
		}()
		var rep MigrateReport
		for sweep := 0; cluster.MigrationPending(); sweep++ {
			if sweep == 20 {
				t.Fatalf("%s: no cutover after %d sweeps: %+v", name, sweep, rep)
			}
			if rep, err = migrator.MigrateSweep(); err != nil {
				t.Fatalf("%s: sweep %d: %v", name, sweep, err)
			}
		}
		wg.Wait()
		if cluster.Epoch() != epoch || cluster.MemoryNodes() != nodes || rep.Epoch != epoch || !rep.CutOver {
			t.Fatalf("%s done: epoch %d, %d nodes, last sweep %+v; want epoch %d, %d nodes, cut over", name, cluster.Epoch(), cluster.MemoryNodes(), rep, epoch, nodes)
		}
	}
	added := 0
	change("add", func() (err error) { added, err = cluster.AddMemoryNode(); return err }, 1, members+1)
	change("drain", func() error { return cluster.DrainMemoryNode(added) }, 2, members)

	if rep, err := migrator.MigrateSweep(); err != nil || !rep.Converged {
		t.Errorf("a sweep with no change in flight: %+v, %v; want it converged", rep, err)
	}
	reader := cluster.NewComputeNode().NewSession()
	for k, v := range acked {
		if got, ok, err := reader.Get([]byte(k)); err != nil || !ok || string(got) != v {
			t.Errorf("acked %q = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
}
