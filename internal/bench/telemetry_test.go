package bench

import (
	"io"
	"strings"
	"sync"
	"testing"

	"sphinx/internal/dataset"
	"sphinx/internal/obs"
	"sphinx/internal/ycsb"
)

// TestIndexBlocksAttached checks the per-phase SFC/INHT sections: hit
// depth observed, measured FP rate next to the analytic bound, INHT load
// factor from the MN-side scan, and the FP↔hash-read-RT reconciliation
// verdict on the read-only workload.
func TestIndexBlocksAttached(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Metrics = true
	cfg.Live = NewLive() // turns tail sampling on
	cl, err := NewCluster(Sphinx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Run(ycsb.WorkloadC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics == nil || r.Metrics.SFC == nil || r.Metrics.INHT == nil {
		t.Fatalf("missing metrics sections: %+v", r.Metrics)
	}
	sfc, inht := r.Metrics.SFC, r.Metrics.INHT
	if sfc.HitDepth.Count == 0 || sfc.HitDepth.Mean <= 0 {
		t.Errorf("no SFC hit-depth distribution: %+v", sfc.HitDepth)
	}
	if sfc.Load <= 0 || sfc.AnalyticFPBound <= 0 {
		t.Errorf("SFC load/bound not exported: load=%v bound=%v", sfc.Load, sfc.AnalyticFPBound)
	}
	if sfc.FilterHits == 0 {
		t.Error("warm YCSB-C run resolved no locates via the filter")
	}
	if sfc.FPReconciled == nil {
		t.Fatal("read-only depth-1 phase did not get an fp_reconciled verdict")
	}
	if !*sfc.FPReconciled {
		t.Errorf("false positives do not reconcile with hash-read round trips: %+v / lookups=%d retries=%d refreshes=%d",
			sfc, inht.Lookups, inht.RetryReads, inht.Refreshes)
	}
	if inht.LoadFactor <= 0 || inht.Entries == 0 || inht.CapacityEntries == 0 {
		t.Errorf("INHT usage scan empty: %+v", inht)
	}
	if inht.Lookups == 0 || inht.Candidates.Count == 0 {
		t.Errorf("INHT lookup accounting empty: %+v", inht)
	}
	if r.Metrics.TailOffered == 0 {
		t.Error("tail sampler was not offered any ops")
	}

	// The write-heavy workload must not claim the read-only invariant.
	ra, err := cl.Run(ycsb.WorkloadA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Metrics.SFC != nil && ra.Metrics.SFC.FPReconciled != nil {
		t.Error("fp_reconciled set for a write-heavy phase")
	}

	// The filter-less ablation gets an INHT section but no SFC section.
	cfgNo := cfg
	clNo, err := NewCluster(SphinxNoSFC, cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clNo.Load(0); err != nil {
		t.Fatal(err)
	}
	rNo, err := clNo.Run(ycsb.WorkloadC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rNo.Metrics.SFC != nil {
		t.Error("filter-less ablation produced an SFC section")
	}
	// The parallel-read path prepares raw bucket reads rather than
	// calling Lookup, so only the structural scan is asserted here.
	if rNo.Metrics.INHT == nil || rNo.Metrics.INHT.LoadFactor <= 0 {
		t.Errorf("filter-less ablation INHT section: %+v", rNo.Metrics.INHT)
	}
}

// TestLiveRegistryServesDuringRun scrapes the Live registry concurrently
// with a running workload (meaningful under -race) and asserts the
// metric families the CI smoke test curls for are present.
func TestLiveRegistryServesDuringRun(t *testing.T) {
	lv := NewLive()
	cfg := smallConfig(dataset.U64)
	cfg.Metrics = true
	cfg.Live = lv
	reg := lv.Registry() // built before scraping starts

	cl, err := NewCluster(Sphinx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			_ = snap.WritePrometheus(io.Discard, "sphinx")
			_ = snap.WriteJSON(io.Discard)
			lv.Tail.Samples()
		}
	}()
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(ycsb.WorkloadC, 0, 0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb, "sphinx"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"sphinx_sfc_load", "sphinx_sfc_hit_depth", "sphinx_sfc_false_positive_rate",
		"sphinx_inht_load_factor", "sphinx_inht_lookups",
		"sphinx_core_filter_hits", "sphinx_filter_hits",
		"sphinx_tail_offered", "sphinx_bench_op_latency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live /metrics output missing %s", want)
		}
	}
	if offered, _ := lv.Tail.Stats(); offered == 0 {
		t.Error("live tail sampler saw no ops")
	}
}

// TestLiveRegistryFollowsRunningPhase scrapes the live registry from inside a
// phase body: the index counters must already hold the phase's own
// operations (they used to be folded in only when a phase ended, so
// sfc_false_positive_rate divided the last phase's false positives by this
// phase's probes), and once the phase is over the totals must have moved by
// exactly what its Result reports — nothing counted twice, nothing dropped.
func TestLiveRegistryFollowsRunningPhase(t *testing.T) {
	lv := NewLive()
	cfg := smallConfig(dataset.U64)
	cfg.Keys, cfg.Workers, cfg.Metrics, cfg.Live = 2000, 1, true, lv
	cl, err := NewCluster(Sphinx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	reg := lv.Registry()
	before := reg.Snapshot()
	var during obs.Snapshot
	// No leaf-address cache on the worker, so every Search goes through the
	// filter and the hash table.
	const searches = 500
	r, err := cl.measure("probe", 1, 1, sequential(cl.NewIndexNoSpec), func(w *worker) error {
		for i := 0; i < searches; i++ {
			if _, err := w.timed(obs.OpGet, func() error {
				_, _, err := w.idx.Search(cl.keys[i*3])
				return err
			}); err != nil {
				return err
			}
		}
		during = reg.Snapshot().Sub(before)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := during.Counters["core_searches"]; got < searches {
		t.Errorf("core_searches moved by %d inside a phase of %d Searches", got, searches)
	}
	probes := during.Counters["filter_hits"] + during.Counters["filter_misses"]
	if fp := during.Counters["core_false_positives"]; probes == 0 || fp > probes {
		t.Errorf("inside the phase: %d false positives against %d filter probes", fp, probes)
	}
	after := reg.Snapshot().Sub(before)
	for name, want := range map[string]uint64{
		"core_searches":        r.Ops,
		"core_filter_hits":     r.Metrics.SFC.FilterHits,
		"core_false_positives": r.Metrics.SFC.FalsePositives,
		"inht_lookups":         r.Metrics.INHT.Lookups,
		"inht_retry_reads":     r.Metrics.INHT.RetryReads,
	} {
		if got := after.Counters[name]; got != want {
			t.Errorf("%s moved by %d over the phase, its Result reports %d", name, got, want)
		}
	}
}
