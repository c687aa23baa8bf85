package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
	"sphinx/internal/ycsb"
)

// TestIndexBlocksAttached checks a Sphinx phase's section — the phase
// registry's diff under the names of /metrics: hit depth observed, the SFC's
// load next to its analytic bound, the INHT's load factor from the MN-side
// scan, tail counts, and the FP↔hash-read-RT verdict on the read-only
// workload only. The filter-less ablation's section has no sfc or filter
// family and no fp verdict.
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
	if r.Metrics == nil {
		t.Fatal("no metrics section")
	}
	s := r.Metrics.Snapshot
	if h := s.Hists["sfc_hit_depth"]; h.Count == 0 || h.Mean() <= 0 {
		t.Errorf("no SFC hit-depth distribution: %+v", h)
	}
	if s.Gauges["sfc_load"] <= 0 || s.Gauges["sfc_analytic_fp_bound"] <= 0 {
		t.Errorf("SFC load/bound not exported: %v", s.Gauges)
	}
	if s.Counters["core_filter_hits"] == 0 {
		t.Error("warm YCSB-C run resolved no locates via the filter")
	}
	if v := r.Metrics.FPReconciled; v == nil || !*v {
		t.Errorf("read-only depth-1 phase: fp_reconciled %s; counters %v", verdictString(v), s.Counters)
	}
	if s.Gauges["inht_load_factor"] <= 0 || s.Gauges["inht_entries"] == 0 || s.Gauges["inht_capacity_entries"] == 0 {
		t.Errorf("INHT usage scan empty: %v", s.Gauges)
	}
	if s.Counters["inht_lookups"] == 0 || s.Hists["inht_candidates"].Count == 0 {
		t.Errorf("INHT lookup accounting empty: %v", s.Counters)
	}
	if s.Counters["tail_offered"] == 0 {
		t.Error("tail sampler was not offered any ops")
	}

	// The write-heavy workload must not claim the read-only invariant.
	ra, err := cl.Run(ycsb.WorkloadA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Metrics.FPReconciled != nil {
		t.Error("fp_reconciled set for a write-heavy phase")
	}

	clNo, err := NewCluster(SphinxNoSFC, cfg)
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
	for name := range families(rNo.Metrics.Snapshot) {
		if strings.HasPrefix(name, "sfc_") || strings.HasPrefix(name, "filter_") {
			t.Errorf("filter-less ablation's section has %s", name)
		}
	}
	if rNo.Metrics.FPReconciled != nil {
		t.Error("filter-less ablation got an fp_reconciled verdict")
	}
	// The parallel-read path prepares raw bucket reads rather than
	// calling Lookup, so only the structural scan is asserted here.
	if rNo.Metrics.Snapshot.Gauges["inht_load_factor"] <= 0 {
		t.Errorf("filter-less ablation INHT gauges: %v", rNo.Metrics.Snapshot.Gauges)
	}
}

// TestVerdictsReadTheSection feeds the verdict function a read-only phase's
// section with one count too many: one more hash lookup than the filter's
// claims explain breaks fp_reconciled alone, one more leaf-spec round trip
// than speculative outcomes breaks lac_reconciled (and the round-trip sum).
func TestVerdictsReadTheSection(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Workers, cfg.Metrics = 1, true
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
	if m := r.Metrics; !m.RTReconciled || m.FPReconciled == nil || !*m.FPReconciled || m.LACReconciled == nil || !*m.LACReconciled {
		t.Fatalf("read-only phase: rt %v fp %s lac %s", m.RTReconciled, verdictString(m.FPReconciled), verdictString(m.LACReconciled))
	}
	leafSpec := fmt.Sprintf("bench_stage_round_trips{stage=%q}", fabric.StageLeafSpec)
	for _, tc := range []struct {
		name        string
		mutate      func(obs.Snapshot)
		rt, fp, lac bool
	}{
		{"one extra inht_lookups", func(s obs.Snapshot) { s.Counters["inht_lookups"]++ }, true, false, true},
		{"one extra leaf-spec round trip", func(s obs.Snapshot) {
			h := s.Hists[leafSpec]
			h.Count, h.Sum = h.Count+1, h.Sum+1
			s.Hists[leafSpec] = h
		}, false, true, false},
	} {
		s := r.Metrics.Snapshot.Sub(obs.Snapshot{}) // a copy
		tc.mutate(s)
		m := MetricsBlock{Snapshot: s}
		m.reconcile(r.RoundTrips, r.Depth)
		if m.RTReconciled != tc.rt || m.FPReconciled == nil || *m.FPReconciled != tc.fp ||
			m.LACReconciled == nil || *m.LACReconciled != tc.lac {
			t.Errorf("%s: rt %v fp %s lac %s; want rt %v fp %v lac %v", tc.name,
				m.RTReconciled, verdictString(m.FPReconciled), verdictString(m.LACReconciled), tc.rt, tc.fp, tc.lac)
		}
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
// phase's probes), and once the phase is over every counter of the index
// families must have moved by exactly what its Result's section reports —
// nothing counted twice, nothing dropped, no counter on one side only.
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
	r, err := cl.measure("probe", 1, 1, cl.noSpec, func(w *worker) error {
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
	section := r.Metrics.Snapshot.Counters
	if section["core_searches"] != r.Ops || section["inht_lookups"] == 0 {
		t.Errorf("section: core_searches %d for %d ops, inht_lookups %d", section["core_searches"], r.Ops, section["inht_lookups"])
	}
	after := reg.Snapshot().Sub(before)
	compared := 0
	for name, got := range after.Counters {
		family, _, _ := strings.Cut(name, "_")
		switch family {
		case "core", "inht", "filter", "lac", "engine":
		default:
			continue
		}
		compared++
		if want, ok := section[name]; !ok || got != want {
			t.Errorf("%s moved by %d over the phase, its Result's section reports %d (present %v)", name, got, want, ok)
		}
	}
	for name := range section {
		if _, ok := after.Counters[name]; !ok {
			t.Errorf("%s is in the section and not on the live registry", name)
		}
	}
	if compared < 50 {
		t.Errorf("only %d index counters compared", compared)
	}
}
