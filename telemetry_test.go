package sphinx

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"sphinx/internal/fabric"
)

// TestRegistryScrapeRaceClean hammers the session registry — snapshots,
// diffs, Prometheus and JSON rendering — from a scraper goroutine while
// the session drives a depth-8 pipelined MultiGet storm. Run under -race
// this proves a live /metrics endpoint can serve mid-run: every counter
// the registry closures touch (fabric, core, engine, hash-table views,
// filter cache, INHT usage scan, tail sampler) must be scrape-safe.
func TestRegistryScrapeRaceClean(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingInstant})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	keys := make([][]byte, 400)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("scrape-%04d", i))
		if err := s.Put(keys[i], []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	reg := s.Registry() // build the closures before the scraper starts
	base := reg.Snapshot()

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
			_ = snap.Sub(base).WritePrometheus(io.Discard, "sphinx")
			_ = snap.WriteJSON(io.Discard)
			s.Tail().Samples()
		}
	}()
	for round := 0; round < 30; round++ {
		for _, r := range s.MultiGet(keys, 8) {
			if r.Err != nil {
				t.Errorf("MultiGet: %v", r.Err)
			}
		}
	}
	close(stop)
	wg.Wait()

	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb, "sphinx"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"sphinx_sfc_load", "sphinx_inht_load_factor",
		"sphinx_inht_lookups", "sphinx_sfc_hit_depth", "sphinx_core_filter_hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %s", want)
		}
	}
}

// randKeys returns n deterministic pseudo-random keys of the given
// length over 'A'..'Z' — disjoint from the lowercase present keys, and
// with (almost) no shared prefixes between keys. Distinctness matters
// for false-positive measurement: locate unlearns a prefix from the
// filter after its first false positive, so a prefix shared by many
// probe keys can contribute at most one FP no matter how often it is
// probed. Distinct prefixes keep the measured per-probe rate comparable
// to the analytic per-probe bound.
func randKeys(n, length int, seed uint64) [][]byte {
	rng := seed
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, length)
		for j := range k {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			k[j] = 'A' + byte(rng%26)
		}
		keys[i] = k
	}
	return keys
}

// TestMeasuredFPRateGauge loads the index, tops the CN filter up to a
// high load with synthetic entries, probes thousands of absent keys, and
// checks that the measured false-positive rate (core false positives per
// filter probe) lands within tolerance of the analytic cuckoo bound the
// registry exports next to it.
func TestMeasuredFPRateGauge(t *testing.T) {
	// A small filter so the probe phase runs it at meaningful load.
	// A leaf-address cache far smaller than the key set: leaves displace node
	// words, so some landings remember their node and the others ask the table.
	cluster, err := newTestCluster(Config{Timing: TimingInstant, CacheBytes: 2 << 10, LeafCacheBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cn := cluster.NewComputeNode()
	s := cn.NewSession()
	for i := 0; i < 2000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("get%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Top the filter up with synthetic prefixes. They are never probed
	// directly, but their fingerprints collide with absent-probe hashes
	// exactly like real entries, raising the load — and with it both the
	// analytic bound and the measured rate — into testable territory.
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20000 && cn.node.Filter.Load() < 0.85; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		cn.node.Filter.Insert(rng)
	}
	load := cn.node.Filter.Load()
	if load < 0.5 {
		t.Fatalf("could not reach meaningful filter load: %.2f", load)
	}

	fp0 := s.sphinx.Stats().FalsePositives
	fst0 := cn.node.Filter.FilterStats()
	const absents = 3000
	for i, key := range randKeys(absents, 12, 0x5eed) {
		if _, ok, err := s.Get(key); err != nil || ok {
			t.Fatalf("absent get %d: ok=%v err=%v", i, ok, err)
		}
	}
	fp := s.sphinx.Stats().FalsePositives - fp0
	fst := cn.node.Filter.FilterStats()
	probes := fst.Hits + fst.Misses - fst0.Hits - fst0.Misses
	if probes < absents {
		t.Fatalf("probe accounting off: %d probes for %d absent gets", probes, absents)
	}
	measured := float64(fp) / float64(probes)
	analytic := cn.node.Filter.AnalyticFPBound()
	t.Logf("load %.2f, probes %d, false positives %d: measured %.5f vs analytic %.5f",
		cn.node.Filter.Load(), probes, fp, measured, analytic)
	if measured < 0.3*analytic || measured > 2.0*analytic {
		t.Fatalf("measured FP rate %.5f outside [0.3, 2.0]× analytic bound %.5f", measured, analytic)
	}

	// The exported gauge is the cumulative rate over the session's whole
	// life (load phase included), so it must be positive and cannot
	// exceed the probe-phase rate by more than rounding.
	snap := s.Registry().Snapshot()
	gauge, ok := snap.Gauges["sfc_false_positive_rate"]
	if !ok {
		t.Fatalf("sfc_false_positive_rate gauge missing (gauges: %v)", snap.Gauges)
	}
	if gauge <= 0 || gauge > 1.2*measured {
		t.Fatalf("gauge %.5f inconsistent with measured probe-phase rate %.5f", gauge, measured)
	}
	if bound, ok := snap.Gauges["sfc_analytic_fp_bound"]; !ok || bound <= 0 {
		t.Fatalf("sfc_analytic_fp_bound gauge missing or zero (gauges: %v)", snap.Gauges)
	}
}

// TestFPHashReadReconciliation pins the telemetry invariant documented in
// DESIGN.md §5.9: in a read-only steady state every hash-read-stage round
// trip is a hash-table lookup, a stale-directory retry, or half a
// directory refresh — and every lookup is either a filter hit or a false
// positive. A filter hit whose node is read at a remembered address is the
// one claim that looks nothing up (a refuted or untrusted address asks the
// table and counts as what the table says). So the SFC's false positives are
// exactly the extra hash-read round trips beyond the filter hits that asked.
func TestFPHashReadReconciliation(t *testing.T) {
	// A leaf-address cache far smaller than the key set: leaves displace node
	// words, so some landings remember their node and the others ask the table.
	cluster, err := newTestCluster(Config{Timing: TimingInstant, CacheBytes: 2 << 10, LeafCacheBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cn := cluster.NewComputeNode()
	s := cn.NewSession()
	for i := 0; i < 1500; i++ {
		if err := s.Put([]byte(fmt.Sprintf("rec%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	st0 := s.sphinx.Stats()
	hs0 := s.sphinx.HashStats()
	rt0 := s.Metrics().StageRT(fabric.StageHashRead).Sum
	absent := randKeys(800, 8, 0xf00d) // distinct prefixes: see randKeys
	for i := 0; i < 4000; i++ {
		key := []byte(fmt.Sprintf("rec%05d", i%1500))
		if i%5 == 4 {
			key = absent[i/5] // absent: exercises false positives
		}
		if _, _, err := s.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	st := s.sphinx.Stats()
	hs := s.sphinx.HashStats()
	rt := s.Metrics().StageRT(fabric.StageHashRead).Sum

	if st.Restarts != st0.Restarts || st.StaleEntries != st0.StaleEntries {
		t.Fatalf("read-only phase was not steady: restarts %d→%d, stale %d→%d",
			st0.Restarts, st.Restarts, st0.StaleEntries, st.StaleEntries)
	}
	lookups := hs.Lookups - hs0.Lookups
	claims := (st.FilterHits - st0.FilterHits) + (st.FalsePositives - st0.FalsePositives)
	remembered := st.NodeHits - st0.NodeHits
	if lookups != claims-remembered {
		t.Fatalf("hash lookups %d != filter hits + false positives %d − node hits %d", lookups, claims, remembered)
	}
	if remembered == 0 || remembered == st.FilterHits-st0.FilterHits {
		t.Fatalf("%d of %d filter hits landed at a remembered address; the phase should take both routes",
			remembered, st.FilterHits-st0.FilterHits)
	}
	wantRT := lookups + (hs.RetryReads - hs0.RetryReads) + 2*(hs.Refreshes-hs0.Refreshes)
	if got := rt - rt0; got != wantRT {
		t.Fatalf("hash-read stage RTs %d != lookups + retries + 2×refreshes %d", got, wantRT)
	}
	if fp := st.FalsePositives - st0.FalsePositives; fp == 0 {
		t.Fatal("phase produced no false positives; reconciliation untested")
	}
}

// TestTailSamplerCapturesSlowOps runs a timed workload and checks that
// the always-on sampler retains annotated slow-op timelines.
func TestTailSamplerCapturesSlowOps(t *testing.T) {
	cluster, err := newTestCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	for i := 0; i < 300; i++ {
		if err := s.Put([]byte(fmt.Sprintf("tail-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1200; i++ {
		if _, _, err := s.Get([]byte(fmt.Sprintf("tail-%04d", i%300))); err != nil {
			t.Fatal(err)
		}
	}
	offered, captured := s.Tail().Stats()
	if offered == 0 || captured == 0 {
		t.Fatalf("tail sampler captured nothing (offered %d, captured %d)", offered, captured)
	}
	samples := s.Tail().Samples()
	if len(samples) == 0 {
		t.Fatal("no samples retained")
	}
	for _, sm := range samples[:1] {
		if sm.Cause == "" {
			t.Error("sample has no cause annotation")
		}
		if sm.Trace == nil || len(sm.Trace.Events) == 0 {
			t.Error("sample trace has no recorded events")
		}
		if sm.LatencyPs < sm.ThresholdPs {
			t.Errorf("capture below threshold: %d < %d", sm.LatencyPs, sm.ThresholdPs)
		}
	}
	// TimingInstant sessions must never capture: zero-latency timelines
	// carry no tail signal.
	instant, err := newTestCluster(Config{Timing: TimingInstant})
	if err != nil {
		t.Fatal(err)
	}
	si := instant.NewComputeNode().NewSession()
	_ = si.Put([]byte("k"), []byte("v"))
	for i := 0; i < 500; i++ {
		_, _, _ = si.Get([]byte("k"))
	}
	if _, cap0 := si.Tail().Stats(); cap0 != 0 {
		t.Fatalf("instant-timing session captured %d tail samples, want 0", cap0)
	}
}
