package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sphinx/internal/cluster"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/ycsb"
)

func smallConfig(kind dataset.Kind) Config {
	return Config{
		Dataset:      kind,
		Keys:         3000,
		Workers:      6,
		OpsPerWorker: 100,
		Net:          fabric.DefaultConfig(),
		Seed:         1,
	}
}

func TestLoadAndRunAllSystems(t *testing.T) {
	for _, sys := range PaperSystems {
		cl, err := NewCluster(sys, smallConfig(dataset.U64))
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		load, err := cl.Load(0)
		if err != nil {
			t.Fatalf("%v load: %v", sys, err)
		}
		if load.Ops != 3000 || load.ThroughputMops <= 0 {
			t.Errorf("%v load result: %+v", sys, load)
		}
		// Every loaded key must be readable through a fresh index.
		idx := cl.NewIndex(0)
		for i, k := range cl.Keys() {
			if i%97 != 0 {
				continue
			}
			v, ok, err := idx.Search(k)
			if err != nil || !ok || !bytes.Equal(v, cl.Value()) {
				t.Fatalf("%v key %d unreadable: ok=%v err=%v", sys, i, ok, err)
			}
		}
		r, err := cl.Run(ycsb.WorkloadA, 0, 0)
		if err != nil {
			t.Fatalf("%v run A: %v", sys, err)
		}
		if r.Ops != 600 || r.ThroughputMops <= 0 || r.AvgLatUs <= 0 {
			t.Errorf("%v A result: %+v", sys, r)
		}
	}
}

func TestAllWorkloadsExecute(t *testing.T) {
	cl, err := NewCluster(Sphinx, smallConfig(dataset.Email))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE} {
		r, err := cl.Run(w, 0, 0)
		if err != nil {
			t.Fatalf("workload %s: %v", w.Name, err)
		}
		if r.RoundTripsPerOp <= 0 {
			t.Errorf("workload %s: no network accounting", w.Name)
		}
	}
}

func TestSphinxBeatsARTOnScans(t *testing.T) {
	// The Fig. 4 YCSB-E shape: batched scans must use far fewer round
	// trips per op than the naive port.
	cfg := smallConfig(dataset.U64)
	run := func(sys System) Result {
		cl, err := NewCluster(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Load(0); err != nil {
			t.Fatal(err)
		}
		r, err := cl.Run(ycsb.WorkloadE, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	sphinx := run(Sphinx)
	art := run(ART)
	if art.RoundTripsPerOp < sphinx.RoundTripsPerOp*1.5 {
		t.Errorf("scan round trips: ART %.1f vs Sphinx %.1f — batching advantage missing",
			art.RoundTripsPerOp, sphinx.RoundTripsPerOp)
	}
}

func TestSphinxReadsFewerBytesThanSMART(t *testing.T) {
	// The §III-B bandwidth argument: Sphinx reads one 64 B bucket plus an
	// adaptive node; SMART reads Node-256 images.
	cfg := smallConfig(dataset.Email)
	run := func(sys System) Result {
		cl, err := NewCluster(sys, cfg)
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
		return r
	}
	sphinx := run(Sphinx)
	smart := run(SMART)
	if smart.BytesPerOp < sphinx.BytesPerOp*3 {
		t.Errorf("bytes/op: SMART %.0f vs Sphinx %.0f — bandwidth gap missing",
			smart.BytesPerOp, sphinx.BytesPerOp)
	}
}

func TestFig6Shapes(t *testing.T) {
	var sb strings.Builder
	usages, err := Fig6(smallConfig(dataset.Email), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(usages) != 3 {
		t.Fatalf("fig6 returned %d systems", len(usages))
	}
	art, sphinx, smart := usages[0], usages[1], usages[2]
	// Sphinx's tree is the same as ART's, plus the hash table.
	if sphinx.HashBytes() == 0 {
		t.Error("Sphinx reports no hash-table bytes")
	}
	if smart.IndexBytes() <= art.IndexBytes() {
		t.Errorf("SMART (%d) not larger than ART (%d)", smart.IndexBytes(), art.IndexBytes())
	}
	if got := float64(smart.IndexBytes()) / float64(art.IndexBytes()); got < 1.3 {
		t.Errorf("SMART/ART ratio %.2f too small for Node-256 preallocation", got)
	}
}

func TestAblationOrdering(t *testing.T) {
	// One worker on one CN, as many ops as smallConfig's six workers: both
	// systems load the same tree and run the same op stream, so the noSFC
	// row differs from Sphinx's by the filter cache alone.
	cfg := smallConfig(dataset.Email)
	cfg.OpsPerWorker *= cfg.Workers
	cfg.Workers, cfg.CNs = 1, 1
	var sb strings.Builder
	results, err := Ablation(cfg, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// results: [Sphinx C, Sphinx A, noSFC C, noSFC A]
	full, noSFC := results[0], results[2]
	if noSFC.BytesPerOp < full.BytesPerOp*2 {
		t.Errorf("disabling the filter cache should multiply bytes/op: %.0f vs %.0f",
			noSFC.BytesPerOp, full.BytesPerOp)
	}
}

// TestRestartsReportedForEverySystem: Result.Restarts is documented "all
// systems". The baselines' operation-level restarts are counted by the
// engine's retry loop, Sphinx's by its own driver; under injected faults a
// load restarts on every one of them.
func TestRestartsReportedForEverySystem(t *testing.T) {
	for _, sys := range PaperSystems {
		cfg := smallConfig(dataset.U64)
		cfg.Workers, cfg.CNs = 1, 1
		cfg.Faults = &fabric.FaultPlan{Seed: 1, TransientPer64k: 600, TimeoutPer64k: 300}
		cl, err := NewCluster(sys, cfg)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		load, err := cl.Load(0)
		if err != nil {
			t.Fatalf("%v load: %v", sys, err)
		}
		if load.TransientFaults == 0 || load.Restarts == 0 {
			t.Errorf("%v load under faults reports %d restarts for %d transients and %d timeouts",
				sys, load.Restarts, load.TransientFaults, load.Timeouts)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Keys == 0 || c.ValueSize != 64 || c.MNs != 3 || c.CNs != 3 {
		t.Errorf("defaults: %+v", c)
	}
	// The budgets the clusters are built with (NewCluster calls cacheBudget).
	smartC, smart := cacheBudget(SMARTC, c.Keys), cacheBudget(SMART, c.Keys)
	if smart == 0 || smartC != smart*10 {
		t.Errorf("SMART+C cache must be 10× SMART's: %d vs %d", smartC, smart)
	}
	if sphinx := cacheBudget(Sphinx, c.Keys); sphinx != smart {
		t.Errorf("Sphinx's filter budget %d must equal SMART's cache budget %d", sphinx, smart)
	}
}

func TestResultRow(t *testing.T) {
	r := Result{System: "Sphinx", Workload: "A", Dataset: "u64", Workers: 6, ThroughputMops: 1.5}
	if !strings.Contains(r.Row(), "Sphinx") || !strings.Contains(ResultHeader(), "tput") {
		t.Error("row formatting broken")
	}
}

func TestScalingTrend(t *testing.T) {
	var sb strings.Builder
	base := smallConfig(dataset.Email)
	results, err := TreeDepthScaling(base, []int{1000, 8000}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("scaling returned %d results", len(results))
	}
	// ART's round trips must grow with tree depth; Sphinx's must not.
	sphinxSmall, artSmall := results[0], results[1]
	sphinxBig, artBig := results[2], results[3]
	if artBig.RoundTripsPerOp <= artSmall.RoundTripsPerOp {
		t.Errorf("ART RT/op did not grow with keys: %.2f vs %.2f",
			artSmall.RoundTripsPerOp, artBig.RoundTripsPerOp)
	}
	if sphinxBig.RoundTripsPerOp > sphinxSmall.RoundTripsPerOp+0.5 {
		t.Errorf("Sphinx RT/op grew with keys: %.2f vs %.2f",
			sphinxSmall.RoundTripsPerOp, sphinxBig.RoundTripsPerOp)
	}
}

func TestWorkerScalingShape(t *testing.T) {
	var sb strings.Builder
	base := smallConfig(dataset.U64)
	base.Keys = 2000
	base.OpsPerWorker = 60
	results, err := WorkerScaling(base, []int{1, 2}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("worker scaling returned %d results", len(results))
	}
	for i, r := range results {
		if wantWkr := i + 1; r.System != "Sphinx" || r.Workers != wantWkr {
			t.Errorf("result %d = %s/%d workers, want Sphinx/%d", i, r.System, r.Workers, wantWkr)
		}
		if r.WallElapsedNs <= 0 || r.WallMops <= 0 {
			t.Errorf("result %d (%s w%d) has no wall-clock measurement: %+v ns %.4f Mops",
				i, r.System, r.Workers, r.WallElapsedNs, r.WallMops)
		}
		if r.ParallelEfficiency <= 0 {
			t.Errorf("result %d (%s w%d) has no parallel efficiency", i, r.System, r.Workers)
		}
		if r.Workload != fmt.Sprintf("C/w%d", r.Workers) {
			t.Errorf("result %d workload = %q", i, r.Workload)
		}
	}
	// The first point is the efficiency baseline.
	if results[0].ParallelEfficiency != 1 {
		t.Errorf("first-point efficiency = %.2f, want 1", results[0].ParallelEfficiency)
	}
}

func TestValueSweepInPlaceThreshold(t *testing.T) {
	var sb strings.Builder
	base := smallConfig(dataset.U64)
	results, err := ValueSweep(base, []int{64, 512}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("valsweep returned %d results", len(results))
	}
	// Larger values exceed the speculative leaf read: more bytes and at
	// least one extra round trip per op.
	if results[1].BytesPerOp <= results[0].BytesPerOp {
		t.Error("larger values did not increase bytes/op")
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	rs := []Result{{System: "Sphinx", Workload: "A", Dataset: "u64", Workers: 6, Ops: 100, ThroughputMops: 1.5}}
	if err := WriteCSV(rs, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "system,workload") || !strings.Contains(out, "Sphinx,A,u64,6,100,1.5000") {
		t.Errorf("csv output:\n%s", out)
	}
	if strings.Count(out, "\n") != 2 {
		t.Errorf("csv line count wrong:\n%s", out)
	}
}

func TestSphinxDiagAttached(t *testing.T) {
	cl, err := NewCluster(Sphinx, smallConfig(dataset.U64))
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
	if r.SphinxFilterHitPct <= 0 {
		t.Errorf("no filter-hit diagnostics attached: %+v", r)
	}
	if r.Diag() == "" {
		t.Error("Diag() empty for Sphinx run")
	}
	// Baselines carry no Sphinx diagnostics.
	art, err := NewCluster(ART, smallConfig(dataset.U64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := art.Load(0); err != nil {
		t.Fatal(err)
	}
	ra, err := art.Run(ycsb.WorkloadC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Diag() != "" {
		t.Errorf("ART run carries Sphinx diagnostics: %s", ra.Diag())
	}
}

func TestCrossSystemEquivalence(t *testing.T) {
	// The strongest functional check in the repository: one random
	// operation stream applied to Sphinx, SMART and the naive ART port
	// must leave all three indexes in identical states (validated by a
	// full scan), agreeing with a map oracle at every read.
	cfg := smallConfig(dataset.U64)
	cfg.Net = fabric.InstantConfig()
	type sysState struct {
		name string
		idx  cluster.Index
	}
	var systems []sysState
	var scanners []*Cluster
	for _, sys := range []System{Sphinx, SMART, ART} {
		cl, err := NewCluster(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx := cl.NewIndex(0)
		systems = append(systems, sysState{sys.String(), idx})
		scanners = append(scanners, cl)
	}
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(2024))
	randKey := func() []byte {
		n := 1 + rng.Intn(9)
		k := make([]byte, n)
		for i := range k {
			k[i] = byte('a' + rng.Intn(4))
		}
		return k
	}
	for step := 0; step < 2500; step++ {
		k := randKey()
		op := rng.Intn(5)
		v := fmt.Sprintf("v%d", step)
		for _, s := range systems {
			switch op {
			case 0, 1:
				existed, err := s.idx.Insert(k, []byte(v))
				if err != nil {
					t.Fatalf("step %d %s insert: %v", step, s.name, err)
				}
				if _, want := oracle[string(k)]; existed != want {
					t.Fatalf("step %d %s insert existed=%v want %v", step, s.name, existed, want)
				}
			case 2:
				ok, err := s.idx.Delete(k)
				if err != nil {
					t.Fatalf("step %d %s delete: %v", step, s.name, err)
				}
				if _, want := oracle[string(k)]; ok != want {
					t.Fatalf("step %d %s delete ok=%v want %v", step, s.name, ok, want)
				}
			case 3:
				ok, err := s.idx.Update(k, []byte(v))
				if err != nil {
					t.Fatalf("step %d %s update: %v", step, s.name, err)
				}
				if _, want := oracle[string(k)]; ok != want {
					t.Fatalf("step %d %s update ok=%v want %v", step, s.name, ok, want)
				}
			default:
				got, ok, err := s.idx.Search(k)
				if err != nil {
					t.Fatalf("step %d %s search: %v", step, s.name, err)
				}
				want, wantOK := oracle[string(k)]
				if ok != wantOK || (ok && string(got) != want) {
					t.Fatalf("step %d %s search %q = %q,%v want %q,%v",
						step, s.name, k, got, ok, want, wantOK)
				}
			}
		}
		// Mirror into the oracle after all systems executed.
		switch op {
		case 0, 1:
			oracle[string(k)] = v
		case 2:
			delete(oracle, string(k))
		case 3:
			if _, present := oracle[string(k)]; present {
				oracle[string(k)] = v
			}
		}
	}
	// Full-state equivalence via scans.
	var images []string
	for i, s := range systems {
		kvs, err := s.idx.Scan([]byte{0}, nil, 0)
		if err != nil {
			t.Fatalf("%s scan: %v", s.name, err)
		}
		img := ""
		for _, kv := range kvs {
			img += fmt.Sprintf("%q=%q;", kv.Key, kv.Value)
		}
		images = append(images, img)
		if len(kvs) != len(oracle) {
			t.Fatalf("%s holds %d keys, oracle %d", s.name, len(kvs), len(oracle))
		}
		_ = scanners[i]
	}
	if images[0] != images[1] || images[1] != images[2] {
		t.Fatal("systems diverged in final state")
	}
}

// TestPipelineSpeedup is the issue-depth acceptance criterion: YCSB-C
// with a warm filter must run at least 1.5x faster (virtual time) at
// depth 8 than at depth 1, with fewer round trips per op, because the
// concurrent ops' same-stage verbs share doorbell batches.
func TestPipelineSpeedup(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Keys = 10_000
	cfg.Workers = 4
	cfg.OpsPerWorker = 400
	cl, err := NewCluster(Sphinx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	run := func(depth int) Result {
		cl.Cfg.Depth = depth
		r, err := cl.Run(ycsb.WorkloadC, 0, 0)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if r.Depth != depth {
			t.Fatalf("result depth = %d, want %d", r.Depth, depth)
		}
		return r
	}
	d1 := run(1)
	d8 := run(8)
	speedup := d8.ThroughputMops / d1.ThroughputMops
	if speedup < 1.5 {
		t.Errorf("depth-8 speedup = %.2fx (%.3f vs %.3f Mops), want >= 1.5x",
			speedup, d8.ThroughputMops, d1.ThroughputMops)
	}
	if d8.RoundTripsPerOp >= d1.RoundTripsPerOp {
		t.Errorf("depth-8 RT/op %.2f not below depth-1 %.2f",
			d8.RoundTripsPerOp, d1.RoundTripsPerOp)
	}
	t.Logf("depth-8 speedup %.2fx, RT/op %.2f -> %.2f", speedup, d1.RoundTripsPerOp, d8.RoundTripsPerOp)
}

// TestPipelineSweepRuns exercises the experiment end to end at tiny
// scale, including the JSON artifact it feeds.
func TestPipelineSweepRuns(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	var buf bytes.Buffer
	results, err := PipelineSweep(cfg, []int{1, 4}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 { // C and A at two depths each
		t.Fatalf("got %d results, want 4", len(results))
	}
	if !strings.Contains(buf.String(), "C/d4") {
		t.Errorf("sweep output missing depth row:\n%s", buf.String())
	}
	rep := NewJSONReport("pipeline", cfg)
	rep.Results = results
	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if back.Experiment != "pipeline" || len(back.Results) != 4 {
		t.Errorf("round-tripped report: experiment=%q results=%d", back.Experiment, len(back.Results))
	}
	if back.Results[1].Depth != 4 || back.Results[1].ThroughputMops <= back.Results[0].ThroughputMops {
		t.Errorf("depth-4 row %+v not faster than depth-1 %+v", back.Results[1], back.Results[0])
	}
}
