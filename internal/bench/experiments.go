package bench

import (
	"fmt"
	"io"
	"runtime"

	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/ycsb"
)

// loaded builds a cluster of the system and populates it with the
// dataset, returning the load phase's measurement beside it.
func loaded(sys System, cfg Config) (*Cluster, Result, error) {
	cl, err := NewCluster(sys, cfg)
	if err != nil {
		return nil, Result{}, err
	}
	load, err := cl.Load(0)
	if err != nil {
		return nil, Result{}, fmt.Errorf("%v load: %w", sys, err)
	}
	return cl, load, nil
}

// table is an experiment's result table: rows are printed as they land
// and collected for the caller.
type table struct {
	out  io.Writer
	rows []Result
}

// newTable prints the experiment's title line and the column header.
func newTable(out io.Writer, title string, args ...any) *table {
	fmt.Fprintf(out, title, args...)
	fmt.Fprintln(out, ResultHeader())
	return &table{out: out}
}

// add appends one row, followed by its non-empty diagnostic lines.
func (t *table) add(r Result, diags ...string) {
	t.rows = append(t.rows, r)
	fmt.Fprintln(t.out, r.Row())
	for _, d := range diags {
		if d != "" {
			fmt.Fprintln(t.out, d)
		}
	}
}

// Fig4 regenerates the paper's Fig. 4 for one dataset: YCSB throughput of
// LOAD, A, B, C, D, E for each compared system. The LOAD measurement is
// the dataset population itself; the remaining workloads run against the
// loaded index with CN caches warm, as on the testbed.
func Fig4(cfg Config, systems []System, out io.Writer) ([]Result, error) {
	if len(systems) == 0 {
		systems = PaperSystems
	}
	d := cfg.withDefaults()
	t := newTable(out, "# Fig. 4 — YCSB throughput, dataset=%v keys=%d workers=%d\n", d.Dataset, d.Keys, d.Workers)
	for _, sys := range systems {
		cl, load, err := loaded(sys, cfg)
		if err != nil {
			return nil, err
		}
		t.add(load)
		for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE} {
			r, err := cl.Run(w, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("%v workload %s: %w", sys, w.Name, err)
			}
			t.add(r)
		}
	}
	return t.rows, nil
}

// Fig5Workers is the paper's worker sweep (6–192 across 3 CNs).
var Fig5Workers = []int{6, 12, 24, 48, 96, 192}

// Fig5 regenerates the paper's Fig. 5 for one dataset: the
// throughput–latency curve of YCSB-A as the worker count grows. Each
// system is loaded once and swept.
func Fig5(cfg Config, systems []System, workerSteps []int, out io.Writer) ([]Result, error) {
	if len(systems) == 0 {
		systems = PaperSystems
	}
	if len(workerSteps) == 0 {
		workerSteps = Fig5Workers
	}
	d := cfg.withDefaults()
	t := newTable(out, "# Fig. 5 — YCSB-A throughput vs latency, dataset=%v keys=%d\n", d.Dataset, d.Keys)
	for _, sys := range systems {
		cl, _, err := loaded(sys, cfg)
		if err != nil {
			return nil, err
		}
		for _, workers := range workerSteps {
			r, err := cl.Run(ycsb.WorkloadA, workers, 0)
			if err != nil {
				return nil, fmt.Errorf("%v workers=%d: %w", sys, workers, err)
			}
			t.add(r)
		}
	}
	return t.rows, nil
}

// Fig6 regenerates the paper's Fig. 6: MN-side memory usage after loading
// the dataset into ART, Sphinx and SMART. The paper's two headline numbers
// fall out directly: the inner-node hash table's overhead over the plain
// tree (3.3% u64 / 4.9% email at paper scale) and SMART's multiple of the
// original ART (2.1–3.0×).
func Fig6(cfg Config, out io.Writer) ([]MemUsage, error) {
	fmt.Fprintf(out, "# Fig. 6 — MN-side memory, dataset=%v keys=%d\n",
		cfg.withDefaults().Dataset, cfg.withDefaults().Keys)
	fmt.Fprintf(out, "%-14s %12s %12s %12s %12s %10s %10s\n",
		"system", "inner(B)", "leaf(B)", "hash(B)", "total(B)", "INHT ovh", "vs ART")
	var artTotal uint64
	var usages []MemUsage
	for _, sys := range []System{ART, Sphinx, SMART} {
		cl, _, err := loaded(sys, cfg)
		if err != nil {
			return nil, err
		}
		mu, err := cl.Usage()
		if err != nil {
			return nil, err
		}
		usages = append(usages, mu)
		if sys == ART {
			artTotal = mu.IndexBytes()
		}
		inhtOvh := "-"
		if sys == Sphinx {
			inhtOvh = fmt.Sprintf("%.1f%%", 100*float64(mu.HashBytes())/float64(mu.IndexBytes()))
		}
		vsART := "-"
		if artTotal > 0 {
			vsART = fmt.Sprintf("%.2fx", float64(mu.IndexBytes())/float64(artTotal))
		}
		fmt.Fprintf(out, "%-14s %12d %12d %12d %12d %10s %10s\n",
			mu.System, mu.ByClass[1], mu.ByClass[2], mu.ByClass[3], mu.Total, inhtOvh, vsART)
	}
	return usages, nil
}

// Ablation quantifies the filter cache (DESIGN.md experiment index): the
// round trips and bytes Sphinx saves on YCSB-C and YCSB-A against
// Sphinx-noSFC, which reads every prefix's bucket pair.
func Ablation(cfg Config, out io.Writer) ([]Result, error) {
	systems := []System{Sphinx, SphinxNoSFC}
	d := cfg.withDefaults()
	t := newTable(out, "# Ablation — Sphinx variants, dataset=%v keys=%d workers=%d\n", d.Dataset, d.Keys, d.Workers)
	for _, sys := range systems {
		cl, _, err := loaded(sys, cfg)
		if err != nil {
			return nil, err
		}
		for _, w := range []ycsb.Workload{ycsb.WorkloadC, ycsb.WorkloadA} {
			r, err := cl.Run(w, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("%v workload %s: %w", sys, w.Name, err)
			}
			t.add(r, r.Diag())
		}
	}
	return t.rows, nil
}

// TreeDepthScaling measures how Sphinx's advantage over the naive ART
// grows with dataset size (tree depth). Not a paper figure, but the
// bridge between this repository's reduced-scale runs and the paper's
// 60 M-key factors: Sphinx's warm path is 3 round trips at any depth,
// while the baseline pays one per level, so the throughput ratio tracks
// tree depth. (The `sphinxbench treedepth` experiment; `scaling` is the
// CN-multicore worker sweep, WorkerScaling.)
func TreeDepthScaling(base Config, keySteps []int, out io.Writer) ([]Result, error) {
	if len(keySteps) == 0 {
		keySteps = []int{10_000, 50_000, 250_000}
	}
	t := newTable(out, "# Tree depth — Sphinx vs ART on YCSB-C as the tree deepens, dataset=%v\n", base.withDefaults().Dataset)
	for _, keys := range keySteps {
		cfg := base
		cfg.Keys = keys
		var pair [2]Result
		for i, sys := range []System{Sphinx, ART} {
			cl, _, err := loaded(sys, cfg)
			if err != nil {
				return nil, fmt.Errorf("keys=%d: %w", keys, err)
			}
			r, err := cl.Run(ycsb.WorkloadC, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("%v keys=%d: %w", sys, keys, err)
			}
			r.Workload = fmt.Sprintf("C/%dk", keys/1000)
			pair[i] = r
			t.add(r)
		}
		fmt.Fprintf(out, "    keys=%d: Sphinx/ART throughput %.2fx, ART depth cost %.2f RT/op vs Sphinx %.2f\n",
			keys, pair[0].ThroughputMops/pair[1].ThroughputMops,
			pair[1].RoundTripsPerOp, pair[0].RoundTripsPerOp)
	}
	return t.rows, nil
}

// ScalingWorkers is the default worker sweep of the CN-multicore scaling
// experiment.
var ScalingWorkers = []int{1, 2, 4, 8, 16}

// WorkerScaling measures CN-side multicore scalability: wall-clock YCSB-C
// throughput as the worker count grows. The fabric is exact-in-data but
// virtual-in-time, so virtual throughput does not depend on the host; what
// moves the wall column is CN-side CPU contention — the per-CN shared
// filter is the one structure every worker of a CN touches on every
// operation. ParallelEfficiency is each point's per-worker wall throughput
// relative to the sweep's first point; perfect scaling holds it at 1.0.
// (The mutex-serialized filter this used to be compared against was
// measured at PR 5 — EXPERIMENTS.md keeps the numbers — and removed in
// PR 13.)
//
// Wall-clock numbers depend on the machine (GOMAXPROCS is printed in the
// header); on a single-core host the curve stays near-flat.
func WorkerScaling(base Config, workerSteps []int, out io.Writer) ([]Result, error) {
	if len(workerSteps) == 0 {
		workerSteps = ScalingWorkers
	}
	cfg := base.withDefaults()
	fmt.Fprintf(out, "# Scaling — CN multicore: YCSB-C wall-clock throughput vs workers, dataset=%v keys=%d GOMAXPROCS=%d\n",
		cfg.Dataset, cfg.Keys, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "%-16s %8s %14s %14s %12s\n",
		"system", "workers", "wall(Mops)", "virt(Mops)", "efficiency")
	cl, _, err := loaded(Sphinx, base)
	if err != nil {
		return nil, err
	}
	var results []Result
	var basePerWorker float64
	for _, wkr := range workerSteps {
		if wkr < 1 {
			return nil, fmt.Errorf("scaling: invalid worker count %d", wkr)
		}
		r, err := cl.Run(ycsb.WorkloadC, wkr, 0)
		if err != nil {
			return nil, fmt.Errorf("Sphinx workers=%d: %w", wkr, err)
		}
		r.Workload = fmt.Sprintf("C/w%d", wkr)
		perWorker := r.WallMops / float64(wkr)
		if wkr == workerSteps[0] {
			basePerWorker = perWorker
		}
		if basePerWorker > 0 {
			r.ParallelEfficiency = perWorker / basePerWorker
		}
		results = append(results, r)
		fmt.Fprintf(out, "%-16s %8d %14.3f %14.3f %12.2f\n",
			r.System, wkr, r.WallMops, r.ThroughputMops, r.ParallelEfficiency)
	}
	return results, nil
}

// ValueSweep measures YCSB-A across value sizes (the paper fixes 64 B;
// this extension shows where the in-place update protocol's single-WRITE
// saving and the speculative leaf read interact with payload size).
func ValueSweep(base Config, sizes []int, out io.Writer) ([]Result, error) {
	if len(sizes) == 0 {
		sizes = []int{16, 64, 256, 1024}
	}
	d := base.withDefaults()
	t := newTable(out, "# Value sweep — Sphinx YCSB-A across value sizes, dataset=%v keys=%d\n", d.Dataset, d.Keys)
	for _, size := range sizes {
		cfg := base
		cfg.ValueSize = size
		cl, _, err := loaded(Sphinx, cfg)
		if err != nil {
			return nil, fmt.Errorf("valsize=%d: %w", size, err)
		}
		r, err := cl.Run(ycsb.WorkloadA, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("valsize=%d: %w", size, err)
		}
		r.Workload = fmt.Sprintf("A/%dB", size)
		t.add(r)
	}
	return t.rows, nil
}

// PipelineDepths is the default issue-depth sweep.
var PipelineDepths = []int{1, 2, 4, 8, 16}

// PipelineSweep measures pipelined session throughput: Sphinx under
// YCSB-C (warm filter) and YCSB-A as the per-worker issue depth grows.
// At depth 1 each worker is the sequential client of the other figures;
// at depth d, same-stage verbs of the d in-flight ops share doorbell
// batches, so RT/op falls toward 3/d windows and virtual-time
// throughput rises until NIC contention bites. The depth-8-vs-1 speedup
// on YCSB-C is this repository's pipelining acceptance number.
func PipelineSweep(base Config, depths []int, out io.Writer) ([]Result, error) {
	if len(depths) == 0 {
		depths = PipelineDepths
	}
	cfg := base.withDefaults()
	t := newTable(out, "# Pipeline — Sphinx issue-depth sweep, dataset=%v keys=%d workers=%d\n", cfg.Dataset, cfg.Keys, cfg.Workers)
	cl, _, err := loaded(Sphinx, base)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	baseline := map[string]Result{}
	for _, w := range []ycsb.Workload{ycsb.WorkloadC, ycsb.WorkloadA} {
		for _, d := range depths {
			cl.Cfg.Depth = d
			r, err := cl.Run(w, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("pipeline %s depth=%d: %w", w.Name, d, err)
			}
			r.Workload = fmt.Sprintf("%s/d%d", w.Name, d)
			t.add(r)
			if d == depths[0] {
				baseline[w.Name] = r
			} else if b := baseline[w.Name]; b.ThroughputMops > 0 {
				fmt.Fprintf(out, "    %s depth %d: %.2fx vs depth %d (%.2f RT/op vs %.2f)\n",
					w.Name, d, r.ThroughputMops/b.ThroughputMops, b.Depth,
					r.RoundTripsPerOp, b.RoundTripsPerOp)
			}
		}
	}
	return t.rows, nil
}

// FastpathDepths is the issue-depth sweep the fastpath experiment adds
// for the LAC-on system after the depth-1 ablation pair, showing how
// speculative reads coalesce into shared pipeline flushes.
var FastpathDepths = []int{4, 8}

// Fastpath measures the speculative paths through the leaf-address cache
// (DESIGN.md §5.11, §5.12): YCSB-C with the run split into a warmup pass
// (the cache learning addresses) and a steady-state pass (the converged
// fast path), for Sphinx against the Sphinx-noLAC ablation. The acceptance
// numbers are the steady-state depth-1 RT/op — well under 2.0 with the
// LAC on, ≈3.0 without — and the lac_reconciled verdict: every
// speculative round trip accounted as exactly one hit or refute, and the
// four read stages summing to the fabric's own counter. A YCSB-A pass
// (50 % Update) on the then warm cache follows for both systems: a warm
// Update is 2 round trips through the cache, 5 without; and a YCSB-E pass
// (95 % Scan), the one the cache must not move. Metrics are
// forced on (the verdict needs them).
func Fastpath(base Config, out io.Writer) ([]Result, error) {
	cfg := base
	cfg.Metrics = true
	cfg.Depth = 1
	d := cfg.withDefaults()
	t := newTable(out, "# Fastpath — speculative warm reads and in-place writes: YCSB-C warmup/steady, YCSB-A, then YCSB-E, LAC on vs off, dataset=%v keys=%d workers=%d\n",
		d.Dataset, d.Keys, d.Workers)
	steady, mixed, scans := map[System]Result{}, map[System]Result{}, map[System]Result{}
	for _, sys := range []System{Sphinx, SphinxNoLAC} {
		cl, _, err := loaded(sys, cfg)
		if err != nil {
			return nil, err
		}
		warmup, st, err := cl.RunPhases(ycsb.WorkloadC, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%v fastpath: %w", sys, err)
		}
		for _, r := range []Result{warmup, st} {
			r.Workload = "C/" + r.Phase
			t.add(r, fastpathDiag(r))
		}
		steady[sys] = st
		a, err := cl.Run(ycsb.WorkloadA, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%v fastpath YCSB-A: %w", sys, err)
		}
		a.Workload, a.Phase = "A/steady", "steady"
		mixed[sys] = a
		t.add(a, fastpathDiag(a))
		if sys == Sphinx {
			// Depth sweep on the now fully warm cache: speculative reads
			// of concurrent ops share doorbell flushes, so RT/op falls
			// below even the 1-RT sequential fast path.
			for _, dep := range FastpathDepths {
				cl.Cfg.Depth = dep
				r, err := cl.Run(ycsb.WorkloadC, 0, 0)
				if err != nil {
					return nil, fmt.Errorf("%v fastpath depth=%d: %w", sys, dep, err)
				}
				r.Workload = fmt.Sprintf("C/d%d", dep)
				r.Phase = "steady"
				t.add(r, fastpathDiag(r))
			}
			cl.Cfg.Depth = 1
		}
		// YCSB-E last (its 5 % inserts change the key set): the cost of range
		// scans, which start on lo's path — one READ where the cache
		// remembers its nodes, the table's bucket pairs first where not.
		e, err := cl.Run(ycsb.WorkloadE, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%v fastpath YCSB-E: %w", sys, err)
		}
		e.Workload, e.Phase = "E/steady", "steady"
		scans[sys] = e
		t.add(e)
	}
	on, off := steady[Sphinx], steady[SphinxNoLAC]
	if off.ThroughputMops > 0 {
		fmt.Fprintf(out, "    steady YCSB-C depth 1: LAC on %.2f RT/op vs off %.2f (%.2fx throughput, p50 %.2f vs %.2f us)\n",
			on.RoundTripsPerOp, off.RoundTripsPerOp,
			on.ThroughputMops/off.ThroughputMops, on.P50LatUs, off.P50LatUs)
	}
	if on, off := mixed[Sphinx], mixed[SphinxNoLAC]; off.ThroughputMops > 0 {
		fmt.Fprintf(out, "    steady YCSB-A depth 1: LAC on %.2f RT/op vs off %.2f (%.2fx throughput)\n",
			on.RoundTripsPerOp, off.RoundTripsPerOp, on.ThroughputMops/off.ThroughputMops)
	}
	if on, off := scans[Sphinx], scans[SphinxNoLAC]; off.ThroughputMops > 0 {
		fmt.Fprintf(out, "    steady YCSB-E depth 1: LAC on %.2f RT/op, %.1f verbs/op, %.0f B/op vs off %.2f, %.1f, %.0f (lo's path remembered vs asked of the table)\n",
			on.RoundTripsPerOp, on.VerbsPerOp, on.BytesPerOp, off.RoundTripsPerOp, off.VerbsPerOp, off.BytesPerOp)
	}
	return t.rows, nil
}

// SkewThetas is the default zipfian sweep of the skew experiment: truly
// uniform, the paper's default skew, and a pathological hot spot.
var SkewThetas = []float64{ThetaUniform, 0.99, 1.2}

// SkewSpeedupGate is the skew experiment's acceptance threshold: at
// θ=0.99 the hot-replicated system must deliver at least this multiple
// of the unreplicated baseline's steady-state throughput.
const SkewSpeedupGate = 1.5

// SkewPoint is one θ of the sweep: steady-state throughput of the
// unreplicated baseline vs the hot-replicated system, their per-MN
// round-trip imbalance scalars, the hot layer's trust-but-verify verdict,
// and how many keys it promoted over both phases.
type SkewPoint struct {
	Theta         float64 `json:"theta"`
	BaseMops      float64 `json:"base_mops"`
	HotMops       float64 `json:"hot_mops"`
	Speedup       float64 `json:"speedup"`
	BaseImbalance float64 `json:"base_imbalance"`
	HotImbalance  float64 `json:"hot_imbalance"`
	HotReconciled *bool   `json:"hot_reconciled,omitempty"`
	HotPromotes   uint64  `json:"hot_promotes"`
}

// SkewReport is the skew experiment's verdict: the sweep points plus the
// pass/fail of the θ=0.99 gates (speedup ≥ Gate, imbalance flattened,
// every point's hot reads reconciled) and of the uniform point's (nothing
// promoted: no NIC queues out of proportion, DESIGN.md §5.13).
type SkewReport struct {
	Gate         float64     `json:"gate"`
	Points       []SkewPoint `json:"points"`
	SpeedupAt099 float64     `json:"speedup_at_099,omitempty"`
	Pass         bool        `json:"pass"`
}

// skewNet is the skew experiment's network model: the default fabric
// with a 10× per-byte cost (2.5 GB/s-class NICs). With 4 KiB values this
// makes the value-read round trip's NIC occupancy the dominant cost, so
// a skewed key distribution genuinely saturates the hot key's home MN —
// the regime the hot-replication layer exists for. At the default
// 25 GB/s the simulated NICs never queue at this scale and every
// placement looks flat.
func skewNet(base fabric.Config) fabric.Config {
	if base == (fabric.Config{}) {
		base = fabric.DefaultConfig()
	}
	base.PerByteFs *= 10
	return base
}

// Skew measures hot-spot tolerance under zipfian skew (DESIGN.md §5.13):
// read-only YCSB-C swept across request skews, for the unreplicated
// Sphinx baseline against Sphinx-hot (hotness-driven read replication
// with contention-aware replica choice). The cluster shape is forced to
// the saturation regime: a small key population with 4 KiB values on
// many slow-NIC MNs, so the baseline's throughput collapses onto the
// hottest key's home NIC as θ grows while the replicated system spreads
// the same reads over the replica set. Each run is split warmup/steady
// (the tracker must first learn the hot set); gates are evaluated on the
// steady pass. Metrics are forced on: the per-MN shares feed the
// imbalance scalar and the hot section carries the reconciliation
// verdict.
func Skew(base Config, thetas []float64, out io.Writer) ([]Result, *SkewReport, error) {
	if len(thetas) == 0 {
		thetas = SkewThetas
	}
	cfg := base
	cfg.Keys = 10_000
	cfg.ValueSize = 4096
	if cfg.MNs < 8 {
		cfg.MNs = 16
	}
	if cfg.Workers < 48 {
		cfg.Workers = 48
	}
	cfg.Depth = 1
	cfg.Metrics = true
	cfg.Net = skewNet(base.Net)
	d := cfg.withDefaults()
	t := newTable(out, "# Skew — hot-spot tolerance: YCSB-C theta sweep, replicated vs unreplicated, dataset=%v keys=%d mns=%d workers=%d value=%dB\n",
		d.Dataset, d.Keys, d.MNs, d.Workers, d.ValueSize)
	rep := &SkewReport{Gate: SkewSpeedupGate}
	for _, theta := range thetas {
		tcfg := cfg
		tcfg.Theta = theta
		if theta == 0 {
			tcfg.Theta = ThetaUniform
		}
		eff := theta
		if eff < 0 {
			eff = 0
		}
		pt := SkewPoint{Theta: eff}
		for _, sys := range []System{Sphinx, SphinxHot} {
			cl, _, err := loaded(sys, tcfg)
			if err != nil {
				return nil, nil, fmt.Errorf("theta=%.2f: %w", eff, err)
			}
			warmup, steady, err := cl.RunPhases(ycsb.WorkloadC, 0, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("%v theta=%.2f: %w", sys, eff, err)
			}
			for _, r := range []Result{warmup, steady} {
				r.Workload = fmt.Sprintf("t%.2f/%c", eff, r.Phase[0])
				t.add(r, skewDiag(r))
				pt.HotPromotes += r.counter("core_hot_promotes")
			}
			if sys == SphinxHot {
				pt.HotMops = steady.ThroughputMops
				pt.HotImbalance = steady.MNImbalance
				pt.HotReconciled = steady.Metrics.HotReconciled
			} else {
				pt.BaseMops = steady.ThroughputMops
				pt.BaseImbalance = steady.MNImbalance
			}
		}
		if pt.BaseMops > 0 {
			pt.Speedup = pt.HotMops / pt.BaseMops
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(out, "    theta=%.2f: replicated %.2fx unreplicated (MN imbalance %.2f -> %.2f, reconciled %s, %d keys promoted)\n",
			eff, pt.Speedup, pt.BaseImbalance, pt.HotImbalance, verdictString(pt.HotReconciled), pt.HotPromotes)
	}
	if rep.evaluate() {
		fmt.Fprintf(out, "    gate: theta=0.99 replicated >= %.1fx unreplicated, imbalance flattened, hot reads reconciled, uniform promotes nothing -> pass=%v\n",
			rep.Gate, rep.Pass)
	} else {
		fmt.Fprintf(out, "    gate: sweep has no theta~0.99 point; speedup gate unevaluated -> pass=false\n")
	}
	return t.rows, rep, nil
}

// evaluate fills in the report's Pass/SpeedupAt099 verdict from its
// points: every point's hot reads reconciled, the uniform point promoted
// nothing, and at θ≈0.99 the replicated speedup clears Gate with the
// imbalance flattened. Returns whether a θ≈0.99 point was present at all;
// without one the speedup gate cannot be asserted, so Pass fails closed — a
// custom sweep must include the gate point to be green, not merely avoid it.
func (rep *SkewReport) evaluate() (gated bool) {
	rep.Pass = true
	for _, pt := range rep.Points {
		if pt.HotReconciled == nil || !*pt.HotReconciled || (pt.Theta == 0 && pt.HotPromotes > 0) {
			rep.Pass = false
		}
		if pt.Theta > 0.98 && pt.Theta < 1.0 {
			gated = true
			rep.SpeedupAt099 = pt.Speedup
			if pt.Speedup < rep.Gate || pt.HotImbalance >= pt.BaseImbalance {
				rep.Pass = false
			}
		}
	}
	if !gated {
		rep.Pass = false
	}
	return gated
}

// verdictString renders a tri-state reconciliation verdict.
func verdictString(v *bool) string {
	switch {
	case v == nil:
		return "n/a"
	case *v:
		return "true"
	default:
		return "FALSE"
	}
}

// skewDiag renders one result's hot-replication counters plus its per-MN
// imbalance, or "" when neither is present.
func skewDiag(r Result) string {
	if !r.has("hot_tracker_bytes") {
		if r.MNImbalance > 0 {
			return fmt.Sprintf("    [mn] imbalance %.2f (busiest/mean RT share over %d nodes)",
				r.MNImbalance, len(r.MNShares))
		}
		return ""
	}
	hits, refutes, aborts := r.counter("core_hot_hits"), r.counter("core_hot_refutes"), r.counter("core_hot_aborts")
	return fmt.Sprintf("    [hot] hits %d  refutes %d  aborts %d  promotes %d  declined %d  refreshes %d  hit-rate %.1f%%  imbalance %.2f  reconciled %s",
		hits, refutes, aborts, r.counter("core_hot_promotes"), r.counter("core_hot_declined"), r.counter("core_hot_refreshes"),
		100*ratio(hits, hits+refutes+aborts), r.MNImbalance, verdictString(r.Metrics.HotReconciled))
}

// fastpathDiag renders one result's leaf-address-cache counters, or "" when
// the cache did not run (the noLAC ablation). The occupancy is the cache's
// at the phase's end.
func fastpathDiag(r Result) string {
	if !r.has("lac_learns") {
		return ""
	}
	hits, misses, refutes, aborts := r.counter("core_spec_hits"), r.counter("core_spec_misses"), r.counter("core_spec_refutes"), r.counter("core_spec_aborts")
	diag := fmt.Sprintf("    [lac] hits %d  misses %d  refutes %d  aborts %d  hit-rate %.1f%%  occupancy %.1f%%  reconciled %s",
		hits, misses, refutes, aborts, 100*ratio(hits, hits+misses+refutes+aborts),
		100*r.Metrics.Snapshot.Gauges["lac_occupancy"], verdictString(r.Metrics.LACReconciled))
	hits, misses, refutes, aborts = r.counter("core_spec_upd_hits"), r.counter("core_spec_upd_misses"), r.counter("core_spec_upd_refutes"), r.counter("core_spec_upd_aborts")
	if writes := hits + misses + refutes + aborts; writes > 0 {
		diag += fmt.Sprintf("\n    [lac update] hits %d  misses %d  refutes %d  aborts %d  hit-rate %.1f%%",
			hits, misses, refutes, aborts, 100*ratio(hits, writes))
	}
	return diag
}

// WriteCSV renders results as CSV for external plotting.
func WriteCSV(results []Result, out io.Writer) error {
	if _, err := fmt.Fprintln(out, "system,workload,dataset,workers,ops,tput_mops,avg_us,p50_us,p99_us,rt_per_op,verbs_per_op,bytes_per_op,filter_hit_pct,fp_per_kop,restarts,transients,timeouts,node_down,lock_steals,leaf_breaks"); err != nil {
		return err
	}
	for _, r := range results {
		if _, err := fmt.Fprintf(out, "%s,%s,%s,%d,%d,%.4f,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f,%.2f,%.3f,%d,%d,%d,%d,%d,%d\n",
			r.System, r.Workload, r.Dataset, r.Workers, r.Ops,
			r.ThroughputMops, r.AvgLatUs, r.P50LatUs, r.P99LatUs,
			r.RoundTripsPerOp, r.VerbsPerOp, r.BytesPerOp,
			r.SphinxFilterHitPct, r.SphinxFPPerKOp,
			r.Restarts, r.TransientFaults, r.Timeouts, r.NodeDownRejects,
			r.LockSteals, r.LeafLockBreaks); err != nil {
			return err
		}
	}
	return nil
}

// DatasetConfigs returns a config per paper dataset with shared settings.
func DatasetConfigs(base Config) []Config {
	u := base
	u.Dataset = dataset.U64
	e := base
	e.Dataset = dataset.Email
	return []Config{u, e}
}
