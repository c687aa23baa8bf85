package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sphinx/internal/cluster"
	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/ycsb"
)

// Result is one (system, workload) measurement in the units the paper
// reports: throughput in Mops/s and latency in microseconds, both in
// virtual network time.
type Result struct {
	System   string `json:"system"`
	Workload string `json:"workload"`
	Dataset  string `json:"dataset"`
	Workers  int    `json:"workers"`
	// Depth is the per-worker issue depth the run phase used (1 =
	// sequential clients).
	Depth int `json:"depth"`
	// Phase labels the measurement pass when RunPhases splits a run into a
	// warmup pass and a steady-state pass over the same workload
	// ("warmup" / "steady"); empty for single-pass runs.
	Phase string `json:"phase,omitempty"`

	Ops            uint64  `json:"ops"`
	ElapsedPs      int64   `json:"elapsed_ps"`
	ThroughputMops float64 `json:"tput_mops"`
	AvgLatUs       float64 `json:"avg_us"`
	P50LatUs       float64 `json:"p50_us"`
	P99LatUs       float64 `json:"p99_us"`

	RoundTripsPerOp float64 `json:"rt_per_op"`
	VerbsPerOp      float64 `json:"verbs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`

	// Wall-clock counterparts of the virtual-time numbers: the phase's
	// real elapsed time and throughput. The virtual clock is deterministic
	// and blind to CN-side CPU work, so lock contention and cache-line
	// ping-pong between workers only ever show up here — the scaling
	// experiment reads these fields. Noisy by nature (real scheduling),
	// unlike everything above.
	WallElapsedNs int64   `json:"wall_ns,omitempty"`
	WallMops      float64 `json:"wall_tput_mops,omitempty"`
	// ParallelEfficiency is set by the scaling sweep: this point's
	// per-worker wall-clock throughput relative to the sweep's first
	// point (1.0 = perfect scaling when the sweep starts at 1 worker).
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`

	// Sphinx-only diagnostics (zero for other systems): how operations
	// were routed and how often the probabilistic machinery misfired.
	SphinxFilterHitPct   float64 `json:"filter_hit_pct,omitempty"`
	SphinxFPPerKOp       float64 `json:"fp_per_kop,omitempty"`
	SphinxRestartsPerKOp float64 `json:"restarts_per_kop,omitempty"`
	SphinxCollisions     uint64  `json:"collisions,omitempty"`
	// The landing bets of Sphinx's inserting puts (rart.EngineStats): posted,
	// lost to a held lease (free), won and given back unused (a round trip).
	LeaseBets         uint64 `json:"lease_bets,omitempty"`
	LeaseBetsLost     uint64 `json:"lease_bets_lost,omitempty"`
	LeaseBetsReturned uint64 `json:"lease_bets_returned,omitempty"`

	// Fault and recovery accounting, all systems: nonzero only when a
	// fault plan is active or locks were contended. Restarts counts
	// operation-level re-descents; the rest count injected fabric faults
	// survived and the stuck-lock recovery work performed.
	Restarts        uint64 `json:"restarts,omitempty"`
	TransientFaults uint64 `json:"transients,omitempty"`
	Timeouts        uint64 `json:"timeouts,omitempty"`
	NodeDownRejects uint64 `json:"node_down,omitempty"`
	LockSteals      uint64 `json:"lock_steals,omitempty"`
	LeafLockBreaks  uint64 `json:"leaf_breaks,omitempty"`

	// RoundTrips is the phase's absolute fabric round-trip total (the
	// denominator of the metrics reconciliation check). Present only when
	// Config.Metrics is set.
	RoundTrips uint64 `json:"round_trips,omitempty"`

	// MNShares is every memory node's load over the phase (each Load/Run
	// phase is one window of obs.NewLoadWindow: NIC counters taken at phase
	// start and diffed at the end); MNImbalance is the window's hotspot
	// scalar, the busiest member's round trips over the member mean (1.0 =
	// perfectly balanced, N = everything on one of N nodes). Present only
	// when Config.Metrics is set.
	MNShares    []obs.NodeLoad `json:"mn_shares,omitempty"`
	MNImbalance float64        `json:"mn_imbalance,omitempty"`

	// Metrics is the phase's observability section: the registry's diff
	// over the phase plus the reconciliation verdicts. Present only when
	// Config.Metrics is set.
	Metrics *MetricsBlock `json:"metrics,omitempty"`
}

// Diag renders the Sphinx diagnostics line, or "" for other systems.
func (r Result) Diag() string {
	if r.SphinxFilterHitPct == 0 && r.SphinxFPPerKOp == 0 && r.SphinxRestartsPerKOp == 0 {
		return ""
	}
	return fmt.Sprintf("    [sphinx] filter-hit %.1f%%  falsePos %.2f/kop  restarts %.2f/kop  collisions %d  leaseBets %d lost %d returned %d",
		r.SphinxFilterHitPct, r.SphinxFPPerKOp, r.SphinxRestartsPerKOp, r.SphinxCollisions,
		r.LeaseBets, r.LeaseBetsLost, r.LeaseBetsReturned)
}

// FaultLine renders the fault/recovery counters, or "" when the run saw
// neither injected faults nor lock recovery.
func (r Result) FaultLine() string {
	if r.Restarts == 0 && r.TransientFaults == 0 && r.Timeouts == 0 &&
		r.NodeDownRejects == 0 && r.LockSteals == 0 && r.LeafLockBreaks == 0 {
		return ""
	}
	return fmt.Sprintf("    [faults] restarts %d  transients %d  timeouts %d  nodeDown %d  lockSteals %d  leafBreaks %d",
		r.Restarts, r.TransientFaults, r.Timeouts, r.NodeDownRejects,
		r.LockSteals, r.LeafLockBreaks)
}

// header returns the column header matching Result.Row.
func ResultHeader() string {
	return fmt.Sprintf("%-14s %-8s %-6s %7s %12s %10s %10s %10s %8s %8s %10s",
		"system", "workload", "data", "workers", "tput(Mops)", "avg(us)", "p50(us)", "p99(us)", "RT/op", "verbs/op", "bytes/op")
}

// Row renders the result as one aligned table line.
func (r Result) Row() string {
	return fmt.Sprintf("%-14s %-8s %-6s %7d %12.3f %10.2f %10.2f %10.2f %8.2f %8.2f %10.0f",
		r.System, r.Workload, r.Dataset, r.Workers,
		r.ThroughputMops, r.AvgLatUs, r.P50LatUs, r.P99LatUs,
		r.RoundTripsPerOp, r.VerbsPerOp, r.BytesPerOp)
}

// worker is one goroutine of a phase: the client the driver mounted for
// it (idx, or pl for a pipelined executor), its tail recorder when
// sampling is on, and the latency of every operation it timed.
type worker struct {
	cl  *Cluster
	id  int
	idx cluster.Index
	pl  *core.Pipeline
	fc  *fabric.Client
	rec *obs.Recorder
	lat []int64
}

// sequential is the driver's mount step for a sequential client: the
// cluster's system on a fresh fabric client under the phase's observers,
// with a trace recorder feeding the tail sampler when sampling is on (for a
// Sphinx client it also receives the locate annotations — false positives,
// collisions, restarts — so they arrive in the captured timelines).
func (cl *Cluster) sequential(w *worker, cn *cluster.ComputeNode) {
	if cl.tail != nil {
		w.rec = obs.NewRecorder()
	}
	w.fc = cl.F.NewClient()
	w.idx = cl.Mount(cn, w.fc, cl.observer(), cl.index, w.rec)
}

// noSpec mounts a sequential client like sequential but without the
// compute node's leaf-address cache. The elastic chaos run's measured
// workers use it: a 1-RT cache hit never consults the placement, so it
// hides the epoch-fallback cost of a migration that the run's latency SLO
// must see. With the cache off the warm read path is the deterministic
// locate-descend, and the SLO cleanly separates steady windows from
// transitions.
func (cl *Cluster) noSpec(w *worker, cn *cluster.ComputeNode) {
	bare := *cn
	bare.LAC = nil
	cl.sequential(w, &bare)
}

// drive is the harness's one phase driver: it runs body on `workers`
// goroutines, worker i on a fresh client that mount put on compute node
// i % CNs (clock zero, so the measurement window is clean; CN-level
// caches keep their warmth, as on a real cluster). It returns the workers
// in id order, or the first error a worker reported. What a phase does —
// load, YCSB, a ledgered chaos pass — is entirely its body's.
//
// The workers are mounted before any of them starts and published as the
// cluster's running phase, so the live exporter counts them while they run
// (liveIndex); when the last one returns they are folded into the finished
// phases' totals and unpublished in one critical section — a scrape sees each
// worker exactly once.
func (cl *Cluster) drive(workers int, mount func(w *worker, cn *cluster.ComputeNode), body func(w *worker) error) ([]*worker, error) {
	ws := make([]*worker, workers)
	for id := range ws {
		w := &worker{cl: cl, id: id}
		mount(w, cl.cns[id%len(cl.cns)])
		ws[id] = w
	}
	cl.doneMu.Lock()
	cl.running = ws
	cl.doneMu.Unlock()
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if err := body(w); err != nil {
				errCh <- fmt.Errorf("worker %d: %w", w.id, err)
			}
		}(w)
	}
	wg.Wait()
	cl.doneMu.Lock()
	for _, w := range ws {
		cl.done.add(w)
	}
	cl.running = nil
	cl.doneMu.Unlock()
	close(errCh)
	for err := range errCh {
		return nil, err
	}
	return ws, nil
}

// timed runs one operation on the worker's sequential client and accounts
// it: latency and round trips on the client's virtual clock into the
// worker's sample and the active metric sets, the round-trip timeline to
// the tail sampler. It returns the operation's latency.
func (w *worker) timed(kind obs.OpKind, op func() error) (int64, error) {
	start, rt0 := w.fc.Clock(), w.fc.RoundTrips()
	if w.rec != nil {
		w.rec.BeginReuse(kind.String(), start)
	}
	if err := op(); err != nil {
		return 0, err
	}
	lat := w.fc.Clock() - start
	w.lat = append(w.lat, lat)
	w.cl.observeOp(kind, lat, w.fc.RoundTrips()-rt0)
	if w.rec != nil {
		w.rec.End(w.fc.Clock())
		w.cl.tail.Offer(kind, w.rec.Trace())
	}
	return lat, nil
}

// indexTally is the index layers' counters over a set of workers: the node
// engine's for every system, core and hash for the Sphinx family (sequential
// clients and pipelined executors alike; sphinx says whether any worker has
// them).
type indexTally struct {
	engine rart.EngineStats
	core   core.Stats
	hash   racehash.Stats
	sphinx bool
}

// add folds one worker in. Safe while the worker runs: the clients load
// their counters atomically and a pipeline guards its lane set.
func (t *indexTally) add(w *worker) {
	if w.pl != nil {
		t.core, t.hash = t.core.Add(w.pl.Stats()), t.hash.Add(w.pl.HashStats())
		t.engine = t.engine.Add(w.pl.EngineStats())
		t.sphinx = true
		return
	}
	t.engine = t.engine.Add(w.idx.Engine().Stats())
	if c, ok := w.idx.(*core.Client); ok {
		t.core, t.hash = t.core.Add(c.Stats()), t.hash.Add(c.HashStats())
		t.sphinx = true
	}
}

// liveIndex is what the live exporter reports for this cluster: every
// finished phase plus the workers of the one that is running.
func (cl *Cluster) liveIndex() indexTally {
	cl.doneMu.Lock()
	defer cl.doneMu.Unlock()
	t := cl.done
	for _, w := range cl.running {
		t.add(w)
	}
	return t
}

// tally is what a finished phase's workers add up to.
type tally struct {
	elapsedPs int64        // the slowest worker's virtual clock
	net       fabric.Stats // over every worker's fabric client
	indexTally
}

func tallyOf(ws []*worker) tally {
	var t tally
	for _, w := range ws {
		t.elapsedPs = max(t.elapsedPs, w.fc.Clock())
		t.net = t.net.Add(w.fc.Stats())
		t.add(w)
	}
	return t
}

// measure runs one measured phase — the load, or one workload run — and
// folds it into a Result: the network is idle and the phase metric set
// fresh when the workers start, and the per-MN NIC counters are diffed
// across the phase.
func (cl *Cluster) measure(workload string, workers, depth int, mount func(*worker, *cluster.ComputeNode), body func(*worker) error) (Result, error) {
	cl.F.ResetTimelines()
	endMetrics := cl.beginPhaseMetrics()
	wallStart := time.Now()
	ws, err := cl.drive(workers, mount, body)
	wall := time.Since(wallStart)
	if err != nil {
		return Result{}, err
	}
	t := tallyOf(ws)
	r := cl.summarize(workload, ws, t)
	r.Depth = depth
	if wall > 0 {
		r.WallElapsedNs = wall.Nanoseconds()
		r.WallMops = float64(r.Ops) / wall.Seconds() / 1e6
	}
	// The baselines' restarts are the engine's (rart.Engine.Retry); Sphinx
	// drives its own operations, and attachSphinxDiag reports its count.
	r.Restarts, r.LockSteals, r.LeafLockBreaks = t.engine.Restarts, t.engine.LockSteals, t.engine.LeafLockBreaks
	cl.attachSphinxDiag(&r, t)
	endMetrics(&r)
	return r, nil
}

// Load inserts the full dataset with the given number of workers. When
// measured, the insert phase itself is the benchmark (the paper's LOAD
// workload); otherwise it is just population. Loading is always
// sequential (depth 1).
func (cl *Cluster) Load(workers int) (Result, error) {
	if workers <= 0 {
		workers = cl.Cfg.Workers
	}
	return cl.measure("LOAD", workers, 1, cl.sequential, func(w *worker) error {
		w.lat = make([]int64, 0, len(cl.keys)/workers+1)
		for i := w.id; i < len(cl.keys); i += workers {
			if _, err := w.timed(obs.OpPut, func() error {
				_, err := w.idx.Insert(cl.keys[i], cl.value)
				return err
			}); err != nil {
				return fmt.Errorf("load key %d: %w", i, err)
			}
		}
		return nil
	})
}

// Run drives one YCSB workload. The index must already be loaded. At
// Config.Depth > 1 the Sphinx-family workers run pipelined executors; the
// baselines keep their sequential clients, as in the paper.
func (cl *Cluster) Run(w ycsb.Workload, workers, opsPerWorker int) (Result, error) {
	if workers <= 0 {
		workers = cl.Cfg.Workers
	}
	if opsPerWorker <= 0 {
		opsPerWorker = cl.Cfg.OpsPerWorker
	}
	depth := max(cl.Cfg.Depth, 1)
	mount := cl.sequential
	if depth > 1 && cl.src.Shared != nil {
		mount = func(wk *worker, cn *cluster.ComputeNode) {
			o := cl.observer()
			wk.fc = cl.F.NewClient()
			wk.fc.SetObserver(o)
			wk.pl = cl.Pipeline(cn, wk.fc, o, cl.index)
		}
	}
	return cl.measure(w.Name, workers, depth, mount, func(wk *worker) error {
		gen := ycsb.NewGenerator(w, cl.space, cl.zipf, cl.Cfg.Seed+int64(wk.id)*7919)
		wk.lat = make([]int64, 0, opsPerWorker)
		if wk.pl != nil {
			return runPipelined(wk, gen, opsPerWorker, depth)
		}
		for i := 0; i < opsPerWorker; i++ {
			op := gen.Next()
			if _, err := wk.timed(ycsbOpKind(op.Kind), func() (err error) {
				switch op.Kind {
				case ycsb.OpRead:
					_, _, err = wk.idx.Search(op.Key)
				case ycsb.OpUpdate:
					_, err = wk.idx.Update(op.Key, cl.value)
				case ycsb.OpInsert:
					_, err = wk.idx.Insert(op.Key, cl.value)
				case ycsb.OpScan:
					_, err = wk.idx.Scan(op.Key, nil, op.ScanLen)
				}
				return err
			}); err != nil {
				return fmt.Errorf("op %d (%v): %w", i, op.Kind, err)
			}
		}
		return nil
	})
}

// RunPhases drives one workload twice, labelling the passes "warmup" and
// "steady". Each Run gets fresh fabric clients (clock zero), but the
// CN-level caches — succinct filter and leaf-address cache — keep what
// they learned, so the pair exposes cache learning as a measurement
// instead of averaging the cold ramp into the steady state: the warmup
// pass pays the misses, the steady pass shows the converged RT/op. The
// generator seeds repeat across passes, so under a skewed distribution
// the steady pass is maximally warm for exactly the keys that matter.
func (cl *Cluster) RunPhases(w ycsb.Workload, workers, opsPerWorker int) (warmup, steady Result, err error) {
	warmup, err = cl.Run(w, workers, opsPerWorker)
	if err != nil {
		return warmup, steady, err
	}
	warmup.Phase = "warmup"
	steady, err = cl.Run(w, workers, opsPerWorker)
	if err != nil {
		return warmup, steady, err
	}
	steady.Phase = "steady"
	return warmup, steady, nil
}

// ycsbOpKind maps a YCSB op to its metrics op kind.
func ycsbOpKind(k ycsb.OpKind) obs.OpKind {
	switch k {
	case ycsb.OpUpdate:
		return obs.OpUpdate
	case ycsb.OpInsert:
		return obs.OpPut
	case ycsb.OpScan:
		return obs.OpScan
	default:
		return obs.OpGet
	}
}

// runPipelined drives one worker's share of a workload through its
// pipelined executor, one issue window at a time: depth ops in flight,
// windows of a few depths so that generation (which for YCSB-D tracks
// the growing key space) never runs far ahead of execution. Per-op
// latency spans each op's own in-flight window.
func runPipelined(w *worker, gen *ycsb.Generator, total, depth int) error {
	window := depth * 8
	opBuf := make([]ycsb.Op, 0, window)
	pipeOps := make([]*core.PipeOp, window)
	for i := range pipeOps {
		pipeOps[i] = &core.PipeOp{}
	}
	for done := 0; done < total; {
		n := min(window, total-done)
		opBuf = gen.NextN(opBuf[:0], n)
		for i, op := range opBuf {
			po := pipeOps[i]
			*po = core.PipeOp{Key: op.Key}
			switch op.Kind {
			case ycsb.OpRead:
				po.Kind = core.PipeGet
			case ycsb.OpUpdate:
				po.Kind = core.PipeUpdate
				po.Value = w.cl.value
			case ycsb.OpInsert:
				po.Kind = core.PipePut
				po.Value = w.cl.value
			case ycsb.OpScan:
				po.Kind = core.PipeScan
				po.Limit = op.ScanLen
			}
		}
		w.pl.Run(pipeOps[:n], depth)
		for i, po := range pipeOps[:n] {
			if po.Err != nil {
				return fmt.Errorf("op %d (%v): %w", done+i, opBuf[i].Kind, po.Err)
			}
			w.lat = append(w.lat, po.EndPs-po.StartPs)
			// Round trips are shared across in-flight ops (doorbell
			// coalescing), so no per-op attribution exists at depth>1;
			// the per-stage histograms carry the RT accounting instead.
			w.cl.observeOp(pipeOpKind(po.Kind), po.EndPs-po.StartPs, 0)
		}
		done += n
	}
	return nil
}

// attachSphinxDiag folds the phase's Sphinx client counters into the
// result's diagnostic fields.
func (cl *Cluster) attachSphinxDiag(r *Result, t tally) {
	if !t.sphinx || r.Ops == 0 {
		return
	}
	locates := t.core.FilterHits + t.core.FilterFallbacks + t.core.RootStarts
	if locates > 0 {
		r.SphinxFilterHitPct = 100 * float64(t.core.FilterHits) / float64(locates)
	}
	r.SphinxFPPerKOp = 1000 * float64(t.core.FalsePositives) / float64(r.Ops)
	r.SphinxRestartsPerKOp = 1000 * float64(t.core.Restarts) / float64(r.Ops)
	r.SphinxCollisions = t.core.CollisionRetries
	r.LeaseBets, r.LeaseBetsLost, r.LeaseBetsReturned = t.engine.LeaseBets, t.engine.LeaseBetsLost, t.engine.LeaseBetsReturned
	r.Restarts = t.core.Restarts
}

// latencies is a latency sample in ascending order.
type latencies []int64

// sortLatencies merges latency lists into one ascending sample. Every
// percentile the harness reports is read off such a sample by pct.
func sortLatencies(lists ...[]int64) latencies {
	var all latencies
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// pct returns the p-th percentile (p < 100) by the nearest-rank rule, 0
// for an empty sample.
func (l latencies) pct(p int) int64 {
	if len(l) == 0 {
		return 0
	}
	return l[len(l)*p/100]
}

// max returns the largest latency, 0 for an empty sample.
func (l latencies) max() int64 {
	if len(l) == 0 {
		return 0
	}
	return l[len(l)-1]
}

// summarize folds per-worker clocks, latencies and network stats into a
// Result. Throughput is total operations over the slowest worker's virtual
// time, matching how a wall-clock experiment would measure a fixed
// per-worker op count.
func (cl *Cluster) summarize(workload string, ws []*worker, t tally) Result {
	lists := make([][]int64, len(ws))
	for i, w := range ws {
		lists[i] = w.lat
	}
	all := sortLatencies(lists...)
	ops := uint64(len(all))
	r := Result{
		System:   cl.Sys.String(),
		Workload: workload,
		Dataset:  cl.Cfg.Dataset.String(),
		Workers:  len(ws),
		Ops:      ops,
	}
	if t.elapsedPs > 0 {
		r.ElapsedPs = t.elapsedPs
		// ops / (ps → s): ops * 1e12 / ps, reported in Mops.
		r.ThroughputMops = float64(ops) / (float64(t.elapsedPs) / 1e12) / 1e6
	}
	if ops > 0 {
		var sum int64
		for _, l := range all {
			sum += l
		}
		r.AvgLatUs = float64(sum) / float64(ops) / 1e6
		r.P50LatUs = float64(all.pct(50)) / 1e6
		r.P99LatUs = float64(all.pct(99)) / 1e6
		r.RoundTripsPerOp = float64(t.net.RoundTrips) / float64(ops)
		r.VerbsPerOp = float64(t.net.Verbs) / float64(ops)
		r.BytesPerOp = float64(t.net.BytesRead+t.net.BytesWrite) / float64(ops)
	}
	r.TransientFaults = t.net.Transients
	r.Timeouts = t.net.Timeouts
	r.NodeDownRejects = t.net.NodeDownRejects
	if cl.Cfg.Metrics {
		r.RoundTrips = t.net.RoundTrips
	}
	return r
}

// MemUsage aggregates MN-side memory by allocation class (Fig. 6).
type MemUsage struct {
	System  string
	Dataset string
	ByClass [mem.NumClasses]uint64
	Total   uint64 // all classes (the index's MN footprint)
}

// IndexBytes is the tree footprint (inner + leaf), the baseline the
// paper's INHT-overhead percentage is computed against.
func (m MemUsage) IndexBytes() uint64 {
	return m.ByClass[mem.ClassInner] + m.ByClass[mem.ClassLeaf]
}

// HashBytes is the inner-node-hash-table footprint.
func (m MemUsage) HashBytes() uint64 { return m.ByClass[mem.ClassHash] }

// Usage is the cluster's MN-side memory by allocation class, labelled as
// Fig. 6 reports it.
func (cl *Cluster) Usage() (MemUsage, error) {
	by, err := cl.MemoryUsage()
	mu := MemUsage{System: cl.Sys.String(), Dataset: cl.Cfg.Dataset.String(), ByClass: by}
	for _, b := range by {
		mu.Total += b
	}
	return mu, err
}
