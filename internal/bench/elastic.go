package bench

import (
	"fmt"
	"io"
	"sync"

	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/ycsb"
)

// MNLoad is one memory node's share of a measurement window's NIC
// traffic. Verbs is the windowed verb count (the per-MN round-trip
// proxy: every posted work request lands on exactly one MN NIC), WaitPs
// the windowed queueing delay — the saturation signal rebalancing is
// supposed to relieve.
type MNLoad struct {
	Node   int     `json:"node"`
	Member bool    `json:"member"` // on the serving ring during this window
	Verbs  uint64  `json:"verbs"`
	Bytes  uint64  `json:"bytes"`
	BusyPs int64   `json:"busy_ps"`
	WaitPs int64   `json:"wait_ps"`
	Share  float64 `json:"verb_share"` // of the window's total verbs
	// RoundTrips is the window's completed doorbell batches charged to
	// this NIC (gating-node attribution); across a steady window they sum
	// to exactly the worker clients' own round-trip counters.
	RoundTrips uint64 `json:"round_trips"`
}

// MNWindow is the per-MN load breakdown of one steady-state measurement
// window (no migration traffic: windows run only between transitions).
// MaxMinRatio is max/min verb share over the ring members of the window;
// 0 means some member served nothing, i.e. the worst possible imbalance
// — before rebalancing, a freshly added member's share is exactly that.
type MNWindow struct {
	Window      string   `json:"window"`
	Members     []int    `json:"members"`
	Loads       []MNLoad `json:"loads"`
	MaxShare    float64  `json:"max_share"`
	MinShare    float64  `json:"min_share"`
	MaxMinRatio float64  `json:"max_min_ratio"`
	// ClientRTs is the sum of the window's worker-client round-trip
	// counters; RTsReconciled is the per-MN attribution check — the
	// windowed per-NIC RoundTrips must sum to exactly ClientRTs (steady
	// windows have no other traffic source).
	ClientRTs     uint64 `json:"client_rts,omitempty"`
	RTsReconciled *bool  `json:"rts_reconciled,omitempty"`
}

// ElasticSLOPhase is one ledgered phase's verdict against the chaos
// run's calibrated read-latency SLO: exact per-phase op/violation counts
// and the phase burn rate (1 spends the error budget exactly as fast as
// allowed; steady windows should burn ~0, transitions may spike).
type ElasticSLOPhase struct {
	Phase string  `json:"phase"`
	Ops   uint64  `json:"ops"`
	Bad   uint64  `json:"bad"`
	Burn  float64 `json:"burn"`
	// P99Ps/MaxPs are the phase's exact read-latency tail, for
	// eyeballing how far the phase sat from the threshold.
	P99Ps uint64 `json:"p99_ps"`
	MaxPs uint64 `json:"max_ps"`
}

// ElasticChaos is one membership transition's accounting: the workload
// phase it ran under, the migration work, and the CN-side counters that
// show stale state being refuted rather than trusted.
type ElasticChaos struct {
	Phase          string `json:"phase"` // "add" | "drain"
	Node           int    `json:"node"`  // the added / drained MN
	Sweeps         int    `json:"sweeps"`
	MovedNodes     uint64 `json:"moved_nodes"`
	MovedLeaves    uint64 `json:"moved_leaves"`
	AnchorsCopied  uint64 `json:"anchors_copied"`
	AnchorsRemoved uint64 `json:"anchors_removed"`
	EpochAfter     uint64 `json:"epoch_after"`

	// Worker-side counters of the phase: reads served from the previous
	// epoch mid-transition, and the trust-but-verify unlearns that refute
	// CN state pointing at migrated leaves (LAC refutes, SFC false
	// positives).
	EpochFallbacks uint64 `json:"epoch_fallbacks"`
	SpecRefutes    uint64 `json:"spec_refutes"`
	FalsePositives uint64 `json:"false_positives"`
	Restarts       uint64 `json:"restarts"`

	mig *core.Client // migration driver for the inline sweep pacing
}

// ElasticReport is the elastic-membership chaos experiment's result: did
// a mid-run scale-out and scale-in lose any acknowledged write, did
// migration converge and cut over, and did per-MN load actually
// rebalance. The CI elastic-smoke gate reads LostAckedWrites,
// LostAfterDecommission, FinalEpoch/Converged and the window shares.
type ElasticReport struct {
	System      string `json:"system"`
	MNsStart    int    `json:"mns_start"`
	Replication int    `json:"replication"`
	Workers     int    `json:"workers"`

	AddedNode   int `json:"added_node"`
	DrainedNode int `json:"drained_node"`

	// Durability: every acknowledged write across every phase is re-read
	// twice — once after the final window, and again after the drained
	// node is killed outright (drain must leave nothing behind worth
	// keeping alive). All four loss counters must be zero.
	AckedWrites            uint64 `json:"acked_writes"`
	VerifiedReads          uint64 `json:"verified_reads"`
	LostAckedWrites        uint64 `json:"lost_acked_writes"`
	WrongValueReads        uint64 `json:"wrong_value_reads"`
	LostAfterDecommission  uint64 `json:"lost_after_decommission"`
	WrongAfterDecommission uint64 `json:"wrong_after_decommission"`

	// Membership transitions, in order.
	Add   ElasticChaos `json:"add"`
	Drain ElasticChaos `json:"drain"`

	// Convergence: the placement epoch after both cutovers (2), with no
	// transition left open and the final sweep reporting nothing to move.
	FinalEpoch uint64 `json:"final_epoch"`
	Converged  bool   `json:"converged"`
	Cutovers   uint64 `json:"cutovers"`

	// Steady-state per-MN load windows: before the add (the new node is
	// attached but serves nothing), after the add cut over (it must carry
	// a fair share), and after the drain cut over (the drained node must
	// be idle).
	Windows []MNWindow `json:"windows"`
	// AddedShareBefore/After and DrainedShareAfter are the headline
	// rebalancing numbers, duplicated out of Windows for easy gating.
	AddedShareBefore  float64 `json:"added_share_before"`
	AddedShareAfter   float64 `json:"added_share_after"`
	DrainedShareAfter float64 `json:"drained_share_after"`

	// SLO is the read-latency objective of the chaos run, calibrated
	// from a full-contention warm pass before the first window
	// (threshold = exact read p99 + 1/8 headroom); SLOPhases is its
	// per-phase verdict, evaluated on exact read latencies.
	SLO       *obs.SLO          `json:"slo,omitempty"`
	SLOPhases []ElasticSLOPhase `json:"slo_phases,omitempty"`
	// Plane is the observability plane's final snapshot over the chaos
	// run: per-MN windowed nic_busy_ratio / verb-share / round-trip
	// series (the added node's share series converging to fair share is
	// the rebalancing story in time-series form), SLO statuses and alert
	// states.
	Plane *obs.PlaneSnapshot `json:"plane,omitempty"`
}

// ElasticMNSweep is the default MN-count sweep of the elastic experiment.
var ElasticMNSweep = []int{2, 3, 5}

// Elastic is the elastic-membership experiment. It has two parts:
//
// First, an MN-count sweep: independent static clusters at growing MN
// counts run YCSB-A, showing what a bigger pool buys before elasticity
// enters the picture (one MN's NIC is the throughput ceiling the ROADMAP
// names).
//
// Second, the add-then-drain chaos run on one replicated cluster:
// workers drive a ledgered 50/50 read/update workload (unique value per
// write) without pause while a new MN joins mid-phase — epoch bumped,
// migration sweeps relocating every leaf, tree node and anchor the new
// member now owns, cutover retiring the old placement — and then an
// original MN drains out the same way. Steady-state windows before and
// between the transitions measure each MN's NIC verb share: the added
// node must go from serving nothing to a fair share (max/min member
// ratio improving from 0, i.e. ∞-imbalance, toward 1) and the drained
// node back to nothing. Every acknowledged write must remain readable,
// even after the drained node is killed outright.
func Elastic(cfg Config, out io.Writer) ([]Result, *ElasticReport, error) {
	if cfg.Replication < 2 {
		cfg.Replication = core.DefaultReplication
	}
	cfg = cfg.withDefaults()
	if cfg.MNs < 3 {
		return nil, nil, fmt.Errorf("elastic: need >= 3 memory nodes, have %d", cfg.MNs)
	}

	// Part 1 — MN-count sweep on static clusters.
	t := newTable(out, "# Elastic — MN-count sweep (YCSB-A), then mid-run add+drain chaos, R=%d, dataset=%v keys=%d workers=%d\n",
		cfg.Replication, cfg.Dataset, cfg.Keys, cfg.Workers)
	for _, mn := range ElasticMNSweep {
		c := cfg
		c.MNs = mn
		cl, _, err := loaded(Sphinx, c)
		if err != nil {
			return nil, nil, fmt.Errorf("elastic sweep mns=%d: %w", mn, err)
		}
		r, err := cl.Run(ycsb.WorkloadA, 0, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("elastic sweep mns=%d: %w", mn, err)
		}
		r.Workload = fmt.Sprintf("A/mn=%d", mn)
		t.add(r)
	}

	// Part 2 — the chaos run.
	cl, _, err := loaded(Sphinx, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("elastic: %w", err)
	}
	rep := &ElasticReport{
		System:      Sphinx.String(),
		MNsStart:    cfg.MNs,
		Replication: cfg.Replication,
		Workers:     cfg.Workers,
	}

	// Attach the future member now (idle: nothing routes to a node that
	// is not on the ring), so the pre-add window can show its zero share.
	added := cl.F.AddNode(cfg.regionBytes())
	rep.AddedNode = int(added)

	// The drain victim is any original member not hosting the pinned root.
	root := cl.sphinxShared.Root.Node()
	victim := root
	for _, n := range cl.memberNodes() {
		if n != root {
			victim = n
			break
		}
	}
	rep.DrainedNode = int(victim)

	run := newChaosRun(cl)
	// Calibrate the read-latency SLO and bring up the observability
	// plane before the first measured phase.
	if err := run.calibrate(); err != nil {
		return nil, nil, fmt.Errorf("elastic calibrate: %w", err)
	}

	// Window 1: steady state before the add.
	w1, err := run.window("pre-add")
	if err != nil {
		return nil, nil, err
	}

	// Chaos phase 1: scale-out mid-run.
	addChaos, err := run.chaos("add", func() (*core.Placement, error) {
		return core.BeginAddNode(cl.F, cl.sphinxShared, added, cfg.Keys)
	})
	if err != nil {
		return nil, nil, err
	}
	addChaos.Node = int(added)
	rep.Add = *addChaos

	// Window 2: steady state with the new member serving.
	w2, err := run.window("post-add")
	if err != nil {
		return nil, nil, err
	}

	// Chaos phase 2: scale-in mid-run.
	drainChaos, err := run.chaos("drain", func() (*core.Placement, error) {
		return core.BeginDrainNode(cl.sphinxShared, victim)
	})
	if err != nil {
		return nil, nil, err
	}
	drainChaos.Node = int(victim)
	rep.Drain = *drainChaos

	// Window 3: steady state with the drained node out of the ring.
	w3, err := run.window("post-drain")
	if err != nil {
		return nil, nil, err
	}
	rep.Windows = []MNWindow{w1, w2, w3}
	rep.AddedShareBefore = shareOf(w1, int(added))
	rep.AddedShareAfter = shareOf(w2, int(added))
	rep.DrainedShareAfter = shareOf(w3, int(victim))

	p := cl.sphinxShared.Members.Current()
	rep.FinalEpoch = p.Epoch
	rep.Converged = p.Prev == nil
	rep.Cutovers = addChaos.Cutovers() + drainChaos.Cutovers()

	rep.SLO = &run.slo
	rep.SLOPhases = run.sloPhases
	planeSnap := run.plane.Snapshot()
	rep.Plane = &planeSnap

	// Verification pass 1: a fresh client re-reads every acknowledged
	// write from every phase.
	led := run.led
	rep.AckedWrites = uint64(led.size())
	vidx, _ := cl.NewIndex(0)
	led.verify(vidx, &rep.VerifiedReads, &rep.LostAckedWrites, &rep.WrongValueReads)

	// Verification pass 2: kill the drained node outright. Drain is only
	// graceful decommissioning if nothing still depends on the node — a
	// fresh client (cold caches, current placement only) must still see
	// every acknowledged write.
	cl.F.KillNode(victim)
	kidx, _ := cl.NewIndex(1 % cfg.CNs)
	var verifiedAfterKill uint64
	led.verify(kidx, &verifiedAfterKill, &rep.LostAfterDecommission, &rep.WrongAfterDecommission)

	fmt.Fprintf(out, "\nadded MN %d mid-run: %d sweeps moved %d leaves, %d nodes, %d anchors (epoch %d)\n",
		rep.AddedNode, rep.Add.Sweeps, rep.Add.MovedLeaves, rep.Add.MovedNodes, rep.Add.AnchorsCopied, rep.Add.EpochAfter)
	fmt.Fprintf(out, "drained MN %d mid-run: %d sweeps moved %d leaves, %d nodes, %d anchors (epoch %d)\n",
		rep.DrainedNode, rep.Drain.Sweeps, rep.Drain.MovedLeaves, rep.Drain.MovedNodes, rep.Drain.AnchorsCopied, rep.Drain.EpochAfter)
	fmt.Fprintf(out, "stale-state refutation: epoch fallbacks %d/%d, LAC refutes %d/%d, SFC false positives %d/%d (add/drain)\n",
		rep.Add.EpochFallbacks, rep.Drain.EpochFallbacks,
		rep.Add.SpecRefutes, rep.Drain.SpecRefutes,
		rep.Add.FalsePositives, rep.Drain.FalsePositives)
	for _, w := range rep.Windows {
		recon := "-"
		if w.RTsReconciled != nil {
			recon = fmt.Sprintf("%v", *w.RTsReconciled)
		}
		fmt.Fprintf(out, "window %-10s members %v  max/min share %.3f/%.3f  ratio %.2f  rts reconciled %s\n",
			w.Window, w.Members, w.MaxShare, w.MinShare, w.MaxMinRatio, recon)
	}
	fmt.Fprintf(out, "SLO %s: %.0f%% of reads under %.2f µs (calibrated)\n",
		rep.SLO.Name, rep.SLO.Quantile*100, float64(rep.SLO.LatencyPs)/1e6)
	for _, sp := range rep.SLOPhases {
		fmt.Fprintf(out, "  phase %-10s ops %6d bad %4d burn %.2f  p99 %.2f µs max %.2f µs\n",
			sp.Phase, sp.Ops, sp.Bad, sp.Burn, float64(sp.P99Ps)/1e6, float64(sp.MaxPs)/1e6)
	}
	fmt.Fprintf(out, "added-node share %.3f -> %.3f, drained-node share -> %.3f\n",
		rep.AddedShareBefore, rep.AddedShareAfter, rep.DrainedShareAfter)
	fmt.Fprintf(out, "acked writes %d, verified %d: lost %d, wrong %d; after decommission kill: lost %d, wrong %d\n",
		rep.AckedWrites, rep.VerifiedReads, rep.LostAckedWrites, rep.WrongValueReads,
		rep.LostAfterDecommission, rep.WrongAfterDecommission)
	fmt.Fprintf(out, "final epoch %d converged %v cutovers %d\n", rep.FinalEpoch, rep.Converged, rep.Cutovers)
	return t.rows, rep, nil
}

// Cutovers extracts the transition's cutover count (1 per retired epoch).
func (c *ElasticChaos) Cutovers() uint64 {
	if c.EpochAfter > 0 {
		return 1
	}
	return 0
}

// shareOf returns a node's verb share in a window.
func shareOf(w MNWindow, node int) float64 {
	for _, l := range w.Loads {
		if l.Node == node {
			return l.Share
		}
	}
	return 0
}

// chaosRun is the elastic experiment's add-then-drain run on one
// cluster: the ledgered passes, and the observability they feed.
type chaosRun struct {
	cl  *Cluster
	led *ledger

	// metrics collects every pass's op latencies for the plane's SLO
	// engine; worker 0 ticks the plane on its virtual clock offset by
	// basePs (the accumulated end time of the finished passes — each
	// pass's clients restart their clocks at zero).
	metrics   *obs.Metrics
	plane     *obs.Plane
	slo       obs.SLO
	basePs    int64
	tickEvery int
	sloPhases []ElasticSLOPhase
	// lastReads is the previous pass's exact read latencies. The
	// per-phase SLO verdicts are computed from these rather than from
	// the power-of-two histograms: the one-round-trip cost of an epoch
	// fallback shifts a read by ~25%, which bucket edges cannot resolve.
	lastReads latencies
}

// newChaosRun installs the run's metric set as the cluster's phase set,
// which is where the driver's workers report every op: unlike Load and
// Run, the chaos passes share one set, so the plane's SLO engine sees
// cumulative histograms.
func newChaosRun(cl *Cluster) *chaosRun {
	r := &chaosRun{cl: cl, led: newLedger(cl.keys, cl.Cfg.Workers, cl.Cfg.Seed), metrics: obs.NewMetrics()}
	cl.runMetrics = r.metrics
	return r
}

// calibrate runs one full ledgered pass under the same contention as
// the measured phases and derives the chaos run's read-latency SLO
// from its exact read latencies: threshold = median * 3/2.
//
// The median is the right anchor because warm-path read latency is
// quantized by round-trip count: the warm locate-descend read costs 3
// RTs (the median, >85% of reads), the slowest steady shapes (a filter
// false positive or a deep structural jump) cost 4 RTs ~ 1.35x the
// median, and a mid-transition epoch fallback stacked on one of those
// costs >=5 RTs ~ 1.65x. A threshold at 1.5x the median therefore
// sits above every steady-state shape and below the chaos tail by
// construction. Tail percentiles (p99/max) are NOT usable here: they
// land inside the 4-RT band or on a rare steady 5-RT coincidence (FP +
// fingerprint collision in one read) and either verdict flips with one
// sample, while the median is immune to both tails.
//
// The observability plane's windows are sized from the pass's measured
// duration so each later phase spans several windows. The pass's
// writes are ledgered like any other phase's, so they are covered by
// the final verification.
func (r *chaosRun) calibrate() error {
	if _, err := r.pass("calibrate", nil); err != nil {
		return err
	}
	if len(r.lastReads) == 0 {
		return fmt.Errorf("calibrate: no reads observed")
	}
	r.slo = obs.SLO{Name: "read-p99", Op: obs.OpGet, Quantile: 0.99,
		LatencyPs: uint64(r.lastReads.pct(50)) * 3 / 2}

	r.tickEvery = max(r.cl.Cfg.OpsPerWorker/32, 1)
	plane, err := obs.NewPlane(obs.PlaneOptions{
		WindowPs: max(r.basePs/8, 1),
		Windows:  512,
		Collect:  r.cl.collectMNs,
		Latency:  r.metrics.OpLatency,
		SLOs:     []obs.SLO{r.slo},
	})
	r.plane = plane
	return err
}

// window runs one ledgered pass over a quiescent placement and returns
// the per-MN NIC load it induced. The only traffic sources of a steady
// window are the pass's own worker clients, so the per-MN attributed
// round trips must reconcile exactly against the clients' counters.
func (r *chaosRun) window(name string) (MNWindow, error) {
	cl := r.cl
	cl.F.ResetTimelines()
	before := cl.F.NICStats()
	t, err := r.pass(name, nil)
	if err != nil {
		return MNWindow{}, fmt.Errorf("%s: %w", name, err)
	}
	w := nicWindow(name, before, cl.F.NICStats(), cl.memberNodes())
	w.ClientRTs = t.net.RoundTrips
	var mnRTs uint64
	for _, ld := range w.Loads {
		mnRTs += ld.RoundTrips
	}
	ok := mnRTs == w.ClientRTs
	w.RTsReconciled = &ok
	return w, nil
}

// chaos runs one ledgered pass during which the given membership
// transition opens an eighth of the way in and worker 0 paces the
// migration sweeps through the rest of its own op loop. Every worker
// barriers on the transition opening (sync.Once blocks late arrivals
// until the first call returns), so all post-trigger reads run against
// an open transition — the epoch-fallback window deterministically
// overlaps the measured load instead of racing a background migrator
// that may finish before any read observes it. The phase's worker
// counters (epoch fallbacks, unlearns) land in the returned
// ElasticChaos.
func (r *chaosRun) chaos(name string, begin func() (*core.Placement, error)) (*ElasticChaos, error) {
	ch := &ElasticChaos{Phase: name}
	tr := &chaosTrigger{
		open: func() error {
			p, err := begin()
			if err != nil {
				return fmt.Errorf("begin %s: %w", name, err)
			}
			ch.EpochAfter = p.Epoch
			midx, _ := r.cl.NewIndex(0)
			ch.mig = midx.(*core.Client)
			return nil
		},
		step: func() (bool, error) {
			if ch.Sweeps >= 100 {
				return false, fmt.Errorf("%s: migration did not converge in %d sweeps", name, ch.Sweeps)
			}
			srep, err := ch.mig.MigrateSweep()
			if err != nil {
				return false, fmt.Errorf("%s sweep %d: %w", name, ch.Sweeps, err)
			}
			ch.Sweeps++
			ch.MovedNodes += srep.MovedNodes
			ch.MovedLeaves += srep.MovedLeaves
			ch.AnchorsCopied += srep.AnchorsCopied
			ch.AnchorsRemoved += srep.AnchorsRemoved
			return srep.CutOver, nil
		},
	}
	t, err := r.pass(name, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ch.EpochFallbacks = t.core.EpochFallbacks
	ch.SpecRefutes = t.core.SpecRefutes
	ch.FalsePositives = t.core.FalsePositives
	ch.Restarts = t.core.Restarts
	return ch, nil
}

// chaosTrigger is the contract between chaos and pass: open begins the
// transition (called under the workers' barrier), step advances the
// migration one sweep and reports cutover. Worker 0 paces step calls
// through its remaining ops and drains any leftover sweeps after its
// loop, so migration is concurrent with serving but its progress is
// tied to measured load rather than wall-clock scheduling luck.
type chaosTrigger struct {
	open func() error
	step func() (bool, error)
}

// pass drives one ledgered 50/50 read/update pass: Cfg.Workers workers,
// Cfg.OpsPerWorker ops each over their ledger shard. Worker 0 ticks the
// observability plane as it goes, and the pass ends with one tick at its
// accumulated end time. Returns the pass's aggregated counters; its SLO
// verdict is appended to sloPhases (skipped for the calibration pass,
// which runs before the SLO exists).
//
// Measured workers run without the speculative leaf-address cache (see
// NewIndexNoSpec): the SLO must see the migration's fallback cost, not
// the fast path hiding it.
func (r *chaosRun) pass(name string, trigger *chaosTrigger) (tally, error) {
	workers, ops := r.cl.Cfg.Workers, r.cl.Cfg.OpsPerWorker
	// Open the transition an eighth of the way in and pace the sweeps so
	// cutover lands around 80% through worker 0's loop: the transition
	// stays open across most of the phase's measured reads, which is what
	// makes the chaos phases' SLO burn a reliable signal rather than a
	// race against how fast a migrator happens to be scheduled.
	triggerAt := ops / 8
	sweepEvery := max((ops-triggerAt)*2/5, 1)
	var triggerOnce sync.Once
	var triggerErr error

	reads := make([][]int64, workers)
	ws, err := r.cl.drive(workers, sequential(r.cl.NewIndexNoSpec), func(w *worker) error {
		// Warm the fresh client over its whole shard before measuring.
		// This pays the cold directory-view round trips up front AND
		// unlearns the succinct filter's false positives for every key
		// the measured loop can draw: an FP costs the same 2 extra
		// round trips as a mid-transition epoch fallback, so leaving
		// them in would make steady phases indistinguishable from
		// chaos in the latency tail.
		for _, key := range r.led.shards[w.id] {
			if _, _, err := w.idx.Search(key); err != nil {
				return fmt.Errorf("warmup: %w", err)
			}
		}
		rng := r.led.stream(w.id)
		cutOver := trigger == nil
		sweep := func() (err error) {
			cutOver, err = trigger.step()
			return err
		}
		for i := 0; i < ops; i++ {
			if trigger != nil && i == triggerAt {
				// Barrier: every worker blocks here until the
				// transition is open (Once.Do holds late arrivals
				// until the first call returns), so all post-trigger
				// ops run against it.
				triggerOnce.Do(func() { triggerErr = trigger.open() })
				if triggerErr != nil {
					return triggerErr
				}
			}
			if w.id == 0 && !cutOver && i > triggerAt && (i-triggerAt)%sweepEvery == 0 {
				if err := sweep(); err != nil {
					return err
				}
			}
			read, lat, err := r.led.op(w, &rng, i)
			if err != nil {
				return err
			}
			if read {
				reads[w.id] = append(reads[w.id], lat)
			}
			if w.id == 0 && r.plane != nil && (i+1)%r.tickEvery == 0 {
				r.plane.Tick(r.basePs + w.fc.Clock())
			}
		}
		// Worker 0 drains any sweeps the pacing left unfinished, so
		// the phase always ends cut over and converged.
		for w.id == 0 && !cutOver {
			if err := sweep(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return tally{}, err
	}
	r.led.pass++
	t := tallyOf(ws)
	all := sortLatencies(reads...)
	r.lastReads = all

	// Advance the accumulated virtual time to the pass's end (the
	// slowest worker's clock) and close the pass out on the plane, then
	// score it against the SLO from the exact read latencies.
	r.basePs += t.elapsedPs
	if r.plane == nil {
		return t, nil // calibration pass: no SLO configured yet
	}
	r.plane.Tick(r.basePs)
	var bad uint64
	for i := len(all) - 1; i >= 0 && uint64(all[i]) > r.slo.LatencyPs; i-- {
		bad++
	}
	sp := ElasticSLOPhase{Phase: name, Ops: uint64(len(all)), Bad: bad,
		P99Ps: uint64(all.pct(99)), MaxPs: uint64(all.max())}
	if len(all) > 0 {
		sp.Burn = float64(bad) / float64(len(all)) / (1 - r.slo.Quantile)
	}
	r.sloPhases = append(r.sloPhases, sp)
	return t, nil
}

// nicWindow diffs two NIC snapshots into a per-MN load window.
func nicWindow(name string, before, after []fabric.NICStats, members []mem.NodeID) MNWindow {
	member := make(map[int]bool, len(members))
	w := MNWindow{Window: name}
	for _, n := range members {
		member[int(n)] = true
		w.Members = append(w.Members, int(n))
	}
	prev := make(map[mem.NodeID]fabric.NICStats, len(before))
	for _, s := range before {
		prev[s.Node] = s
	}
	var total uint64
	for _, s := range after {
		p := prev[s.Node]
		l := MNLoad{
			Node:       int(s.Node),
			Member:     member[int(s.Node)],
			Verbs:      s.Verbs - p.Verbs,
			Bytes:      s.Bytes - p.Bytes,
			BusyPs:     s.BusyPs - p.BusyPs,
			WaitPs:     s.WaitPs - p.WaitPs,
			RoundTrips: s.RoundTrips - p.RoundTrips,
		}
		total += l.Verbs
		w.Loads = append(w.Loads, l)
	}
	first := true
	for i := range w.Loads {
		if total > 0 {
			w.Loads[i].Share = float64(w.Loads[i].Verbs) / float64(total)
		}
		if !w.Loads[i].Member {
			continue
		}
		s := w.Loads[i].Share
		if first || s > w.MaxShare {
			w.MaxShare = s
		}
		if first || s < w.MinShare {
			w.MinShare = s
		}
		first = false
	}
	if w.MinShare > 0 {
		w.MaxMinRatio = w.MaxShare / w.MinShare
	}
	return w
}
