package bench

import (
	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
)

// HistJSON is the compact JSON shape of one histogram: count plus the
// summary points a reader actually plots. Latency histograms report
// microseconds; round-trip histograms report counts. Quantiles are bucket
// upper bounds (power-of-two buckets), so they are conservative.
type HistJSON struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// MetricsBlock is the per-result observability section emitted into
// BENCH_*.json when Config.Metrics is set. Its headline value is the
// reconciliation verdict: the per-stage round-trip histograms must sum to
// the fabric's own RoundTrips counter at every pipeline depth, and the
// per-op histograms must match it too at depth 1 (at depth > 1 round
// trips are shared across in-flight ops, so no per-op attribution
// exists).
type MetricsBlock struct {
	OpLatencyUs    map[string]HistJSON `json:"op_latency_us,omitempty"`
	OpRoundTrips   map[string]HistJSON `json:"op_round_trips,omitempty"`
	StageLatencyUs map[string]HistJSON `json:"stage_latency_us,omitempty"`

	StageRoundTrips map[string]uint64 `json:"stage_round_trips,omitempty"`
	StageVerbs      map[string]uint64 `json:"stage_verbs,omitempty"`
	StageBytes      map[string]uint64 `json:"stage_bytes,omitempty"`
	StageFaults     map[string]uint64 `json:"stage_faults,omitempty"`

	// OpRTTotal and StageRTTotal are the two histogram-side sums;
	// FabricRoundTrips is the ground truth from the clients' counters.
	OpRTTotal        uint64 `json:"op_rt_total"`
	StageRTTotal     uint64 `json:"stage_rt_total"`
	FabricRoundTrips uint64 `json:"fabric_round_trips"`
	RTReconciled     bool   `json:"rt_reconciled"`

	// SFC, INHT, LAC and Hot are the index-semantic efficacy sections,
	// present for Sphinx-family results (SFC absent for the filter-less
	// ablation, LAC absent for the leaf-address-cache-less one, Hot
	// present only when the hot read-replication layer is bootstrapped).
	SFC  *SFCBlock  `json:"sfc,omitempty"`
	INHT *INHTBlock `json:"inht,omitempty"`
	LAC  *LACBlock  `json:"lac,omitempty"`
	Hot  *HotBlock  `json:"hot,omitempty"`

	// Tail sampling totals for this phase (present when Config.Live is set).
	TailOffered  uint64 `json:"tail_offered,omitempty"`
	TailCaptured uint64 `json:"tail_captured,omitempty"`
}

// beginPhaseMetrics resets the phase metric set: each measurement phase
// (load, or one workload run) gets a fresh one so its section reconciles
// against that phase's ResetTimelines-cleared fabric counters. The
// cumulative sources (index distributions, CN filter counters, tail
// totals) get baseline snapshots instead, so per-phase sections report
// deltas while live scrapes see them accumulate.
func (cl *Cluster) beginPhaseMetrics() {
	if cl.Cfg.Metrics {
		cl.runMetrics = obs.NewMetrics()
	}
	if cl.index != nil {
		cl.hitDepthBase = cl.index.SFCHitDepth.Snapshot()
		cl.probesBase = cl.index.SFCProbes.Snapshot()
		cl.candBase = cl.index.INHTCandidates.Snapshot()
	}
	cl.filterBase = cl.src.FilterStats()
	cl.lacBase = cl.src.LACStats()
	if cl.tail != nil {
		cl.tailBaseOff, cl.tailBaseCap = cl.tail.Stats()
	}
}

// pipeOpKind maps a pipelined op kind to its metrics op kind.
func pipeOpKind(k core.PipeKind) obs.OpKind {
	switch k {
	case core.PipePut:
		return obs.OpPut
	case core.PipeUpdate:
		return obs.OpUpdate
	case core.PipeDelete:
		return obs.OpDelete
	case core.PipeScan:
		return obs.OpScan
	default:
		return obs.OpGet
	}
}

func histJSON(h obs.HistSnapshot, scale float64) HistJSON {
	return HistJSON{
		Count: h.Count,
		Mean:  h.Mean() * scale,
		P50:   float64(h.Quantile(0.50)) * scale,
		P99:   float64(h.Quantile(0.99)) * scale,
		Max:   float64(h.Max()) * scale,
	}
}

// attachMetrics folds the phase's metric set into the result and runs the
// round-trip reconciliation check. r.Depth and r.RoundTrips must already
// be set.
func (cl *Cluster) attachMetrics(r *Result) {
	m := cl.runMetrics
	if m == nil {
		return
	}
	const psToUs = 1e-6
	b := &MetricsBlock{
		OpLatencyUs:     map[string]HistJSON{},
		OpRoundTrips:    map[string]HistJSON{},
		StageLatencyUs:  map[string]HistJSON{},
		StageRoundTrips: map[string]uint64{},
		StageVerbs:      map[string]uint64{},
		StageBytes:      map[string]uint64{},
		StageFaults:     map[string]uint64{},
	}
	for k := 0; k < obs.NumOps; k++ {
		kind := obs.OpKind(k)
		if lat := m.OpLatency(kind); lat.Count > 0 {
			b.OpLatencyUs[kind.String()] = histJSON(lat, psToUs)
			b.OpRoundTrips[kind.String()] = histJSON(m.OpRT(kind), 1)
		}
	}
	for s := 0; s < fabric.NumStages; s++ {
		stage := fabric.Stage(s)
		name := stage.String()
		if lat := m.StageLatency(stage); lat.Count > 0 {
			b.StageLatencyUs[name] = histJSON(lat, psToUs)
		}
		if rt := m.StageRT(stage); rt.Sum > 0 {
			b.StageRoundTrips[name] = rt.Sum
		}
		verbs, bytes, faults := m.StageCounters(stage)
		if verbs > 0 {
			b.StageVerbs[name] = verbs
		}
		if bytes > 0 {
			b.StageBytes[name] = bytes
		}
		if faults > 0 {
			b.StageFaults[name] = faults
		}
	}
	b.OpRTTotal = m.OpRTTotal()
	b.StageRTTotal = m.StageRTTotal()
	b.FabricRoundTrips = r.RoundTrips
	b.RTReconciled = b.StageRTTotal == b.FabricRoundTrips &&
		(r.Depth > 1 || b.OpRTTotal == b.FabricRoundTrips)
	if cl.tail != nil {
		offered, captured := cl.tail.Stats()
		b.TailOffered = offered - cl.tailBaseOff
		b.TailCaptured = captured - cl.tailBaseCap
	}
	r.Metrics = b
}
