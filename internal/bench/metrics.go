package bench

import (
	"fmt"
	"strings"

	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
)

// MetricsBlock is a phase's observability section in BENCH_*.json (present
// when Config.Metrics is set): the phase registry's diff over the phase under
// the names /metrics serves (docs/observability.md) — counters and
// histograms moved by what the phase did, gauges read at its end — and the
// reconciliation verdicts computed from it by name.
type MetricsBlock struct {
	Snapshot obs.Snapshot `json:"snapshot"`

	// RTReconciled: the per-stage round-trip histograms sum to the fabric's
	// own RoundTrips counter, and at depth 1 the per-op histograms do too (at
	// depth > 1 round trips are shared across in-flight ops, so no per-op
	// attribution exists).
	RTReconciled bool `json:"rt_reconciled"`
	// FPReconciled: hash lookups == filter hits + false positives − node hits
	// (a landing at a remembered node address is a filter hit with no
	// lookup; a refuted or untrusted one asks the table and counts as what
	// the table says) AND the hash-read stage's round trips == lookups +
	// stale-directory retries + 2×refreshes — every false positive shows up
	// as exactly one extra hash-entry round trip (DESIGN.md §5.9).
	FPReconciled *bool `json:"fp_reconciled,omitempty"`
	// LACReconciled: the leaf-spec stage's round trips == speculative hits +
	// refutes with no abort, no remembered node address was met leased, AND
	// the hash, node, leaf, leaf-spec and hot stages sum to the fabric's own
	// counter — every fallback re-descent is accounted and the fast path
	// never double-pays.
	LACReconciled *bool `json:"lac_reconciled,omitempty"`
	// HotReconciled: the hot-read stage's round trips == replica-read hits +
	// refutations with no abort — every attempt is exactly one verified round
	// trip.
	HotReconciled *bool `json:"hot_reconciled,omitempty"`
}

// beginPhaseMetrics opens a measured phase's section: the snapshot of the
// cluster's registry the section's diff starts from and the per-MN NIC
// counters its load window starts from. The returned func closes the
// section into r, whose Depth and RoundTrips must be set; it does nothing
// when Config.Metrics is off.
func (cl *Cluster) beginPhaseMetrics() func(r *Result) {
	if !cl.Cfg.Metrics {
		return func(*Result) {}
	}
	reg := register(cl.metrics, cl.index, cl.tail, func() *core.IndexSources { return cl.src })
	start, nics := reg.Snapshot(), cl.F.NICStats()
	return func(r *Result) {
		r.Metrics = &MetricsBlock{Snapshot: reg.Snapshot().Sub(start)}
		r.Metrics.reconcile(r.RoundTrips, r.Depth)
		w := obs.NewLoadWindow(nics, cl.F.NICStats(), cl.Nodes())
		r.MNShares, r.MNImbalance = w.Loads, w.Imbalance
	}
}

// stageRT is the section's round trips in one fabric stage.
func (b *MetricsBlock) stageRT(st fabric.Stage) uint64 {
	return b.Snapshot.Hists[fmt.Sprintf("bench_stage_round_trips{stage=%q}", st)].Sum
}

// RoundTripSums adds up the section's per-op and per-stage round-trip
// histograms.
func (b *MetricsBlock) RoundTripSums() (op, stage uint64) {
	for name, h := range b.Snapshot.Hists {
		switch {
		case strings.HasPrefix(name, "bench_op_round_trips{"):
			op += h.Sum
		case strings.HasPrefix(name, "bench_stage_round_trips{"):
			stage += h.Sum
		}
	}
	return op, stage
}

// reconcile sets the verdicts from the section's own counters; fabricRT is
// the phase's round trips by the clients' counter. The fp, lac and hot
// identities hold only for sequential read-only phases of a Sphinx-family
// system on a healthy index — writes, scans and restarts add stage traffic
// of their own, and pipelining coalesces many ops into shared round trips —
// and each needs its layer's family in the section: other phases carry no
// such verdict.
func (b *MetricsBlock) reconcile(fabricRT uint64, depth int) {
	c, g := b.Snapshot.Counters, b.Snapshot.Gauges
	opRT, stageRT := b.RoundTripSums()
	b.RTReconciled = stageRT == fabricRT && (depth > 1 || opRT == fabricRT)

	if _, sphinx := c["core_searches"]; !sphinx || depth != 1 {
		return
	}
	for _, moved := range []string{"inserts", "updates", "deletes", "scans", "restarts", "stale_entries"} {
		if c["core_"+moved] != 0 {
			return
		}
	}
	verdict := func(ok bool) *bool { return &ok }
	if _, ok := c["filter_hits"]; ok {
		b.FPReconciled = verdict(c["inht_lookups"] == c["core_filter_hits"]+c["core_false_positives"]-c["core_node_hits"] &&
			b.stageRT(fabric.StageHashRead) == c["inht_lookups"]+c["inht_retry_reads"]+2*c["inht_refreshes"])
	}
	if _, ok := c["lac_learns"]; ok {
		spec := b.stageRT(fabric.StageLeafSpec)
		var reads uint64
		for _, st := range []fabric.Stage{fabric.StageHashRead, fabric.StageNodeRead, fabric.StageLeafRead,
			fabric.StageLeafSpec, fabric.StageHotRead, fabric.StageHotPub} {
			reads += b.stageRT(st)
		}
		b.LACReconciled = verdict(spec == c["core_spec_hits"]+c["core_spec_refutes"] &&
			c["core_spec_aborts"] == 0 && c["core_node_aborts"] == 0 && reads == fabricRT)
	}
	if _, ok := g["hot_tracker_bytes"]; ok {
		b.HotReconciled = verdict(b.stageRT(fabric.StageHotRead) == c["core_hot_hits"]+c["core_hot_refutes"] &&
			c["core_hot_aborts"] == 0)
	}
}

// counter is one counter of the result's section; 0 without a section.
func (r Result) counter(name string) uint64 {
	if r.Metrics == nil {
		return 0
	}
	return r.Metrics.Snapshot.Counters[name]
}

// has says whether the result's section holds the named counter or gauge:
// whether the layer that exports it ran.
func (r Result) has(name string) bool {
	if r.Metrics == nil {
		return false
	}
	_, counter := r.Metrics.Snapshot.Counters[name]
	_, gauge := r.Metrics.Snapshot.Gauges[name]
	return counter || gauge
}

// ratio is n/d, 0 for d == 0.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
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
