package bench

import (
	"sync/atomic"

	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
)

// Live is the harness's cluster-spanning observability surface: one
// metric set, index-distribution set and tail sampler that every cluster
// the harness creates feeds for its whole lifetime, servable over HTTP
// while experiments run (sphinxbench -serve). Live accumulates; a phase's
// Result section is the diff of the same assembly over that phase alone.
//
// Experiments create clusters one after another; the gauge sources (SFC
// load, INHT usage) read through the most recent Sphinx-family cluster,
// which is the one currently running.
type Live struct {
	Metrics *obs.Metrics
	Index   *obs.IndexMetrics
	Tail    *obs.TailSampler
	// Plane is the cluster observability plane behind /mn, /slo and
	// /alerts: per-MN windowed load series, SLO burn rates over the live
	// histograms, and the default alert rules. Its collector follows the
	// current cluster like the gauge sources do; -serve mode ticks it
	// from a wall-clock sampler.
	Plane *obs.Plane

	reg *obs.Registry
	cur atomic.Pointer[Cluster]
}

// NewLive creates the live telemetry surface. Pass it via Config.Live to
// every cluster that should report into it.
func NewLive() *Live {
	lv := &Live{
		Metrics: obs.NewMetrics(),
		Index:   obs.NewIndexMetrics(),
		Tail:    obs.NewTailSampler(0, 0),
	}
	// The read-p99 objective is deliberately loose for a simulated
	// fabric (25 µs); it exists so /slo and the burn-rate alerts have a
	// live series to chew on, not as a tuned production target.
	lv.Plane, _ = obs.NewPlane(obs.PlaneOptions{
		Collect: func() []obs.MNSample {
			if cl := lv.cur.Load(); cl != nil {
				return cl.collectMNs()
			}
			return nil
		},
		Latency: func(k obs.OpKind) obs.HistSnapshot { return lv.Metrics.OpLatency(k) },
		SLOs: []obs.SLO{
			{Name: "read-p99", Op: obs.OpGet, Quantile: 0.99, LatencyPs: 25_000_000},
		},
	})
	return lv
}

// attach points the gauge sources at a newly created Sphinx-family cluster.
func (lv *Live) attach(cl *Cluster) {
	if cl.src.Shared != nil {
		lv.cur.Store(cl)
	}
}

// Registry assembles (once) the registry behind /metrics and /snapshot:
// the live histograms, index distributions, tail counters and index layers'
// families following the current cluster (register — the same assembly each
// phase's section is the diff of), plus the plane. Every source is
// scrape-safe concurrently with running workers: the client counters are
// loaded atomically and move while a phase runs (Cluster.liveIndex), filter
// cache stats are padded atomics (lock-free SFC), and INHT usage scans go
// through the region locks.
func (lv *Live) Registry() *obs.Registry {
	if lv.reg != nil {
		return lv.reg
	}
	lv.reg = register(lv.Metrics, lv.Index, lv.Tail, func() *core.IndexSources {
		if cl := lv.cur.Load(); cl != nil {
			return cl.src
		}
		return nil
	})
	lv.Plane.Register(lv.reg)
	return lv.reg
}

// register assembles a registry over one metric set (as bench_*), the index
// distributions, the tail sampler's counters (nil: none) and the index
// layers' families src follows (core.RegisterIndex): the one assembly behind
// the live /metrics and every phase's section, so both carry the same names.
func register(m *obs.Metrics, index *obs.IndexMetrics, tail *obs.TailSampler, src func() *core.IndexSources) *obs.Registry {
	r := obs.NewRegistry()
	r.AddMetrics("bench", m)
	index.Register(r)
	if tail != nil {
		r.AddCounters("tail", tail.Counters)
	}
	core.RegisterIndex(r, src)
	return r
}

// MNShare is one memory node's slice of a measurement window's fabric
// round trips, with the NIC busy/queued-wait time that round-trip load
// produced (the hotspot signal the contention-aware replica choice
// steers by).
type MNShare struct {
	Node       int     `json:"node"`
	RoundTrips uint64  `json:"round_trips"`
	Share      float64 `json:"share"`
	BusyPs     int64   `json:"busy_ps,omitempty"`
	WaitPs     int64   `json:"wait_ps,omitempty"`
}

// attachMNShares diffs the per-MN NIC counters against the phase-start
// baseline and attaches the window's shares plus the normalized
// max/mean imbalance scalar (computed over current member nodes, so a
// killed or drained node does not deflate the mean).
func (cl *Cluster) attachMNShares(r *Result, base []fabric.NICStats) {
	cur := cl.F.NICStats()
	baseByNode := make(map[mem.NodeID]fabric.NICStats, len(base))
	for _, b := range base {
		baseByNode[b.Node] = b
	}
	members := make(map[mem.NodeID]bool)
	for _, n := range cl.memberNodes() {
		members[n] = true
	}
	var total, maxMemberRT uint64
	shares := make([]MNShare, 0, len(cur))
	for _, st := range cur {
		b := baseByNode[st.Node]
		rt := st.RoundTrips - b.RoundTrips
		total += rt
		if members[st.Node] && rt > maxMemberRT {
			maxMemberRT = rt
		}
		if rt == 0 && !members[st.Node] {
			continue
		}
		shares = append(shares, MNShare{
			Node:       int(st.Node),
			RoundTrips: rt,
			BusyPs:     st.BusyPs - b.BusyPs,
			WaitPs:     st.WaitPs - b.WaitPs,
		})
	}
	if total == 0 {
		return
	}
	for i := range shares {
		shares[i].Share = float64(shares[i].RoundTrips) / float64(total)
	}
	r.MNShares = shares
	if n := len(members); n > 0 {
		mean := float64(total) / float64(n)
		r.MNImbalance = float64(maxMemberRT) / mean
	}
}

// placement returns the current placement — the epoch-versioned ring and
// hash tables when the system publishes them (elastic membership may have
// added or drained nodes since bootstrap), the static bootstrap ring and
// no tables for the baselines.
func (cl *Cluster) placement() *core.Placement {
	if m := cl.sphinxShared.Members; m != nil {
		return m.Current()
	}
	return &core.Placement{Ring: cl.Ring}
}

// memberNodes returns the memory nodes of the current placement.
func (cl *Cluster) memberNodes() []mem.NodeID { return cl.placement().Ring.Nodes() }

// collectMNs samples every memory node for the observability plane.
func (cl *Cluster) collectMNs() []obs.MNSample {
	p := cl.placement()
	return obs.CollectMNs(cl.F, p.Ring.Nodes(), p.Tables)
}
