package bench

import (
	"sync/atomic"

	"sphinx/internal/core"
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
				return cl.CollectMNs()
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
