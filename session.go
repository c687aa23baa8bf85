package sphinx

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"sphinx/internal/artdm"
	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/smart"
)

// Trace is one operation's recorded round-trip timeline; see
// Session.Trace.
type Trace = obs.Trace

// Metrics is a session's always-on metric set: latency and round-trip
// histograms per op kind and per batch stage, on the virtual clock.
type Metrics = obs.Metrics

// Registry unifies a session's counter sets (fabric, index, filter,
// histograms) behind snapshot/diff with Prometheus and JSON exporters.
type Registry = obs.Registry

// index is the operation surface the three systems' clients share.
type index interface {
	Search(key []byte) ([]byte, bool, error)
	Insert(key, value []byte) (bool, error)
	Update(key, value []byte) (bool, error)
	Delete(key []byte) (bool, error)
	Scan(lo, hi []byte, limit int) ([]rart.KV, error)
	Engine() *rart.Engine
}

// Session is one worker's handle on the cluster's index: it owns a network
// endpoint (virtual clock, verb counters) and shares its compute node's
// caches. Sessions are not safe for concurrent use — create one per
// goroutine, as the paper's systems create one context per coroutine.
type Session struct {
	cn *ComputeNode
	fc *fabric.Client

	// idx is the mounted client, whichever system it is; sphinx and smart
	// are the same client again, for what only that system has.
	idx    index
	sphinx *core.Client
	smart  *smart.Client

	// pl is the session's pipelined executor (Sphinx only), created on
	// first use and kept so its lanes' directory caches stay warm. An
	// atomic pointer: registry closures aggregate the pipeline's counters
	// from scrape goroutines while the session creates it lazily.
	pl atomic.Pointer[core.Pipeline]

	// metrics (teed with the tail recorder) is installed as the fabric
	// client's batch observer for the session's lifetime; registry is
	// built lazily over it.
	metrics *obs.Metrics
	// index receives SFC/INHT distribution observations from the core
	// client and all pipeline lanes.
	index *obs.IndexMetrics
	// tail is the always-on slow-op sampler: every sequential operation
	// records its round-trip timeline into tailRec, and timelines above
	// the moving p99 for their op kind are retained, pre-explained.
	tail     *obs.TailSampler
	tailRec  *obs.Recorder
	registry *obs.Registry
}

// NewSession opens a session on this compute node.
func (cn *ComputeNode) NewSession() *Session {
	c := cn.cluster
	fc := c.f.NewClient()
	s := &Session{
		cn: cn, fc: fc,
		metrics: obs.NewMetrics(),
		index:   obs.NewIndexMetrics(),
		tail:    obs.NewTailSampler(0, 0), // defaults: p99, 32 samples
		tailRec: obs.NewRecorder(),
	}
	fc.SetObserver(obs.Tee{A: s.metrics, B: s.tailRec})
	switch c.cfg.System {
	case SystemSphinx:
		s.sphinx = core.NewClient(c.sphinxShared, fc, s.coreOptions())
		s.sphinx.SetRecorder(s.tailRec)
		s.idx = s.sphinx
	case SystemSMART:
		s.smart = smart.NewClient(c.smartShared, fc, smart.Options{Cache: cn.cache})
		s.idx = s.smart
	case SystemART:
		s.idx = artdm.NewClient(c.artShared, fc)
	}
	return s
}

// coreOptions is what every core client of the session is built from — its
// own and each pipeline lane's — so all of them share the compute node's
// caches and hot-key tracker, the session's index distributions and the
// cluster's ablation switches.
func (s *Session) coreOptions() core.Options {
	cfg := &s.cn.cluster.cfg
	return core.Options{
		Filter:           s.cn.filter,
		LeafCache:        s.cn.lac,
		DisableLeafCache: cfg.DisableLeafCache,
		Hot:              s.cn.hotset,
		DisableHot:       cfg.DisableHotReplicas,
		Index:            s.index,
	}
}

// beginOp arms the tail recorder for one operation and captures the
// start clock and round-trip count; its results feed observeOp via
// `defer s.observeOp(s.beginOp(kind))`.
func (s *Session) beginOp(k obs.OpKind) (obs.OpKind, int64, uint64) {
	start := s.fc.Clock()
	s.tailRec.BeginReuse(k.String(), start)
	return k, start, s.fc.RoundTrips()
}

// observeOp records one finished operation into the session metrics and
// offers its recorded timeline to the tail sampler, which clones and
// retains it if the operation landed above the moving tail threshold.
func (s *Session) observeOp(k obs.OpKind, startPs int64, rt0 uint64) {
	end := s.fc.Clock()
	s.metrics.ObserveOp(k, end-startPs, s.fc.RoundTrips()-rt0)
	s.tailRec.End(end)
	s.tail.Offer(k, s.tailRec.Trace())
}

// Get returns the value stored for key.
func (s *Session) Get(key []byte) (value []byte, ok bool, err error) {
	defer s.observeOp(s.beginOp(obs.OpGet))
	return s.idx.Search(key)
}

// Put stores value for key, overwriting any existing value.
func (s *Session) Put(key, value []byte) error {
	defer s.observeOp(s.beginOp(obs.OpPut))
	_, err := s.idx.Insert(key, value)
	return err
}

// Update overwrites the value of an existing key, reporting whether the
// key was present; absent keys are left absent.
func (s *Session) Update(key, value []byte) (bool, error) {
	defer s.observeOp(s.beginOp(obs.OpUpdate))
	return s.idx.Update(key, value)
}

// Delete removes key, reporting whether it was present.
func (s *Session) Delete(key []byte) (bool, error) {
	defer s.observeOp(s.beginOp(obs.OpDelete))
	return s.idx.Delete(key)
}

// Scan returns key-value pairs in [lo, hi] (inclusive; nil bounds are
// open) in ascending key order, at most limit pairs when limit > 0.
func (s *Session) Scan(lo, hi []byte, limit int) ([]KV, error) {
	defer s.observeOp(s.beginOp(obs.OpScan))
	kvs, err := s.idx.Scan(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	out := make([]KV, len(kvs))
	for i, kv := range kvs {
		out[i] = KV{Key: kv.Key, Value: kv.Value}
	}
	return out, nil
}

// RepairReport summarizes one anti-entropy repair sweep; see
// Session.RepairSweep.
type RepairReport = core.RepairReport

// RepairSweep runs one online anti-entropy pass over the replicated
// entry store: it walks every live node's records and re-publishes any
// replica a surviving node is missing (after a memory-node loss, the
// dead node's replica responsibilities shift to its ring successors).
// Sweeps are idempotent and run concurrently with serving sessions;
// repeat until a sweep reports Deficits == 0. Requires SystemSphinx with
// Config.Replication >= 2.
func (s *Session) RepairSweep() (RepairReport, error) {
	if s.sphinx == nil || s.cn.cluster.sphinxShared.FT == nil {
		return RepairReport{}, fmt.Errorf("sphinx: repair sweep requires SystemSphinx with Replication >= 2")
	}
	return s.sphinx.RepairSweep()
}

// MigrateReport summarizes one elastic-membership migration sweep; see
// Session.MigrateSweep.
type MigrateReport = core.MigrateReport

// MigrateSweep runs one online rebalancing pass of an in-flight
// membership change (Cluster.AddMemoryNode / DrainMemoryNode): it walks
// the tree and the anchor tables and relocates everything whose placement
// changed, using the same one-sided protocols as foreground operations —
// other sessions keep serving throughout. Sweeps are idempotent; repeat
// until one reports CutOver (a sweep that moved anything cannot cut over,
// because it may have raced a concurrent writer — only a provably clean
// pass closes the transition). With no change in flight it reports
// immediate convergence. Requires SystemSphinx.
func (s *Session) MigrateSweep() (MigrateReport, error) {
	if s.sphinx == nil {
		return MigrateReport{}, fmt.Errorf("sphinx: migration sweep requires SystemSphinx")
	}
	return s.sphinx.MigrateSweep()
}

// Stats summarizes the session's network activity.
type Stats struct {
	RoundTrips   uint64
	Verbs        uint64
	BytesRead    uint64
	BytesWritten uint64
	// ClockPs is the session's virtual clock: the network time its
	// operations have consumed (0 under TimingInstant).
	ClockPs int64
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() Stats {
	st := s.fc.Stats()
	return Stats{
		RoundTrips:   st.RoundTrips,
		Verbs:        st.Verbs,
		BytesRead:    st.BytesRead,
		BytesWritten: st.BytesWrite,
		ClockPs:      s.fc.Clock(),
	}
}

// SphinxCounters are Sphinx-specific per-session counters: how operations
// were routed (filter cache vs parallel fallback vs root walk) and how
// often the probabilistic machinery misfired.
type SphinxCounters struct {
	Searches, Inserts, Updates, Deletes, Scans uint64
	// FilterHits counts operations routed by a filter-cache hit — the
	// three-round-trip warm path.
	FilterHits uint64
	// FilterFallbacks counts parallel multi-prefix hash reads (filter
	// disabled or useless).
	FilterFallbacks uint64
	// RootStarts counts operations that fell back to a root descent.
	RootStarts uint64
	// FalsePositives counts filter claims the index refuted (<1% of
	// probes per the paper).
	FalsePositives uint64
	// CollisionRetries counts the leaf-level common-prefix detections of
	// §III-B (<0.01% of operations per the paper).
	CollisionRetries uint64
	// Restarts counts coherence-protocol retries (invalidated nodes or
	// leaves observed mid-change).
	Restarts uint64
	// SpecHits counts Gets served by the speculative 1-RT fast path: one
	// leaf read at the cached address, verified in place.
	SpecHits uint64
	// SpecMisses counts Gets with no leaf-address-cache entry (cold keys,
	// or the cache disabled).
	SpecMisses uint64
	// SpecRefutes counts speculative reads the leaf image refuted; the
	// entry is unlearned and the Get falls back to the 3-RT hash path
	// without consuming retry budget.
	SpecRefutes uint64
	// SpecAborts counts speculative reads abandoned without a verdict (a
	// torn or locked leaf, or a transient fabric error); the entry is kept.
	SpecAborts uint64
	// SpecUpdHits counts Puts and Updates served by the speculative in-place
	// write: the leaf locked and verified in one batch at the cached address,
	// then the single releasing image write (2 round trips, 3 when the stored
	// value's length differed and the lock took a second CAS).
	SpecUpdHits uint64
	// SpecUpdMisses counts Puts and Updates with no leaf-address-cache entry
	// (fresh keys, cold keys, or the cache disabled).
	SpecUpdMisses uint64
	// SpecUpdRefutes counts speculative writes the leaf image refuted (a
	// retired or foreign leaf); the entry is unlearned and the write takes
	// the tree path without consuming retry budget.
	SpecUpdRefutes uint64
	// SpecUpdAborts counts speculative writes given up with the entry kept: a
	// leaf locked by another writer, a value that outgrew the leaf's units,
	// or a transient fabric error.
	SpecUpdAborts uint64
	// EpochFallbacks counts reads served from the previous placement epoch
	// while a membership change was mid-migration.
	EpochFallbacks uint64
	// HotHits counts Gets served by one verified hot-replica read (the
	// replicated 1-RT path of the hot-spot tolerance layer).
	HotHits uint64
	// HotRefutes counts hot-replica reads refuted in place (retired or
	// mismatched record); the route is unlearned and the Get falls back.
	HotRefutes uint64
	// HotAborts counts hot-replica reads abandoned on a transient fabric
	// fault, with the route kept.
	HotAborts uint64
	// HotPromotes counts keys promoted into replicated placement.
	HotPromotes uint64
	// HotDemotes counts cooled keys torn back down to single-owner.
	HotDemotes uint64
	// HotRefreshes counts writes that republished at least one hot record
	// before acknowledging.
	HotRefreshes uint64
	// Restarts by the cause the operation driver classified; they sum to
	// Restarts. Structural: a lost tree race. Transient, Timeout: an injected
	// fabric fault of that kind. NodeDown: a memory node rejected the batch
	// (a down window, or a lost node with no replica layer to fail over to).
	RestartsStructural, RestartsTransient, RestartsTimeout, RestartsNodeDown uint64
	// The replica layers' write acknowledgement (anchors and hot records
	// together): ReplicaFanouts counts passes over a key's whole target set,
	// ReplicaRounds the doorbell batches they posted, ReplicaLegs the
	// node-legs they carried — rounds per fan-out is what an acked write
	// waits for, legs per round what batching saves. ReplicaRequeues counts
	// legs sent back to the bucket read by a lost entry CAS or a stale
	// directory cache, ReplicaSplits rounds whose batch faulted and was
	// posted again one node at a time.
	ReplicaFanouts, ReplicaRounds, ReplicaLegs, ReplicaRequeues, ReplicaSplits uint64
}

// coreStats sums the Sphinx client's counters with those of the session's
// pipeline lanes, if it has any.
func (s *Session) coreStats() core.Stats {
	st := s.sphinx.Stats()
	if pl := s.pl.Load(); pl != nil {
		st = st.Add(pl.Stats())
	}
	return st
}

// SphinxStats returns Sphinx-specific counters; ok is false for other
// systems.
func (s *Session) SphinxStats() (SphinxCounters, bool) {
	if s.sphinx == nil {
		return SphinxCounters{}, false
	}
	st := s.coreStats()
	return SphinxCounters{
		Searches: st.Searches, Inserts: st.Inserts, Updates: st.Updates,
		Deletes: st.Deletes, Scans: st.Scans,
		FilterHits: st.FilterHits, FilterFallbacks: st.FilterFallbacks,
		RootStarts: st.RootStarts, FalsePositives: st.FalsePositives,
		CollisionRetries: st.CollisionRetry, Restarts: st.Restarts,
		SpecHits: st.SpecHits, SpecMisses: st.SpecMisses,
		SpecRefutes: st.SpecRefutes, SpecAborts: st.SpecAborts,
		SpecUpdHits: st.SpecUpdHits, SpecUpdMisses: st.SpecUpdMisses,
		SpecUpdRefutes: st.SpecUpdRefutes, SpecUpdAborts: st.SpecUpdAborts,
		EpochFallbacks: st.EpochFallbacks,
		HotHits:        st.HotHits, HotRefutes: st.HotRefutes,
		HotAborts: st.HotAborts, HotPromotes: st.HotPromotes,
		HotDemotes: st.HotDemotes, HotRefreshes: st.HotRefreshes,
		RestartsStructural: st.RestartsStructural, RestartsTransient: st.RestartsTransient,
		RestartsTimeout: st.RestartsTimeout, RestartsNodeDown: st.RestartsNodeDown,
		ReplicaFanouts: st.ReplicaFanouts, ReplicaRounds: st.ReplicaRounds, ReplicaLegs: st.ReplicaLegs,
		ReplicaRequeues: st.ReplicaRequeues, ReplicaSplits: st.ReplicaSplits,
	}, true
}

// Trace runs op with a per-operation trace recorder armed and returns
// the recorded round-trip timeline alongside op's error. The recorder
// tees into the session's regular metrics observer, so tracing never
// perturbs accounting. Intended for one index operation per call: a cold
// Get traces as the three round trips of §III-B (hash-read, node-read,
// leaf-read); a warm Get served by the speculative leaf-address cache
// traces as ONE round trip (leaf-spec).
func (s *Session) Trace(name string, op func() error) (*Trace, error) {
	rec := obs.NewRecorder()
	rec.Begin(name, s.fc.Clock())
	prev := s.fc.Observer()
	s.fc.SetObserver(obs.Tee{A: prev, B: rec})
	if s.sphinx != nil {
		s.sphinx.SetRecorder(rec)
	}
	err := op()
	if s.sphinx != nil {
		// Restore the always-on tail recorder, not nil: tail sampling
		// continues after an explicit trace.
		s.sphinx.SetRecorder(s.tailRec)
	}
	s.fc.SetObserver(prev)
	rec.End(s.fc.Clock())
	return rec.Trace(), err
}

// ServeObservability starts serving the session's registry over HTTP in
// the background and returns the owning server plus its bound address
// (pass "127.0.0.1:0" for an ephemeral port). Endpoints: /metrics
// (Prometheus text), /snapshot (JSON diff since serving started, or
// ?absolute), /traces (tail-sampled slow-op timelines), /mn /slo
// /alerts (the cluster observability plane), and /debug/pprof. The
// registry is assembled here, on the caller's goroutine, before any
// scrape can race its construction; its counter sources are atomic, so
// scrapes stay race-clean against live operations. Serving also starts
// the plane's wall-clock sampler (process-lifetime, 250 ms cadence) and
// installs this session's histograms as the SLO engine's latency source
// if none is installed yet. Close the returned server to stop serving.
func (s *Session) ServeObservability(addr string) (*http.Server, string, error) {
	c := s.cn.cluster
	c.sloSource.CompareAndSwap(nil, s.metrics)
	h := obs.NewHandler(obs.ServeOptions{Registry: s.Registry(), Tail: s.tail, Plane: c.plane})
	srv, bound, err := obs.Serve(addr, h)
	if err != nil {
		return nil, "", err
	}
	c.plane.EnsureWallTicker(250 * time.Millisecond)
	return srv, bound.String(), nil
}

// Metrics returns the session's always-on metric set.
func (s *Session) Metrics() *Metrics { return s.metrics }

// Tail returns the session's always-on tail sampler: the retained
// slow-op timelines, each annotated with the stage (and index event)
// that bought the extra round trips.
func (s *Session) Tail() *obs.TailSampler { return s.tail }

// Registry returns the session's unified metrics registry, assembling it
// on first use: fabric counters, index counters, filter-cache counters
// and the session histograms, all snapshot-and-diffable and exportable
// as Prometheus text or JSON.
func (s *Session) Registry() *Registry {
	if s.registry != nil {
		return s.registry
	}
	r := obs.NewRegistry()
	r.AddCounterStruct("fabric", func() any { return s.fc.Stats() })
	r.AddCounterStruct("engine", func() any {
		st := s.idx.Engine().Stats()
		if pl := s.pl.Load(); pl != nil {
			st = st.Add(pl.EngineStats())
		}
		return st
	})
	switch {
	case s.sphinx != nil:
		r.AddCounterStruct("core", func() any { return s.coreStats() })
		r.AddCounterStruct("inht", func() any {
			st := s.sphinx.HashStats()
			if pl := s.pl.Load(); pl != nil {
				st = st.Add(pl.HashStats())
			}
			return st
		})
		if f := s.sphinx.Filter(); f != nil {
			r.AddCounterStruct("filter", func() any { return f.FilterStats() })
			r.AddGauges("sfc", func() map[string]float64 {
				occupied, capacity := f.Occupancy()
				g := map[string]float64{
					"occupied_slots":    float64(occupied),
					"capacity_slots":    float64(capacity),
					"load":              f.Load(),
					"analytic_fp_bound": f.AnalyticFPBound(),
					// Entries currently carrying the second-chance hotness
					// bit — the skew signal the hot-key tracker seeds from.
					"hot_entries": float64(f.HotEntries()),
				}
				// Probes count CN-wide filter traffic; false positives and
				// hits count this session (plus its pipeline lanes). With a
				// single session per CN — the exporter's usual shape — the
				// ratio is the measured per-probe FP rate, comparable to
				// the analytic bound above.
				st := s.coreStats()
				fst := f.FilterStats()
				if probes := fst.Hits + fst.Misses; probes > 0 {
					g["false_positive_rate"] = float64(st.FalsePositives) / float64(probes)
				}
				if claims := st.FilterHits + st.FalsePositives; claims > 0 {
					g["fp_per_claim"] = float64(st.FalsePositives) / float64(claims)
				}
				return g
			})
		}
		if lac := s.sphinx.LeafCache(); lac != nil {
			r.AddCounterStruct("lac", func() any { return lac.Stats() })
			// The speculative in-place write's outcomes, under the cache's own
			// prefix (they are also core_spec_upd_*, like the Get outcomes).
			r.AddCounters("lac", func() map[string]uint64 {
				st := s.coreStats()
				return map[string]uint64{
					"update_hits":    st.SpecUpdHits,
					"update_misses":  st.SpecUpdMisses,
					"update_refutes": st.SpecUpdRefutes,
					"update_aborts":  st.SpecUpdAborts,
				}
			})
			r.AddGauges("lac", func() map[string]float64 {
				occupied, capacity, full := lac.Occupancy()
				g := map[string]float64{
					"occupied_slots": float64(occupied),
					"capacity_slots": float64(capacity),
					// Buckets with no empty way: a learn there displaces a live
					// entry. Misses with none full are keys not yet learned.
					"full_buckets": float64(full),
					"size_bytes":   float64(lac.SizeBytes()),
				}
				st := s.coreStats()
				if attempts := st.SpecHits + st.SpecMisses + st.SpecRefutes + st.SpecAborts; attempts > 0 {
					g["hit_rate"] = float64(st.SpecHits) / float64(attempts)
				}
				return g
			})
		}
		if hs := s.sphinx.HotSet(); hs != nil {
			r.AddGauges("hot", func() map[string]float64 {
				st := s.coreStats()
				g := map[string]float64{
					"tracker_bytes": float64(hs.SizeBytes()),
				}
				if reads := st.HotHits + st.HotRefutes + st.HotAborts; reads > 0 {
					g["hit_rate"] = float64(st.HotHits) / float64(reads)
				}
				return g
			})
		}
		r.AddGauges("inht", func() map[string]float64 {
			c := s.cn.cluster
			// Scrape the CURRENT placement epoch's tables: elastic
			// membership changes add and retire tables at runtime.
			p := c.placement()
			var u racehash.Usage
			for node, t := range p.Tables {
				u = u.Add(racehash.ReadUsage(c.f.Region(node), t))
			}
			return map[string]float64{
				"epoch":            float64(p.Epoch),
				"load_factor":      u.LoadFactor(),
				"entries":          float64(u.Entries),
				"capacity_entries": float64(u.Capacity),
				"segments":         float64(u.Segments),
				"dir_entries":      float64(u.DirEntries),
			}
		})
		if ft := s.cn.cluster.sphinxShared.FT; ft != nil {
			r.AddGauges("ft", func() map[string]float64 {
				cl := s.cn.cluster
				h := cl.f.Health()
				g := map[string]float64{
					"under_replicated": float64(ft.UnderReplicated()),
				}
				sweeps, copied := ft.RepairTotals()
				g["repair_sweeps"] = float64(sweeps)
				g["repair_copied"] = float64(copied)
				for _, n := range cl.memNodes() {
					g[fmt.Sprintf("node_health{node=%q}", fmt.Sprint(uint64(n)))] = float64(h.State(n))
				}
				return g
			})
		}
		s.index.Register(r)
	case s.smart != nil:
		r.AddCounterStruct("smart", func() any { return s.smart.ClientStats() })
	}
	// The cluster observability plane: mn_* per-node load families,
	// slo_* burn rates, alert_* states. System-agnostic — collectors
	// read the fabric and MN-side structures directly.
	s.cn.cluster.plane.Register(r)
	r.AddCounters("tail", s.tail.Counters)
	r.AddMetrics("session", s.metrics)
	s.registry = r
	return r
}
