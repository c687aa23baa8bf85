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
// caches and hot-key tracker and the session's index distributions.
func (s *Session) coreOptions() core.Options {
	return core.Options{
		Filter:    s.cn.filter,
		LeafCache: s.cn.lac,
		Hot:       s.cn.hotset,
		Index:     s.index,
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
	return s.idx.Scan(lo, hi, limit)
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
// often the probabilistic machinery misfired. The fields are documented
// where they are declared.
type SphinxCounters = core.Stats

// SphinxStats returns Sphinx-specific counters, the session's pipeline
// lanes included; ok is false for other systems.
func (s *Session) SphinxStats() (SphinxCounters, bool) {
	if s.sphinx == nil {
		return SphinxCounters{}, false
	}
	return s.sphinx.Stats().Add(s.pl.Load().Stats()), true
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
// on first use: fabric counters, the index layers' families
// (core.RegisterIndex, docs/observability.md), the cluster observability
// plane and the session histograms, all snapshot-and-diffable and
// exportable as Prometheus text or JSON.
func (s *Session) Registry() *Registry {
	if s.registry != nil {
		return s.registry
	}
	r := obs.NewRegistry()
	r.AddCounterStruct("fabric", func() any { return s.fc.Stats() })
	// Every counter source sums the session's pipeline lanes in (a pipeline
	// not created yet has none).
	src := &core.IndexSources{Engine: func() rart.EngineStats {
		return s.idx.Engine().Stats().Add(s.pl.Load().EngineStats())
	}}
	switch {
	case s.sphinx != nil:
		c := s.cn.cluster
		src.Stats = func() core.Stats { st, _ := s.SphinxStats(); return st }
		src.Hash = func() racehash.Stats { return s.sphinx.HashStats().Add(s.pl.Load().HashStats()) }
		src.Filters, src.LACs, src.Hots = some(s.cn.filter), some(s.cn.lac), some(s.cn.hotset)
		src.Shared, src.Fabric = &c.sphinxShared, c.f
		s.index.Register(r)
	case s.smart != nil:
		r.AddCounterStruct("smart", func() any { return s.smart.ClientStats() })
	}
	core.RegisterIndex(r, func() *core.IndexSources { return src })
	// The cluster observability plane: mn_* per-node load families,
	// slo_* burn rates, alert_* states. System-agnostic — collectors
	// read the fabric and MN-side structures directly.
	s.cn.cluster.plane.Register(r)
	r.AddCounters("tail", s.tail.Counters)
	r.AddMetrics("session", s.metrics)
	s.registry = r
	return r
}

// some is the compute node's one cache as the slice IndexSources takes, or
// none when the session runs without it.
func some[T any](p *T) []*T {
	if p == nil {
		return nil
	}
	return []*T{p}
}
