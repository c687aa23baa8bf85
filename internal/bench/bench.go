// Package bench is the experiment harness that regenerates the paper's
// evaluation (§V): it builds simulated DM clusters, loads datasets, drives
// YCSB workloads through each of the four compared systems and reports
// throughput, latency and memory in the same shape as the paper's figures.
package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"sphinx/internal/artdm"
	"sphinx/internal/consistenthash"
	"sphinx/internal/core"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/smart"
	"sphinx/internal/ycsb"
)

// System identifies one compared index (paper §V-A Comparisons), plus the
// ablation variants this repository adds.
type System int

// The compared systems.
const (
	Sphinx System = iota
	SMART
	SMARTC // SMART with the 10× cache (paper's SMART+C)
	ART    // the original ART ported to DM

	// Ablations (not in the paper's figures; see DESIGN.md).
	SphinxNoSFC // inner-node hash table only, filter cache disabled
	SphinxNoLAC // speculative leaf-address cache disabled (3-RT warm reads)
	SphinxHot   // hotness-driven read replication enabled (skew experiment)
)

// String names the system as the paper's figures do.
func (s System) String() string {
	switch s {
	case Sphinx:
		return "Sphinx"
	case SMART:
		return "SMART"
	case SMARTC:
		return "SMART+C"
	case ART:
		return "ART"
	case SphinxNoSFC:
		return "Sphinx-noSFC"
	case SphinxNoLAC:
		return "Sphinx-noLAC"
	case SphinxHot:
		return "Sphinx-hot"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// PaperSystems lists the four systems of Fig. 4 and Fig. 5.
var PaperSystems = []System{Sphinx, SMART, SMARTC, ART}

// ThetaUniform is the Config.Theta sentinel selecting a truly uniform
// request distribution (zipfian theta 0). Config.Theta == 0 means
// "unset, use the paper's default 0.99", so uniform must be asked for
// explicitly.
const ThetaUniform = -1.0

// Config describes one cluster/experiment setup. Zero values select the
// defaults matching the paper's testbed shape at reduced scale.
type Config struct {
	Dataset      dataset.Kind
	Keys         int // loaded key count (paper: 60 M; default here: 100 k)
	ValueSize    int // paper: 64
	MNs, CNs     int // paper: 3 and 3 (colocated)
	Workers      int // total workers, split across CNs (paper: 6–192)
	OpsPerWorker int
	Net          fabric.Config
	Seed         int64
	// Theta is the zipfian skew of the request distribution (default the
	// paper's 0.99; lower it toward 0 for near-uniform requests). The
	// zero value means "default skew" — a truly uniform run must be
	// requested with the explicit ThetaUniform sentinel (or any negative
	// value), because 0 is indistinguishable from unset.
	Theta float64

	// Depth is the per-worker issue depth: how many operations each
	// worker keeps in flight during the run phase, with same-stage verbs
	// of concurrent ops coalesced into shared doorbell batches. 1 (the
	// default) is the sequential client; >1 applies to the Sphinx-family
	// systems only — SMART and ART keep their sequential clients, as in
	// the paper. The load phase is always sequential.
	Depth int

	// Replication enables the memory-node fault-tolerance layer for the
	// Sphinx-family systems: every published entry is replicated to this
	// many distinct MNs, reads fail over behind the per-node health
	// breaker, and repair sweeps re-replicate after a loss. 0 (the
	// default) disables the layer; the failover experiment forces >= 2.
	Replication int

	// Faults, when non-nil, is installed on the fabric at cluster
	// creation: every phase (load and run) then exercises the retry,
	// backoff and recovery paths, and each result's fault/recovery
	// counters (Result.FaultLine) become nonzero. See
	// docs/failure-model.md.
	Faults *fabric.FaultPlan

	// Metrics enables per-phase observability: every worker client gets a
	// shared obs.Metrics batch observer and each operation's latency and
	// round trips are recorded, producing a Result.Metrics section — the
	// registry's diff over the phase, the index layers' families included —
	// whose per-stage round-trip totals reconcile against the fabric
	// counters.
	Metrics bool

	// Live, when non-nil, accumulates every phase's metrics, index
	// distributions and tail samples into a harness-lifetime surface
	// servable over HTTP while experiments run (sphinxbench -serve). It
	// also turns tail-latency trace sampling on: sequential (depth-1)
	// workers record each op's round-trip timeline, ops above the moving
	// per-kind p99 keep their trace, and the counts land in the
	// Result.Metrics tail fields.
	Live *Live
}

func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 100_000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 64
	}
	if c.MNs == 0 {
		c.MNs = 3
	}
	if c.CNs == 0 {
		c.CNs = 3
	}
	if c.Workers == 0 {
		c.Workers = 24
	}
	if c.OpsPerWorker == 0 {
		c.OpsPerWorker = 2000
	}
	if c.Net == (fabric.Config{}) {
		c.Net = fabric.DefaultConfig()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Theta == 0 {
		c.Theta = ycsb.DefaultTheta
	}
	if c.Theta < 0 {
		// ThetaUniform (or any negative sentinel): a genuinely uniform
		// request distribution. Previously `-theta 0` silently became the
		// default 0.99 skew through the zero-value branch above.
		c.Theta = 0
	}
	if c.Depth == 0 {
		c.Depth = 1
	}
	return c
}

// regionBytes is one memory node's region: 64 MiB plus its share of 6 KiB
// per loaded key.
func (c Config) regionBytes() uint64 {
	return uint64(64<<20) + uint64(c.Keys)*6*1024/uint64(c.MNs)
}

// cacheBudget is a system's per-CN cache budget in bytes at the paper's
// ratios (§V-A): Sphinx's filter and SMART's node cache get 20 MB per
// 480 MB of u64 key bytes (≈4.17 %), SMART+C 10× that — computed against
// the u64-equivalent key volume so that email runs see the same absolute
// budget.
func cacheBudget(sys System, keys int) uint64 {
	u64Bytes := uint64(keys) * 8
	if sys == SMARTC {
		return u64Bytes * 4170 / 10000
	}
	return u64Bytes * 417 / 10000
}

// Index is the operation surface shared by all compared systems: the
// method set *core.Client, *smart.Client and *artdm.Client have in common.
type Index interface {
	Search(key []byte) ([]byte, bool, error)
	Insert(key, value []byte) (bool, error)
	Update(key, value []byte) (bool, error)
	Delete(key []byte) (bool, error)
	Scan(lo, hi []byte, limit int) ([]rart.KV, error)
	Engine() *rart.Engine
}

// Cluster is one bootstrapped system instance plus its dataset and
// workload state.
type Cluster struct {
	Sys  System
	Cfg  Config
	F    *fabric.Fabric
	Ring *consistenthash.Ring

	keys  [][]byte
	space *ycsb.KeySpace
	zipf  *ycsb.Zipfian
	value []byte

	sphinxShared core.Shared
	smartShared  smart.Shared
	artShared    artdm.Shared
	filters      []*core.FilterCache // per CN
	lacs         []*core.LeafCache   // per CN (nil for SphinxNoLAC)
	hotsets      []*core.HotSet      // per CN (nil unless hot replication is on)
	caches       []*smart.NodeCache  // per CN

	// runMetrics is the current measurement phase's metric set, created
	// fresh at the top of Load and Run when Cfg.Metrics is set and shared
	// by every worker client of that phase (obs.Metrics is atomic).
	runMetrics *obs.Metrics
	// live is Cfg.Live: the harness-lifetime surface every phase also
	// reports into (teed with runMetrics on each worker client).
	live *Live
	// index receives SFC/INHT distribution observations from every
	// Sphinx worker (it accumulates: a phase's section is its diff).
	index *obs.IndexMetrics
	// tail samples slow-op timelines from sequential workers.
	tail *obs.TailSampler

	// src is what is observable of the index on this cluster, summed over its
	// CNs: the node engine's counters for every system, the Sphinx layers'
	// and caches for the Sphinx family. The live exporter follows it while
	// the cluster is the current one, and each phase's section is its diff.
	src *core.IndexSources
	// doneMu guards the index-layer counters of the finished phases and the
	// workers of the running one (drive), read by live-registry scrape
	// goroutines through liveIndex.
	doneMu  sync.Mutex
	done    indexTally
	running []*worker
}

// NewCluster builds the fabric, bootstraps the system and generates the
// dataset (not yet loaded into the index).
func NewCluster(sys System, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	f := fabric.New(cfg.Net)
	if cfg.Faults != nil {
		f.SetFaultPlan(cfg.Faults)
	}
	nodes := make([]mem.NodeID, cfg.MNs)
	for i := range nodes {
		nodes[i] = f.AddNode(cfg.regionBytes())
	}
	ring, err := consistenthash.NewChecked(nodes, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: building placement ring: %w", err)
	}

	cl := &Cluster{Sys: sys, Cfg: cfg, F: f, Ring: ring, live: cfg.Live}
	cl.src = &core.IndexSources{Engine: func() rart.EngineStats { return cl.liveIndex().engine }}
	switch {
	case cfg.Live != nil:
		cl.index = cfg.Live.Index
		cl.tail = cfg.Live.Tail
	case cfg.Metrics:
		cl.index = obs.NewIndexMetrics()
	}
	cl.keys = dataset.Generate(cfg.Dataset, cfg.Keys, cfg.Seed)
	cl.space = ycsb.NewKeySpace(cl.keys, dataset.Novel(cfg.Dataset, cfg.Seed+7))
	cl.zipf = ycsb.NewZipfian(uint64(cfg.Keys), cfg.Theta)
	cl.value = make([]byte, cfg.ValueSize)
	rand.New(rand.NewSource(cfg.Seed)).Read(cl.value)

	switch sys {
	case Sphinx, SphinxNoSFC, SphinxNoLAC, SphinxHot:
		if cfg.Replication > 0 {
			cl.sphinxShared, err = core.BootstrapReplicated(f, ring, cfg.Keys, cfg.Replication)
		} else {
			cl.sphinxShared, err = core.Bootstrap(f, ring, cfg.Keys)
		}
		// SphinxHot alone turns the hot read-replication layer on, at the
		// default replica count and per-CN tracker budget.
		if err == nil && sys == SphinxHot {
			if err = core.BootstrapHot(f, &cl.sphinxShared, 4096, core.DefaultHotReplication); err == nil {
				cl.hotsets = make([]*core.HotSet, cfg.CNs)
				for i := range cl.hotsets {
					cl.hotsets[i] = core.NewHotSet(0, uint64(cfg.Seed)+uint64(i)*7919+3, cl.sphinxShared.Hot.R)
				}
			}
		}
		if sys != SphinxNoSFC {
			cl.filters = make([]*core.FilterCache, cfg.CNs)
			for i := range cl.filters {
				cl.filters[i] = core.NewFilterCacheBytes(cacheBudget(sys, cfg.Keys), uint64(cfg.Seed)+uint64(i)|1)
			}
		}
		if sys != SphinxNoLAC {
			// 512 KiB per CN: 64K packed 8-byte leaf addresses.
			cl.lacs = make([]*core.LeafCache, cfg.CNs)
			for i := range cl.lacs {
				cl.lacs[i] = core.NewLeafCacheBytes(512<<10, uint64(cfg.Seed)+uint64(i))
			}
		}
		cl.src.Stats = func() core.Stats { return cl.liveIndex().core }
		cl.src.Hash = func() racehash.Stats { return cl.liveIndex().hash }
		cl.src.Filters, cl.src.LACs, cl.src.Hots = cl.filters, cl.lacs, cl.hotsets
		cl.src.Shared, cl.src.Fabric = &cl.sphinxShared, f
	case SMART, SMARTC:
		cl.smartShared, err = smart.Bootstrap(f, ring)
		cl.caches = make([]*smart.NodeCache, cfg.CNs)
		for i := range cl.caches {
			cl.caches[i] = smart.NewNodeCache(cacheBudget(sys, cfg.Keys))
		}
	case ART:
		cl.artShared, err = artdm.Bootstrap(f, ring)
	default:
		return nil, fmt.Errorf("bench: unknown system %v", sys)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Live != nil {
		cfg.Live.attach(cl)
	}
	return cl, nil
}

// phaseObs composes the harness-lifetime and per-phase batch observers
// for a worker client, returning nil when neither is active. The nil
// check matters at the call sites: installing a typed-nil observer would
// make the interface non-nil and panic on the first batch.
func (cl *Cluster) phaseObs() fabric.BatchObserver {
	var live, phase fabric.BatchObserver
	if cl.live != nil {
		live = cl.live.Metrics
	}
	if cl.runMetrics != nil {
		phase = cl.runMetrics
	}
	switch {
	case live != nil && phase != nil:
		return obs.Tee{A: live, B: phase}
	case live != nil:
		return live
	default:
		return phase
	}
}

// observeOp records one finished operation into the per-phase and
// harness-lifetime metric sets (whichever are active).
func (cl *Cluster) observeOp(k obs.OpKind, latencyPs int64, roundTrips uint64) {
	if cl.runMetrics != nil {
		cl.runMetrics.ObserveOp(k, latencyPs, roundTrips)
	}
	if cl.live != nil {
		cl.live.Metrics.ObserveOp(k, latencyPs, roundTrips)
	}
}

// sphinxOptions returns the core.Options for one worker of a
// Sphinx-family system on the given compute node, or ok=false for the
// baselines.
func (cl *Cluster) sphinxOptions(cn int) (core.Options, bool) {
	if cl.src.Shared == nil {
		return core.Options{}, false
	}
	// SphinxNoSFC has no filter: every locate reads all its prefixes' bucket
	// pairs.
	var o core.Options
	if len(cl.filters) > 0 {
		o.Filter = cl.filters[cn%len(cl.filters)]
	}
	// Every Sphinx-family variant shares its CN's leaf-address cache, so
	// that (like the filter) warmth crosses worker and phase boundaries;
	// SphinxNoLAC has none and runs without the fast path.
	if len(cl.lacs) > 0 {
		o.LeafCache = cl.lacs[cn%len(cl.lacs)]
	}
	// Workers of one CN share that CN's hot-key tracker, like the filter:
	// the promotion claim bit then arbitrates one promoter per CN and the
	// learned replica routes are visible to every worker on the node.
	if len(cl.hotsets) > 0 {
		o.Hot = cl.hotsets[cn%len(cl.hotsets)]
	}
	// The nil guard matters: assigning a nil observer interface
	// unconditionally would make the field non-nil and panic on first
	// event.
	if observer := cl.phaseObs(); observer != nil {
		o.Observer = observer
	}
	o.Index = cl.index
	return o, true
}

// fabricClient builds one worker's fabric client: clock zero, the phase's
// batch observers.
func (cl *Cluster) fabricClient() *fabric.Client {
	fc := cl.F.NewClient()
	// The nil guard matters here too (see sphinxOptions).
	if observer := cl.phaseObs(); observer != nil {
		fc.SetObserver(observer)
	}
	return fc
}

// NewIndex mounts the cluster's system for one worker on the given compute
// node. The returned index is single-worker; CN-level caches are shared.
func (cl *Cluster) NewIndex(cn int) (Index, *fabric.Client) {
	fc := cl.fabricClient()
	if opts, ok := cl.sphinxOptions(cn); ok {
		return core.NewClient(cl.sphinxShared, fc, opts), fc
	}
	switch cl.Sys {
	case SMART, SMARTC:
		return smart.NewClient(cl.smartShared, fc, smart.Options{Cache: cl.caches[cn%len(cl.caches)]}), fc
	case ART:
		return artdm.NewClient(cl.artShared, fc), fc
	default:
		panic("bench: unknown system")
	}
}

// NewIndexNoSpec mounts a Sphinx-family worker like NewIndex but without
// the speculative leaf-address cache. The elastic chaos run's
// measured workers use this: a 1-RT cache hit never consults the
// placement, so it hides the epoch-fallback cost of a migration that the
// run's latency SLO must see. With the cache off the warm read path is
// the deterministic locate-descend, and the SLO cleanly separates steady
// windows from transitions. Baselines (no speculation) fall through to
// NewIndex.
func (cl *Cluster) NewIndexNoSpec(cn int) (Index, *fabric.Client) {
	opts, ok := cl.sphinxOptions(cn)
	if !ok {
		return cl.NewIndex(cn)
	}
	opts.LeafCache = nil
	fc := cl.fabricClient()
	return core.NewClient(cl.sphinxShared, fc, opts), fc
}

// NewPipeline mounts a pipelined Sphinx executor for one worker, or
// ok=false for the baseline systems, which keep sequential clients. The
// returned fabric client is the executor's main client: all round trips
// and bytes account there, exactly as for a sequential worker.
func (cl *Cluster) NewPipeline(cn int) (*core.Pipeline, *fabric.Client, bool) {
	opts, ok := cl.sphinxOptions(cn)
	if !ok {
		return nil, nil, false
	}
	fc := cl.fabricClient()
	return core.NewPipeline(cl.sphinxShared, fc, opts), fc, true
}

// Keys exposes the loaded key set (for verification in tests).
func (cl *Cluster) Keys() [][]byte { return cl.keys }

// Value returns the run's value payload.
func (cl *Cluster) Value() []byte { return cl.value }
