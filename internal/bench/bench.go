// Package bench is the experiment harness that regenerates the paper's
// evaluation (§V): it builds simulated DM clusters, loads datasets, drives
// YCSB workloads through each of the four compared systems and reports
// throughput, latency and memory in the same shape as the paper's figures.
package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"sphinx/internal/cluster"
	"sphinx/internal/core"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
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

// Cluster is one bootstrapped system instance (the assembly internal/cluster
// builds) plus its compute nodes, dataset and workload state.
type Cluster struct {
	*cluster.Cluster
	Sys System
	Cfg Config
	// cns are the compute nodes; worker i mounts on cns[i % CNs].
	cns []*cluster.ComputeNode

	keys  [][]byte
	space *ycsb.KeySpace
	zipf  *ycsb.Zipfian
	value []byte

	// metrics is the cluster's metric set, shared by every client it mounts
	// (obs.Metrics is atomic): Cfg.Live's when serving, else its own when
	// Cfg.Metrics is set, else nil. A phase's section is its diff.
	metrics *obs.Metrics
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

// NewCluster builds the fabric, bootstraps the system and its compute
// nodes, and generates the dataset (not yet loaded into the index).
func NewCluster(sys System, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	// A memory node's region is 64 MiB plus its share of 6 KiB per loaded
	// key; a compute node holds a 512 KiB leaf-address cache (64K packed
	// 8-byte leaf addresses) beside its cacheBudget.
	cc := cluster.Config{
		Net: cfg.Net, Faults: cfg.Faults, MemoryNodes: cfg.MNs,
		RegionBytes:  uint64(64<<20) + uint64(cfg.Keys)*6*1024/uint64(cfg.MNs),
		ExpectedKeys: cfg.Keys, Replication: cfg.Replication,
		CacheBytes: cacheBudget(sys, cfg.Keys), LeafCacheBytes: 512 << 10, Seed: cfg.Seed,
	}
	switch sys {
	case Sphinx:
	case SphinxNoSFC:
		cc.CacheBytes = 0
	case SphinxNoLAC:
		cc.LeafCacheBytes = 0
	case SphinxHot:
		cc.HotFactor = core.DefaultHotReplication
	case SMART, SMARTC:
		cc.System = cluster.SMART
	case ART:
		cc.System = cluster.ART
	default:
		return nil, fmt.Errorf("bench: unknown system %v", sys)
	}
	c, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Cluster: c, Sys: sys, Cfg: cfg, cns: make([]*cluster.ComputeNode, cfg.CNs)}
	for i := range cl.cns {
		cl.cns[i] = c.NewComputeNode()
	}
	cl.src = c.Sources(cl.cns...)
	cl.src.Engine = func() rart.EngineStats { return cl.liveIndex().engine }
	if cl.src.Shared != nil {
		cl.src.Stats = func() core.Stats { return cl.liveIndex().core }
		cl.src.Hash = func() racehash.Stats { return cl.liveIndex().hash }
	}
	switch {
	case cfg.Live != nil:
		cl.metrics, cl.index, cl.tail = cfg.Live.Metrics, cfg.Live.Index, cfg.Live.Tail
	case cfg.Metrics:
		cl.metrics, cl.index = obs.NewMetrics(), obs.NewIndexMetrics()
	}
	cl.keys = dataset.Generate(cfg.Dataset, cfg.Keys, cfg.Seed)
	cl.space = ycsb.NewKeySpace(cl.keys, dataset.Novel(cfg.Dataset, cfg.Seed+7))
	cl.zipf = ycsb.NewZipfian(uint64(cfg.Keys), cfg.Theta)
	cl.value = make([]byte, cfg.ValueSize)
	rand.New(rand.NewSource(cfg.Seed)).Read(cl.value)
	if cfg.Live != nil {
		cfg.Live.attach(cl)
	}
	return cl, nil
}

// observer is the cluster's metric set as a worker client's batch
// observer, nil without one: a typed-nil observer would make the interface
// non-nil and panic on the first batch.
func (cl *Cluster) observer() fabric.BatchObserver {
	if cl.metrics == nil {
		return nil
	}
	return cl.metrics
}

// observeOp records one finished operation into the cluster's metric set.
func (cl *Cluster) observeOp(k obs.OpKind, latencyPs int64, roundTrips uint64) {
	if cl.metrics != nil {
		cl.metrics.ObserveOp(k, latencyPs, roundTrips)
	}
}

// NewIndex mounts the cluster's system for one client of compute node cn
// (modulo the node count) on a fresh fabric client under the cluster's
// metric set. The client is single-worker; CN-level caches are shared.
func (cl *Cluster) NewIndex(cn int) cluster.Index {
	return cl.Mount(cl.cns[cn%len(cl.cns)], cl.F.NewClient(), cl.observer(), cl.index, nil)
}

// Keys exposes the loaded key set (for verification in tests).
func (cl *Cluster) Keys() [][]byte { return cl.keys }

// Value returns the run's value payload.
func (cl *Cluster) Value() []byte { return cl.value }
