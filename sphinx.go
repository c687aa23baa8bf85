// Package sphinx is a reproduction of "Sphinx: A High-Performance Hybrid
// Index for Disaggregated Memory With Succinct Filter Cache" (DAC 2025):
// a range index for variable-length keys whose data lives on memory nodes
// reached only through one-sided RDMA-style verbs.
//
// The package bundles three index systems over a simulated
// disaggregated-memory cluster:
//
//   - SystemSphinx — the paper's contribution: an adaptive radix tree whose
//     inner nodes are additionally indexed by a memory-side hash table
//     (one 8-byte entry per node, keyed by full prefix) and filtered by a
//     compute-side cuckoo "succinct filter cache", making a warm search
//     cost three network round trips regardless of tree depth;
//   - SystemSMART — the state-of-the-art baseline it compares against
//     (node-caching ART with Node-256 preallocation);
//   - SystemART — the original adaptive radix tree ported naively.
//
// # Usage
//
//	cluster, _ := sphinx.NewCluster(sphinx.Config{})
//	cn := cluster.NewComputeNode()
//	s := cn.NewSession()
//	s.Put([]byte("LYRICS"), []byte("value"))
//	v, ok, _ := s.Get([]byte("LYRICS"))
//	kvs, _ := s.Scan([]byte("LYR"), []byte("LZ"), 100)
//
// Sessions are single-goroutine handles (one per worker); sessions of the
// same ComputeNode share that CN's caches, exactly as workers share a
// machine in the paper's testbed. The cluster itself is a pure in-process
// simulation: data movement is real, network time is virtual, and every
// session reports its round-trip and byte counts.
package sphinx

import (
	"fmt"
	"sync/atomic"

	"sphinx/internal/artdm"
	"sphinx/internal/consistenthash"
	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/rart"
	"sphinx/internal/smart"
)

// SLO is a per-op-kind latency objective evaluated by the cluster's
// observability plane: at least Quantile of Op operations must complete
// within LatencyPs. See Config.SLOs.
type SLO = obs.SLO

// Alert is the state of one (rule, label) pair in the plane's alert
// engine; see Cluster.Alerts.
type Alert = obs.Alert

// PlaneSnapshot is the cluster observability plane's JSON shape: the
// per-MN load table plus SLO statuses and alert states. See
// Cluster.Observability.
type PlaneSnapshot = obs.PlaneSnapshot

// OpKind identifies an operation kind in SLO targets.
type OpKind = obs.OpKind

// Operation kinds for SLO targets.
const (
	OpGet    = obs.OpGet
	OpPut    = obs.OpPut
	OpUpdate = obs.OpUpdate
	OpDelete = obs.OpDelete
	OpScan   = obs.OpScan
)

// System selects the index implementation a cluster runs.
type System int

// Available index systems.
const (
	SystemSphinx System = iota
	SystemSMART
	SystemART
)

// String names the system.
func (s System) String() string {
	switch s {
	case SystemSphinx:
		return "Sphinx"
	case SystemSMART:
		return "SMART"
	case SystemART:
		return "ART"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Timing selects the network cost model.
type Timing int

// Timing models.
const (
	// TimingRDMA models the paper's testbed: 2 µs round trips, 100 Gbps-
	// class NICs with per-verb and per-byte costs, and NIC contention.
	// Virtual clocks and operation latencies are meaningful.
	TimingRDMA Timing = iota
	// TimingInstant makes every verb free. Functionality only — use it
	// for examples and tests where time is irrelevant.
	TimingInstant
)

// Config describes a cluster. The zero value is a usable Sphinx cluster
// with three memory nodes and paper-like network timing.
type Config struct {
	// System picks the index implementation (default SystemSphinx).
	System System
	// MemoryNodes is the number of memory nodes (default 3, as in §V-A).
	MemoryNodes int
	// MemoryPerNode is each memory node's region size in bytes
	// (default 256 MiB).
	MemoryPerNode uint64
	// ExpectedKeys sizes the inner-node hash tables (they resize beyond
	// it) and the start of each compute node's succinct filter cache (two
	// slots, 4 bytes, per key; it doubles beyond it); default 100 000.
	ExpectedKeys int
	// CacheBytes is the per-compute-node cache budget, a ceiling: the
	// succinct filter cache for Sphinx doubles up to it from the size
	// ExpectedKeys needs, the node cache for SMART fills up to it
	// (default 16 MiB). A doubling drops what the filter held, and while
	// the old table awaits collection the filter briefly takes 1.5× its
	// new size, 1.5× CacheBytes at the last doubling.
	CacheBytes uint64
	// LeafCacheBytes is the per-compute-node budget for the speculative
	// leaf-address cache (SystemSphinx only): the CN-side map that lets a
	// warm Get read its leaf in ONE round trip and verify in place
	// (default 512 KiB — 64K entries of 8 bytes).
	LeafCacheBytes uint64
	// Timing selects the network cost model.
	Timing Timing
	// Seed makes cache behaviour deterministic.
	Seed int64
	// Replication enables the memory-node fault-tolerance layer
	// (SystemSphinx only): every published entry is written to this many
	// distinct memory nodes, reads fail over to surviving replicas behind
	// a per-node health breaker, and RepairSweep re-replicates after a
	// loss. 0 (the default) disables the layer; values >= 2 enable it
	// (1 is rounded up to 2 — a single replica cannot survive a loss).
	Replication int
	// HotReplicaFactor enables the hot-spot tolerance layer (SystemSphinx
	// only): each CN tracks its hottest keys with a decaying frequency
	// sketch of the Gets it serves (every served read counts once),
	// promotes them into this many replicated read-only records spread over
	// ring successors, and serves their Gets from the least-contended replica (power-of-two
	// choices on per-MN queued-wait). It promotes only while that same
	// signal shows one memory node's NIC queueing out of proportion to the
	// others — the one case a replica relieves; on a calm fabric the layer
	// stays dormant, Gets take the leaf-address cache and writes post
	// nothing for it. Writes republish or remove the replicas before
	// acknowledging, so reads stay verify-or-fallback correct. 0 (the
	// default) disables the layer; values >= 2 enable it (1 is rounded up to
	// the default factor of 3).
	HotReplicaFactor int
	// HotSetBytes is the per-CN budget of the hot-key tracker (sketch +
	// replica route caches; default 256 KiB). Only meaningful with
	// HotReplicaFactor > 0.
	HotSetBytes uint64
	// SLOs configures latency objectives for the cluster observability
	// plane: each is evaluated every sample into fast/slow error-budget
	// burn rates, exported as slo_* metric families and fed to the alert
	// engine. The plane samples when SampleObservability is called
	// (virtual-clock driven, as tests and bench do) or on a wall-clock
	// ticker in -serve mode.
	SLOs []SLO
	// ObservabilityWindowPs is the plane's time-series window length in
	// picoseconds of the sampling clock (default 250 ms of wall time,
	// matched to -serve mode's scrape cadence; virtual-clock drivers
	// pick windows matched to their workload length).
	ObservabilityWindowPs int64
}

func (c Config) withDefaults() Config {
	if c.MemoryNodes == 0 {
		c.MemoryNodes = 3
	}
	if c.MemoryPerNode == 0 {
		c.MemoryPerNode = 256 << 20
	}
	if c.ExpectedKeys == 0 {
		c.ExpectedKeys = 100_000
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 16 << 20
	}
	if c.LeafCacheBytes == 0 {
		c.LeafCacheBytes = 512 << 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// KV is one key-value pair returned by Scan: the engine's result as it is,
// one block of key and value bytes per result set.
type KV = rart.KV

// Cluster is a simulated disaggregated-memory cluster hosting one index.
type Cluster struct {
	cfg  Config
	f    *fabric.Fabric
	ring *consistenthash.Ring

	sphinxShared core.Shared
	smartShared  smart.Shared
	artShared    artdm.Shared

	// plane is the cluster observability plane: per-MN windowed load
	// series, SLO burn rates, hysteresis alerts. sloSource is the
	// session metrics set feeding the SLO engine's latency histograms —
	// installed by the first ServeObservability caller (or explicitly by
	// bench harnesses).
	plane     *obs.Plane
	sloSource atomic.Pointer[obs.Metrics]

	nextCN int
}

// NewCluster builds the memory nodes, interconnect and an empty index.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	var netCfg fabric.Config
	switch cfg.Timing {
	case TimingRDMA:
		netCfg = fabric.DefaultConfig()
	case TimingInstant:
		netCfg = fabric.InstantConfig()
	default:
		return nil, fmt.Errorf("sphinx: unknown timing model %d", cfg.Timing)
	}
	f := fabric.New(netCfg)
	nodes := make([]mem.NodeID, cfg.MemoryNodes)
	for i := range nodes {
		nodes[i] = f.AddNode(cfg.MemoryPerNode)
	}
	ring, err := consistenthash.NewChecked(nodes, 0)
	if err != nil {
		return nil, fmt.Errorf("sphinx: building placement ring: %w", err)
	}
	cl := &Cluster{cfg: cfg, f: f, ring: ring}

	switch cfg.System {
	case SystemSphinx:
		if cfg.Replication > 0 {
			cl.sphinxShared, err = core.BootstrapReplicated(f, ring, cfg.ExpectedKeys, cfg.Replication)
		} else {
			cl.sphinxShared, err = core.Bootstrap(f, ring, cfg.ExpectedKeys)
		}
		if err == nil && cfg.HotReplicaFactor > 0 {
			// Hot tables are sized for the promoted working set, which is
			// the head of the distribution, not the keyspace: a few
			// thousand keys per CN is generous (trackers demote beyond it).
			err = core.BootstrapHot(f, &cl.sphinxShared, 4096, cfg.HotReplicaFactor)
		}
	case SystemSMART:
		cl.smartShared, err = smart.Bootstrap(f, ring)
	case SystemART:
		cl.artShared, err = artdm.Bootstrap(f, ring)
	default:
		err = fmt.Errorf("sphinx: unknown system %v", cfg.System)
	}
	if err != nil {
		return nil, err
	}
	cl.plane, err = obs.NewPlane(obs.PlaneOptions{
		WindowPs: cfg.ObservabilityWindowPs,
		Collect: func() []obs.MNSample {
			p := cl.placement()
			return obs.CollectMNs(cl.f, p.Ring.Nodes(), p.Tables)
		},
		Latency: func(k obs.OpKind) obs.HistSnapshot {
			if m := cl.sloSource.Load(); m != nil {
				return m.OpLatency(k)
			}
			return obs.HistSnapshot{}
		},
		SLOs: cfg.SLOs,
	})
	if err != nil {
		return nil, fmt.Errorf("sphinx: building observability plane: %w", err)
	}
	return cl, nil
}

// SampleObservability advances the cluster observability plane to the
// given virtual time: per-MN NIC deltas land in their series windows,
// SLO burn rates are recomputed, and alert rules are stepped. Tests and
// benchmarks drive this from their virtual clocks; -serve mode ticks it
// from a wall-clock sampler instead, so callers there never need it.
func (c *Cluster) SampleObservability(nowPs int64) { c.plane.Tick(nowPs) }

// Alerts returns the alert engine's current state: one entry per
// (rule, label) pair that has ever been evaluated, with firing/resolved
// transition counters. The autoscaler-facing subscription point.
func (c *Cluster) Alerts() []Alert { return c.plane.Alerts() }

// Observability returns the plane's full snapshot: the per-MN load
// table (busy/wait ratios, verb share, occupancy, health, recent
// windows), SLO statuses and alert states.
func (c *Cluster) Observability() PlaneSnapshot { return c.plane.Snapshot() }

// System returns the cluster's index system.
func (c *Cluster) System() System { return c.cfg.System }

// placement returns the CURRENT placement epoch's ring and hash tables —
// elastic membership changes republish it at runtime. Non-Sphinx systems
// keep the static bootstrap ring and have no tables.
func (c *Cluster) placement() *core.Placement {
	if c.sphinxShared.Members != nil {
		return c.sphinxShared.Members.Current()
	}
	return &core.Placement{Ring: c.ring}
}

// memNodes lists the cluster's member memory nodes under the current
// placement: node indices passed to KillMemoryNode etc. are interpreted
// against it.
func (c *Cluster) memNodes() []mem.NodeID { return c.placement().Ring.Nodes() }

// AddMemoryNode grows the cluster online (SystemSphinx only): a fresh
// memory node joins the fabric, its hash tables are bootstrapped, and a
// new placement epoch including it is published. The call returns
// immediately with the node's index (usable with NodeHealth and
// KillMemoryNode); actual rebalancing happens while CNs keep serving, by
// driving Session.MigrateSweep until it reports cutover. At most one
// membership change may be in flight at a time.
func (c *Cluster) AddMemoryNode() (int, error) {
	if c.cfg.System != SystemSphinx {
		return 0, fmt.Errorf("sphinx: elastic membership requires SystemSphinx, not %v", c.cfg.System)
	}
	if c.sphinxShared.Members.Transitioning() {
		return 0, core.ErrTransitionActive
	}
	id := c.f.AddNode(c.cfg.MemoryPerNode)
	p, err := core.BeginAddNode(c.f, c.sphinxShared, id, c.cfg.ExpectedKeys)
	if err != nil {
		return 0, err
	}
	nodes := p.Ring.Nodes()
	for i, n := range nodes {
		if n == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sphinx: added node %d missing from new ring", id)
}

// DrainMemoryNode shrinks the cluster online (SystemSphinx only): node i
// leaves the placement gracefully. The node stays alive and readable
// while migration sweeps relocate everything it owns to the surviving
// members; after the cutover nothing references it. This is the planned
// counterpart of KillMemoryNode's crash failure — see
// docs/failure-model.md. The node hosting the pinned tree root cannot be
// drained, and the last remaining node cannot be removed.
func (c *Cluster) DrainMemoryNode(i int) error {
	if c.cfg.System != SystemSphinx {
		return fmt.Errorf("sphinx: elastic membership requires SystemSphinx, not %v", c.cfg.System)
	}
	nodes := c.memNodes()
	if i < 0 || i >= len(nodes) {
		return fmt.Errorf("sphinx: memory node %d out of range [0,%d)", i, len(nodes))
	}
	_, err := core.BeginDrainNode(c.sphinxShared, nodes[i])
	return err
}

// Epoch reports the current placement epoch: 0 at bootstrap, +1 per
// membership change. Always 0 for non-Sphinx systems.
func (c *Cluster) Epoch() uint64 {
	if c.sphinxShared.Members == nil {
		return 0
	}
	return c.sphinxShared.Members.Current().Epoch
}

// MigrationPending reports whether a membership change is still
// mid-migration (drive Session.MigrateSweep to finish it).
func (c *Cluster) MigrationPending() bool {
	return c.sphinxShared.Members != nil && c.sphinxShared.Members.Transitioning()
}

// MemoryNodes reports the current member count.
func (c *Cluster) MemoryNodes() int { return len(c.memNodes()) }

// KillMemoryNode permanently removes memory node i (0-based) from the
// cluster: every verb addressed to it fails with a permanent-loss error
// from now on, and the shared health breaker marks it dead on first
// contact. With Replication >= 2 the cluster keeps serving from the
// surviving replicas; without replication the node's data is simply gone.
func (c *Cluster) KillMemoryNode(i int) error {
	nodes := c.memNodes()
	if i < 0 || i >= len(nodes) {
		return fmt.Errorf("sphinx: memory node %d out of range [0,%d)", i, len(nodes))
	}
	c.f.KillNode(nodes[i])
	return nil
}

// NodeHealth reports the health breaker's view of memory node i:
// "closed" (healthy), "open" (suspected down, probing), "dead"
// (permanently lost).
func (c *Cluster) NodeHealth(i int) (string, error) {
	nodes := c.memNodes()
	if i < 0 || i >= len(nodes) {
		return "", fmt.Errorf("sphinx: memory node %d out of range [0,%d)", i, len(nodes))
	}
	return c.f.Health().State(nodes[i]).String(), nil
}

// UnderReplicated reports the latest repair sweep's replica-deficit
// gauge: how many replica slots the last RepairSweep found missing or
// stale. 0 after a sweep means the cluster is fully replicated. Always 0
// when the fault-tolerance layer is disabled.
func (c *Cluster) UnderReplicated() uint64 {
	if c.sphinxShared.FT == nil {
		return 0
	}
	return c.sphinxShared.FT.UnderReplicated()
}

// MemoryUsage reports the MN-side memory footprint by object class.
type MemoryUsage struct {
	InnerNodeBytes uint64
	LeafBytes      uint64
	HashTableBytes uint64
	MetadataBytes  uint64
	TotalBytes     uint64
}

// MemoryUsage sums allocation counters across all memory nodes.
func (c *Cluster) MemoryUsage() (MemoryUsage, error) {
	var u MemoryUsage
	ops := c.f.Regions()
	for _, node := range c.memNodes() {
		nu, err := mem.ReadUsage(ops, node)
		if err != nil {
			return u, err
		}
		u.MetadataBytes += nu.ByClass[mem.ClassMeta]
		u.InnerNodeBytes += nu.ByClass[mem.ClassInner]
		u.LeafBytes += nu.ByClass[mem.ClassLeaf]
		u.HashTableBytes += nu.ByClass[mem.ClassHash]
	}
	u.TotalBytes = u.MetadataBytes + u.InnerNodeBytes + u.LeafBytes + u.HashTableBytes
	return u, nil
}

// ComputeNode models one compute-side machine: its sessions share the
// CN-local cache (the succinct filter cache for Sphinx, the node cache
// for SMART), while each session owns its own network endpoint.
type ComputeNode struct {
	cluster *Cluster
	id      int
	filter  *core.FilterCache
	lac     *core.LeafCache
	hotset  *core.HotSet
	cache   *smart.NodeCache
}

// NewComputeNode adds a compute node to the cluster.
func (c *Cluster) NewComputeNode() *ComputeNode {
	cn := &ComputeNode{cluster: c, id: c.nextCN}
	c.nextCN++
	switch c.cfg.System {
	case SystemSphinx:
		cn.filter = core.NewFilterCacheFor(c.cfg.ExpectedKeys, c.cfg.CacheBytes, uint64(c.cfg.Seed+int64(cn.id))|1)
		cn.lac = core.NewLeafCacheBytes(c.cfg.LeafCacheBytes, uint64(c.cfg.Seed+int64(cn.id)))
		if hot := c.sphinxShared.Hot; hot != nil {
			// One tracker per CN, shared by its sessions, so promotion
			// decisions see the CN's aggregate traffic — the same sharing
			// shape as the filter cache.
			cn.hotset = core.NewHotSet(c.cfg.HotSetBytes, uint64(c.cfg.Seed+int64(cn.id)), hot.R)
		}
	case SystemSMART:
		cn.cache = smart.NewNodeCache(c.cfg.CacheBytes)
	}
	return cn
}

// CacheBytes reports the CN cache's current memory footprint: for Sphinx
// the succinct filter cache at its current size, the speculative
// leaf-address cache created with it, and the hot-key tracker if any.
func (cn *ComputeNode) CacheBytes() uint64 {
	switch {
	case cn.filter != nil:
		total := cn.filter.SizeBytes() + cn.lac.SizeBytes()
		if cn.hotset != nil {
			total += cn.hotset.SizeBytes()
		}
		return total
	case cn.cache != nil:
		return cn.cache.Stats().UsedBytes
	default:
		return 0
	}
}

// ErrValueTooLarge is returned by a write — on any System — whose value, with
// its key, does not fit the largest leaf (wire.MaxLeafUnits 64-byte units),
// before anything is written.
var ErrValueTooLarge = core.ErrValueTooLarge
