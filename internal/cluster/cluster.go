// Package cluster is the one assembly of a simulated disaggregated-memory
// cluster: memory nodes on a fabric, the placement ring, one index system's
// bootstrap, and each compute node's caches at the per-CN budget the paper
// fixes (§V-A). The public facade (package sphinx) and the experiment
// harness (internal/bench) both build through it, so every number either
// reports comes from compute nodes built by the same rule.
package cluster

import (
	"fmt"

	"sphinx/internal/artdm"
	"sphinx/internal/consistenthash"
	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/rart"
	"sphinx/internal/smart"
)

// System is the index a cluster runs.
type System int

// The index systems.
const (
	Sphinx System = iota
	SMART
	ART
)

// Config describes one cluster.
type Config struct {
	System System
	Net    fabric.Config
	// Faults, when non-nil, is installed on the fabric before anything is
	// built.
	Faults      *fabric.FaultPlan
	MemoryNodes int
	RegionBytes uint64 // each memory node's region, added nodes' too
	// ExpectedKeys sizes the inner-node hash tables and the start of each
	// compute node's filter.
	ExpectedKeys int
	// Replication > 0 replicates Sphinx's anchors on that many nodes;
	// HotFactor > 0 turns its hot layer on with that many replicas.
	Replication, HotFactor int
	// CacheBytes is a compute node's filter (Sphinx) or node cache (SMART)
	// budget, LeafCacheBytes its leaf-address cache's (Sphinx). A zero
	// Sphinx budget is a tier the compute node does not have.
	CacheBytes, LeafCacheBytes uint64
	Seed                       int64
}

// Cluster is one bootstrapped index on its memory nodes.
type Cluster struct {
	F    *fabric.Fabric
	Ring *consistenthash.Ring // the bootstrap placement
	// Sphinx is the Sphinx index's descriptor; zero for the baselines.
	Sphinx core.Shared

	cfg   Config
	smart smart.Shared
	art   artdm.Shared
	cns   int
}

// New builds the fabric, the memory nodes and an empty index.
func New(cfg Config) (*Cluster, error) {
	f := fabric.New(cfg.Net)
	if cfg.Faults != nil {
		f.SetFaultPlan(cfg.Faults)
	}
	nodes := make([]mem.NodeID, cfg.MemoryNodes)
	for i := range nodes {
		nodes[i] = f.AddNode(cfg.RegionBytes)
	}
	ring, err := consistenthash.NewChecked(nodes, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: building placement ring: %w", err)
	}
	c := &Cluster{F: f, Ring: ring, cfg: cfg}
	switch cfg.System {
	case Sphinx:
		if cfg.Replication > 0 {
			c.Sphinx, err = core.BootstrapReplicated(f, ring, cfg.ExpectedKeys, cfg.Replication)
		} else {
			c.Sphinx, err = core.Bootstrap(f, ring, cfg.ExpectedKeys)
		}
		if err == nil && cfg.HotFactor > 0 {
			// Hot tables are sized for the promoted working set, which is
			// the head of the distribution, not the keyspace: a few
			// thousand keys per CN is generous (trackers demote beyond it).
			err = core.BootstrapHot(f, &c.Sphinx, 4096, cfg.HotFactor)
		}
	case SMART:
		c.smart, err = smart.Bootstrap(f, ring)
	case ART:
		c.art, err = artdm.Bootstrap(f, ring)
	default:
		err = fmt.Errorf("cluster: unknown system %d", cfg.System)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ComputeNode is what one compute node holds for the clients mounted on
// it; a nil cache is a tier they run without.
type ComputeNode struct {
	Filter *core.FilterCache
	LAC    *core.LeafCache
	// Hot is the node's hot-key tracker, shared by its clients so that
	// promotion sees the node's aggregate traffic.
	Hot   *core.HotSet
	Cache *smart.NodeCache
}

// NewComputeNode builds the next compute node, i, its caches seeded from
// Seed+i.
func (c *Cluster) NewComputeNode() *ComputeNode {
	seed := uint64(c.cfg.Seed + int64(c.cns))
	c.cns++
	cn := &ComputeNode{}
	switch c.cfg.System {
	case Sphinx:
		if c.cfg.CacheBytes > 0 {
			cn.Filter = core.NewFilterCacheFor(c.cfg.ExpectedKeys, c.cfg.CacheBytes, seed|1)
		}
		if c.cfg.LeafCacheBytes > 0 {
			cn.LAC = core.NewLeafCacheBytes(c.cfg.LeafCacheBytes, seed)
		}
		if hot := c.Sphinx.Hot; hot != nil {
			cn.Hot = core.NewHotSet(0, seed, hot.R)
		}
	case SMART:
		cn.Cache = smart.NewNodeCache(c.cfg.CacheBytes)
	}
	return cn
}

// CacheBytes is the compute node's cache footprint: the filter at its
// current size, the leaf-address cache and the hot-key tracker, or what
// SMART's node cache holds.
func (cn *ComputeNode) CacheBytes() uint64 {
	var b uint64
	if cn.Filter != nil {
		b += cn.Filter.SizeBytes()
	}
	if cn.LAC != nil {
		b += cn.LAC.SizeBytes()
	}
	if cn.Hot != nil {
		b += cn.Hot.SizeBytes()
	}
	if cn.Cache != nil {
		b += cn.Cache.Stats().UsedBytes
	}
	return b
}

// options is a Sphinx client of cn: its caches, and where it reports.
func (cn *ComputeNode) options(observer fabric.BatchObserver, index *obs.IndexMetrics) core.Options {
	return core.Options{Filter: cn.Filter, LeafCache: cn.LAC, Hot: cn.Hot, Observer: observer, Index: index}
}

// Index is the operation surface the three systems' clients share.
type Index interface {
	Search(key []byte) ([]byte, bool, error)
	Insert(key, value []byte) (bool, error)
	Update(key, value []byte) (bool, error)
	Delete(key []byte) (bool, error)
	Scan(lo, hi []byte, limit int) ([]rart.KV, error)
	Engine() *rart.Engine
}

// Mount mounts the cluster's system for one client of compute node cn on
// fc. fc's batches go to observer and rec (either may be nil); a Sphinx
// client reports its distributions to index and its notes to rec.
func (c *Cluster) Mount(cn *ComputeNode, fc *fabric.Client, observer fabric.BatchObserver, index *obs.IndexMetrics, rec *obs.Recorder) Index {
	if rec != nil {
		observer = obs.Tee{A: observer, B: rec}
	}
	fc.SetObserver(observer)
	switch c.cfg.System {
	case SMART:
		return smart.NewClient(c.smart, fc, smart.Options{Cache: cn.Cache})
	case ART:
		return artdm.NewClient(c.art, fc)
	}
	cl := core.NewClient(c.Sphinx, fc, cn.options(nil, index))
	cl.SetRecorder(rec)
	return cl
}

// Pipeline mounts a pipelined Sphinx executor for compute node cn flushing
// on fc, whose observer is the caller's; observer sees each lane's share of
// a flush. The baselines have none: nil.
func (c *Cluster) Pipeline(cn *ComputeNode, fc *fabric.Client, observer fabric.BatchObserver, index *obs.IndexMetrics) *core.Pipeline {
	if c.cfg.System != Sphinx {
		return nil
	}
	return core.NewPipeline(c.Sphinx, fc, cn.options(observer, index))
}

// Sources is what is observable of the index through the given compute
// nodes: their caches and, for Sphinx, the index MN-side. The client
// counters are the caller's to fill in.
func (c *Cluster) Sources(cns ...*ComputeNode) *core.IndexSources {
	src := &core.IndexSources{}
	if c.cfg.System != Sphinx {
		return src
	}
	for _, cn := range cns {
		if cn.Filter != nil {
			src.Filters = append(src.Filters, cn.Filter)
		}
		if cn.LAC != nil {
			src.LACs = append(src.LACs, cn.LAC)
		}
		if cn.Hot != nil {
			src.Hots = append(src.Hots, cn.Hot)
		}
	}
	src.Shared, src.Fabric = &c.Sphinx, c.F
	return src
}

// Placement is the current placement: the epoch-versioned ring and hash
// tables Sphinx publishes (membership changes may have added or drained
// nodes since bootstrap), the bootstrap ring and no tables for the
// baselines.
func (c *Cluster) Placement() *core.Placement {
	if m := c.Sphinx.Members; m != nil {
		return m.Current()
	}
	return &core.Placement{Ring: c.Ring}
}

// Nodes lists the memory nodes of the current placement.
func (c *Cluster) Nodes() []mem.NodeID { return c.Placement().Ring.Nodes() }

// CollectMNs samples every member node for an observability plane.
func (c *Cluster) CollectMNs() []obs.MNSample {
	p := c.Placement()
	return obs.CollectMNs(c.F, p.Ring.Nodes(), p.Tables)
}

// MemoryUsage sums the member nodes' allocation counters by class.
func (c *Cluster) MemoryUsage() (by [mem.NumClasses]uint64, err error) {
	for _, node := range c.Nodes() {
		u, err := mem.ReadUsage(c.F.Regions(), node)
		if err != nil {
			return by, err
		}
		for i, b := range u.ByClass {
			by[i] += b
		}
	}
	return by, nil
}

// AttachNode adds a memory node of the cluster's region size to the
// fabric. Nothing routes to it until BeginAdd puts it on the ring.
func (c *Cluster) AttachNode() mem.NodeID { return c.F.AddNode(c.cfg.RegionBytes) }

// BeginAdd opens the membership change that adds an attached node to the
// Sphinx index; migration sweeps finish it.
func (c *Cluster) BeginAdd(id mem.NodeID) (*core.Placement, error) {
	return core.BeginAddNode(c.F, c.Sphinx, id, c.cfg.ExpectedKeys)
}

// BeginDrain opens the membership change that drains a member node.
func (c *Cluster) BeginDrain(id mem.NodeID) (*core.Placement, error) {
	return core.BeginDrainNode(c.Sphinx, id)
}
