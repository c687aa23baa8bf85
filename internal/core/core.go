// Package core implements Sphinx, the paper's contribution: a hybrid range
// index for variable-length keys on disaggregated memory. It combines
//
//   - the ART node engine (internal/rart) for the tree itself,
//   - the Inner Node Hash Table (internal/racehash, paper §III-A): one
//     RACE-style table per memory node mapping inner-node full prefixes to
//     8-byte entries, letting a client reach the deepest relevant inner
//     node with a single hash-entry read instead of a root-to-node walk,
//   - the Succinct Filter Cache (internal/cuckoo, paper §III-B): a per-CN
//     cuckoo filter tracking which prefixes exist, so the client usually
//     knows the deepest prefix locally and reads exactly one hash entry.
//
// A warm-path Search therefore costs three network round trips: hash
// entry, inner node, leaf (paper §III-B), independent of key length and
// tree depth.
package core

import (
	"fmt"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/counters"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// sfcSeed derives the filter-cache hash from a prefix; distinct from every
// other hash use in the system.
const sfcSeed = 8

// PrefixFilterHash returns the succinct-filter-cache hash of a prefix.
func PrefixFilterHash(prefix []byte) uint64 { return wire.Hash64Seed(prefix, sfcSeed) }

// prefixStates computes, in client scratch, the hash states of every prefix
// of key from one forward pass — the filter's (PrefixFilterHash(key[:l]) is
// wire.Mix64 of sfc[l]) and the leaf-address cache's node words'
// (LeafCache.NodeHash(key[:l]) is wire.Mix64 of node[l]) — and makes them
// the ones prefixHashes answers from. A key they are already of — a narrowed
// round's, a nested read's — is not hashed again.
func (c *Client) prefixStates(key []byte) (sfc, node []uint64) {
	if len(key) == 0 || len(key) != len(c.stateKey) || &key[0] != &c.stateKey[0] {
		var nodeSeed uint64
		if c.lac != nil {
			nodeSeed = c.lac.nodeSeed()
		}
		c.stateKey = key
		c.sfcStates, c.nodeStates = wire.HashStates(c.sfcStates[:0], c.nodeStates[:0], key, sfcSeed, nodeSeed)
	}
	return c.sfcStates, c.nodeStates
}

// prefixHashes returns the filter hash and the node-word hash of prefix:
// read off the operation's states when prefix is a prefix of the key they
// were computed for — the same bytes: the descent, the landing and the
// publications all slice the operation's key —, hashed here otherwise. The
// node-word hash is 0 for a client without a leaf-address cache.
func (c *Client) prefixHashes(prefix []byte) (filter, node uint64) {
	if l := len(prefix); l > 0 && l <= len(c.stateKey) && &prefix[0] == &c.stateKey[0] {
		return wire.Mix64(c.sfcStates[l]), wire.Mix64(c.nodeStates[l])
	}
	if c.lac != nil {
		node = c.lac.NodeHash(prefix)
	}
	return PrefixFilterHash(prefix), node
}

// Shared is the cluster-wide descriptor of one Sphinx index. Everything
// in it is immutable except Members, which republishes the placement
// (ring + tables) when memory nodes are added or drained.
type Shared struct {
	Root   mem.Addr
	Ring   *consistenthash.Ring
	Tables map[mem.NodeID]racehash.Table
	// FT, when non-nil, enables the MN fault-tolerance layer (replicated
	// anchors, health-gated failover, online repair — see replica.go).
	// Built by BootstrapReplicated; nil keeps the original single-copy
	// behaviour byte-for-byte.
	FT *FaultTolerance
	// Members publishes epoch-versioned placement snapshots (see
	// membership.go); elastic scale-out/in swaps them atomically.
	Members *Membership
	// Hot, when non-nil, enables the hot-key read-replication layer
	// (hotness-driven R-way replica records with contention-aware replica
	// choice — see hotreplica.go). Built by BootstrapHot; nil keeps
	// single-owner placement byte-for-byte.
	Hot *HotReplicas
}

// Bootstrap creates an empty Sphinx index: the root node plus one inner
// node hash table per memory node, sized for the expected number of keys
// (inner-node count is bounded by key count; tables resize beyond that).
// Runs at cluster-setup time with direct region access.
func Bootstrap(f *fabric.Fabric, ring *consistenthash.Ring, expectedKeys int) (Shared, error) {
	alloc := mem.NewAllocator(f.Regions(), 0)
	home := ring.OwnerKey(nil)
	root, err := rart.BootstrapRoot(f.Region(home), alloc, home)
	if err != nil {
		return Shared{}, err
	}
	// Inner nodes are a fraction of the key count (one per shared-prefix
	// branch point); a quarter is generous for both datasets, and the
	// table resizes itself beyond that.
	tables, err := bootstrapTables(f, alloc, ring.Nodes(), expectedKeys/(4*len(ring.Nodes()))+1)
	if err != nil {
		return Shared{}, fmt.Errorf("core: bootstrap hash %w", err)
	}
	sh := Shared{Root: root, Ring: ring, Tables: tables}
	sh.Members = NewMembership(&Placement{Ring: ring, Tables: tables})
	return sh, nil
}

// FilterCache is the per-compute-node Succinct Filter Cache: a cuckoo
// filter shared by all workers of one CN (paper §III-B, "a lightweight
// per-CN cache"), whose Contains, Insert (learn a prefix hash) and Delete
// (unlearn one after a detected false positive) are the filter's own.
// Contains takes no lock — two atomic bucket loads plus a best-effort CAS
// marking hotness — so the read-dominant warm path scales with the CN's
// cores instead of funnelling every worker through one lock.
type FilterCache struct {
	*cuckoo.Filter
}

// NewFilterCache creates a filter cache with capacity for n prefixes.
func NewFilterCache(n int, seed uint64) *FilterCache {
	return &FilterCache{cuckoo.New(n, seed)}
}

// NewFilterCacheBytes creates a filter cache of a CN-side memory budget (the
// quantity the paper's evaluation fixes at 20 MB), allocated whole: the
// filter starts at the budget and never grows. It fills the budget exactly
// (within one 8-byte bucket word): cuckoo bucket counts are not constrained
// to powers of two, so none of the budget is lost to rounding. A compute
// node sizes its cache with NewFilterCacheFor, which treats the budget as a
// ceiling.
func NewFilterCacheBytes(budget uint64, seed uint64) *FilterCache {
	return &FilterCache{cuckoo.NewBytes(max(budget, 16), seed)}
}

// NewFilterCacheFor creates the filter cache of a compute node of a cluster
// expected to hold expectedKeys keys. The budget is a ceiling: the filter
// starts at the size those keys need (two slots, 4 bytes, per key) and
// doubles toward the budget as the index outgrows it (cuckoo.NewGrowing).
func NewFilterCacheFor(expectedKeys int, budget, seed uint64) *FilterCache {
	return &FilterCache{cuckoo.NewGrowing(expectedKeys, max(budget, 16), seed)}
}

// FilterStats returns the underlying filter counters.
func (fc *FilterCache) FilterStats() cuckoo.Stats { return fc.Stats() }

// Occupancy returns the filter's occupied slots and total slot capacity.
func (fc *FilterCache) Occupancy() (occupied, capacity uint64) {
	return fc.Filter.Occupancy(), uint64(fc.Capacity())
}

// Options tunes one Sphinx client. Every pointer names something the
// client's compute node holds; a nil one is a tier the client runs without.
type Options struct {
	// Filter is the CN's shared Succinct Filter Cache. With none, every
	// locate reads the bucket pairs of all prefixes in one doorbell batch
	// (§III-A, the Θ(L) mode of §III-B's analysis; the noSFC ablation).
	Filter *FilterCache
	// LeafCache is the CN's shared speculative leaf-address cache. With
	// none, no Get takes the 1-RT fast path, no write the speculative
	// in-place one, and every landing asks the table.
	LeafCache *LeafCache
	// Observer, when non-nil, is installed on the fabric client so every
	// doorbell batch is reported with its stage annotation (obs.Metrics
	// implements it). Shared observers must be concurrency-safe.
	Observer fabric.BatchObserver
	// Index, when non-nil, receives index-semantic distributions: SFC
	// hit depths and probe counts per locate, INHT candidate counts per
	// hash-entry lookup. Histograms are atomic, so one IndexMetrics may
	// be shared by all workers of a CN.
	Index *obs.IndexMetrics
	// Hot is the CN's shared hot-key tracker (sketch + replica route
	// caches). Share one HotSet across a CN's workers so promotion
	// decisions see the CN's aggregate traffic. With none, a client on a
	// cluster with Shared.Hot neither promotes keys nor serves hot reads;
	// its writes still refresh every published hot record.
	Hot *HotSet
}

// Stats counts Sphinx-level events per client: how operations were routed
// (filter cache vs parallel fallback vs root walk), which speculative tier
// served them, and how often the probabilistic machinery misfired. It is the
// one declaration of these counters: sphinx.SphinxCounters is this type, and
// both exporters name them from its fields (core_<field>, RegisterIndex).
type Stats struct {
	Searches, Inserts, Updates, Deletes, Scans uint64
	// FilterHits counts locates that landed on a node below the root through
	// the filter-cache tier — the three-round-trip warm path, or two when the
	// node's address is remembered (NodeHits): at a prefix the filter claims,
	// or one whose node word the leaf-address cache remembers
	// (UnclaimedLandings).
	FilterHits uint64
	// FilterFallbacks counts locates of a client without the filter
	// (a nil Options.Filter) that landed on a node the parallel
	// multi-prefix hash read named.
	FilterFallbacks uint64
	// RootStarts counts locates, with the filter or without, that landed on
	// no table node and start at the root: FilterHits + FilterFallbacks +
	// RootStarts is the number of locates.
	RootStarts uint64
	// FalsePositives counts filter claims the index refuted and unlearned
	// (<1% of probes per the paper).
	FalsePositives uint64
	// CollisionRetries counts the leaf-level common-prefix detections of
	// §III-B (<0.01% of operations per the paper).
	CollisionRetries uint64
	// Restarts counts operation-level retries (coherence protocol: invalidated
	// nodes or leaves observed mid-change); the sum of the Restarts* causes.
	Restarts uint64
	// ParentRetries counts ErrNeedParent re-routes (structural, no backoff).
	ParentRetries uint64
	// AheadSwaps counts type switches whose entry swap was planned on the
	// bucket pair the re-routed landing's batch fetched (publisher.readAhead):
	// no READ rode the write's lock batch, and behind two won bets there was
	// no lock batch.
	AheadSwaps uint64
	// StaleEntries counts invalid hash entries cleaned opportunistically.
	StaleEntries uint64
	// FPMismatches counts candidate nodes read but failing the §III-B checks.
	FPMismatches uint64
	// The fault-tolerance layer: Failovers counts reads served from anchor
	// replicas after node loss, DegradedPuts writes and deletes served
	// anchor-only (tree path dead), PartialReplicas acked writes that reached
	// fewer than R replicas, AnchorConfirms degraded-mode absent answers
	// verified via anchors.
	Failovers, DegradedPuts, PartialReplicas, AnchorConfirms uint64
	// SpecHits counts Gets served by the speculative 1-RT fast path: one
	// leaf read at the cached address, verified in place.
	SpecHits uint64
	// SpecMisses counts Gets with no leaf-address-cache entry (cold keys); a
	// client without the cache counts none.
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
	// (fresh keys, cold keys); a client without the cache counts none.
	SpecUpdMisses uint64
	// SpecUpdRefutes counts speculative writes the leaf image refuted (a
	// retired or foreign leaf); the entry is unlearned and the write takes
	// the tree path without consuming retry budget.
	SpecUpdRefutes uint64
	// SpecUpdAborts counts speculative writes given up with the entry kept: a
	// leaf locked by another writer, a value that outgrew the leaf's units,
	// or a transient fabric error.
	SpecUpdAborts uint64
	// NodeHits counts landings read at the address the leaf-address cache
	// remembers for a prefix, with no table read (fetchRemembered); they are
	// FilterHits too.
	NodeHits uint64
	// NodeRefutes counts remembered node addresses the image read there
	// refuted (retired, another prefix's node, undecodable); the entry is
	// unlearned and the landing asks the table.
	NodeRefutes uint64
	// NodeAborts counts remembered node addresses whose image was leased by
	// someone else and therefore not trusted: the entry is kept, the landing
	// asks the table.
	NodeAborts uint64
	// UnclaimedLandings counts the FilterHits at a prefix the filter does
	// not claim: an operation that does not insert landed on the node the
	// prefix's remembered node word led to (locate), which had outlived the
	// filter's entry.
	UnclaimedLandings uint64
	// EpochFallbacks counts reads served from the previous placement epoch
	// while a membership change was mid-migration.
	EpochFallbacks uint64
	// Cutovers counts membership transitions this client retired after
	// convergence.
	Cutovers uint64
	// ScanRootFallbacks counts scans of a client with the filter, from a lo,
	// that ran from the root after all: no node of lo's path verified, or
	// the seeded scan failed — a restart, a fault (DESIGN.md §5.15). The
	// seeded ones are rart.EngineStats.ScanSeeded.
	ScanRootFallbacks uint64
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
	// HotDeclined counts promotions declined because no NIC queued out of
	// proportion to the others in the fabric's last contention window
	// (hotPromote): the key is unclaimed and nothing is posted.
	HotDeclined uint64
	// HotDemotes counts cooled keys torn back down to single-owner.
	HotDemotes uint64
	// HotRefreshes counts writes that republished at least one hot record
	// before acknowledging.
	HotRefreshes uint64
	// Restarts by the cause the operation driver classified (ops.go drive);
	// they sum to Restarts. Structural: a lost tree race (rart.ErrRestart,
	// need-parent at the root). Transient, Timeout: an injected fabric fault of
	// that kind. NodeDown: a memory node rejected the batch (a down window, or
	// a lost node with no replica layer to fail over to).
	RestartsStructural, RestartsTransient, RestartsTimeout, RestartsNodeDown uint64
	// The replica layers' write acknowledgement (records.go begin and run;
	// anchors and hot records together): ReplicaFanouts counts passes over a
	// key's whole target set, ReplicaRounds the doorbell batches they posted
	// (a round carrying both layers' verbs is one), ReplicaLegs the node-legs
	// they carried — legs per round is what batching saves.
	// ReplicaRequeues counts legs sent back to the bucket read by a lost entry
	// CAS or a stale directory cache, ReplicaSplits rounds whose batch faulted
	// and was posted again one node at a time. ReplicaRidden counts the rounds
	// among ReplicaRounds that another batch carried: an anchored write's read
	// rounds behind its own tree write's verbs (records.go ride).
	ReplicaFanouts, ReplicaRounds, ReplicaLegs, ReplicaRequeues, ReplicaSplits, ReplicaRidden uint64
}

func init() {
	counters.Check[Stats]()
	counters.Check[cuckoo.Stats]() // summed over a CN's filters in telemetry.go
}

// Add returns s + t, field-wise; used to aggregate workers.
func (s Stats) Add(t Stats) Stats {
	counters.Add(&s, &t)
	return s
}

// viewSet is a copy-on-write map of per-node hash-table views. The owning
// worker goroutine alone replaces it (growing it lazily when an elastic
// membership change introduces a node); metrics scrapes on other
// goroutines only Load and iterate a snapshot.
type viewSet struct {
	m map[mem.NodeID]*racehash.View
}

// Client is one worker's handle on a Sphinx index. Not safe for concurrent
// use; workers of one CN share only the FilterCache.
type Client struct {
	shared  Shared
	members *Membership
	eng     *rart.Engine
	views   atomic.Pointer[viewSet]
	filter  *FilterCache
	lac     *LeafCache
	// stats fields are incremented atomically and loaded atomically by
	// Stats(), so a live metrics scrape can snapshot a client while its
	// worker goroutine runs operations.
	stats Stats
	index *obs.IndexMetrics // nil when index distributions are off
	rec   *obs.Recorder     // armed per-op by Session.Trace; nil when idle

	// The two replica layers' record stores (records.go): anchors is nil
	// without Shared.FT, hot without Shared.Hot.
	anchors *recordStore
	hot     *recordStore

	// The CN's hot-key tracker; nil without Shared.Hot or Options.Hot.
	hotset *HotSet

	// inserting says the operation in flight is a put that may link a new
	// leaf: its jump start bets on the landing's lease (readCandidates).
	inserting bool

	// Warm-path scratch, reused across operations (clients are
	// single-goroutine). Valid only within one locate step.
	candScratch []racehash.Candidate
	readScratch []racehash.PreparedRead // the filter-less locate's bucket pairs
	opScratch   []fabric.Op
	nodeScratch []*rart.Node
	pathScratch []pathCand // a seeded scan's nodes of lo's path (scanPath)
	// The hash states of every prefix of stateKey, the key the operation in
	// flight locates or the scan path probes (prefixStates); begin drops
	// them.
	stateKey              []byte
	sfcStates, nodeStates []uint64

	// pub carries the hash-table publications of the structural write in
	// progress (see publisher).
	pub publisher
}

// NewClient mounts a Sphinx index over one fabric client.
func NewClient(shared Shared, c *fabric.Client, opts Options) *Client {
	members := shared.Members
	// Steer new tree allocations (inner nodes, leaves) by the CURRENT ring
	// — and, with fault tolerance, to the first healthy successor on it — so
	// post-loss growth avoids dead nodes and post-rebalance growth lands on
	// the new placement.
	var cl *Client
	place := func(key []byte) mem.NodeID { return cl.placeIn(members.Current(), key) }
	alloc := mem.NewAllocator(c, 0)
	cl = &Client{
		shared:  shared,
		members: members,
		eng:     rart.NewEngine(c, alloc, shared.Ring, rart.Config{Place: place}),
		filter:  opts.Filter,
		lac:     opts.LeafCache,
		index:   opts.Index,
	}
	cl.eng.Note = func(stage fabric.Stage, note string) {
		if cl.rec != nil {
			cl.rec.Note(stage, cl.eng.C.Clock(), note)
		}
	}
	cur := members.Current()
	views := &viewSet{m: make(map[mem.NodeID]*racehash.View, len(cur.Tables))}
	for node, t := range cur.Tables {
		views.m[node] = racehash.NewView(t, c)
	}
	cl.views.Store(views)
	if ft := shared.FT; ft != nil {
		cl.anchors = &recordStore{fc: c, alloc: alloc, tables: ft.records, r: ft.R, eligible: ft.Health.Alive,
			skip: fabric.ErrNodeDown, views: make(map[mem.NodeID]*racehash.View), stats: &cl.stats}
	}
	if hot := shared.Hot; hot != nil {
		cl.hot = &recordStore{fc: c, alloc: alloc, tables: hot.records, r: hot.R, eligible: hot.records.hosts,
			routed: true, stage: fabric.StageHotPub, skip: fabric.ErrNodeKilled,
			views: make(map[mem.NodeID]*racehash.View), stats: &cl.stats}
		cl.hotset = opts.Hot
	}
	if opts.Observer != nil {
		c.SetObserver(opts.Observer)
	}
	return cl
}

// SetRecorder arms (or, with nil, disarms) a per-operation trace
// recorder: locate and the op entry points annotate local events —
// filter probes, collisions, restarts — on it. Batch events reach the
// recorder through the fabric observer; Session.Trace wires both ends.
func (c *Client) SetRecorder(r *obs.Recorder) { c.rec = r }

// Engine exposes the node engine (fabric client, allocator) for stats.
func (c *Client) Engine() *rart.Engine { return c.eng }

// Stats returns a snapshot of the client's counters, loaded atomically so
// it is safe to call concurrently with the worker driving the client.
func (c *Client) Stats() Stats { return counters.Load(&c.stats) }

// HashStats aggregates the inner-node-hash-table view counters across all
// memory nodes this client talks to. Safe to call from scrape goroutines:
// the view set is copy-on-write.
func (c *Client) HashStats() racehash.Stats {
	var total racehash.Stats
	for _, v := range c.views.Load().m {
		total = total.Add(v.Stats())
	}
	return total
}

// placeIn resolves the memory node owning key under placement p: the ring
// owner, or (with fault tolerance) the first healthy successor.
func (c *Client) placeIn(p *Placement, key []byte) mem.NodeID {
	if ft := c.shared.FT; ft != nil {
		return ft.place(p.Ring, key)
	}
	return p.Ring.OwnerKey(key)
}

// viewOf returns the client's view on node's inner-node hash table,
// creating it lazily for nodes that joined after the client did. The
// table is resolved from the current placement, falling back to the
// in-transition previous epoch. Returns nil for an unknown node.
func (c *Client) viewOf(node mem.NodeID) *racehash.View {
	if v, ok := c.views.Load().m[node]; ok {
		return v
	}
	p := c.members.Current()
	t, ok := p.Tables[node]
	if !ok && p.Prev != nil {
		t, ok = p.Prev.Tables[node]
	}
	if !ok {
		return nil
	}
	v := racehash.NewView(t, c.eng.C)
	// Publish a grown copy of the view set. Only the owning worker
	// goroutine mutates it, so a plain load-copy-store suffices; the atomic
	// pointer is for concurrent metrics scrapes.
	old := c.views.Load()
	next := &viewSet{m: make(map[mem.NodeID]*racehash.View, len(old.m)+1)}
	for n, ov := range old.m {
		next.m[n] = ov
	}
	next.m[node] = v
	c.views.Store(next)
	return v
}

// viewFor returns the hash-table view of the memory node owning a prefix
// under the current placement. With fault tolerance active, ownership
// skips dead nodes: new entries and lookups for prefixes whose ring owner
// died consistently use the first healthy successor's table.
func (c *Client) viewFor(prefix []byte) *racehash.View {
	return c.viewOf(c.placeIn(c.members.Current(), prefix))
}

// prevViewFor returns the previous epoch's view for a prefix during a
// membership transition, or nil when there is no transition or the owner
// did not change — reads then need no second probe.
func (c *Client) prevViewFor(p *Placement, prefix []byte) *racehash.View {
	if p.Prev == nil {
		return nil
	}
	prevOwner := c.placeIn(p.Prev, prefix)
	if prevOwner == c.placeIn(p, prefix) {
		return nil
	}
	return c.viewOf(prevOwner)
}
