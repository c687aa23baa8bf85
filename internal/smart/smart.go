// Package smart reimplements SMART [OSDI'23], the state-of-the-art ART for
// disaggregated memory the paper compares against (§II-B, §V-A), as the
// paper characterises it:
//
//   - every inner node is preallocated with a Node-256 footprint and grows
//     in place, so node addresses never change — the design that avoids
//     cache-coherence problems at the price of the 2.1–3.0× MN-side memory
//     overhead reported in Fig. 6;
//   - each compute node keeps a byte-budgeted cache of inner nodes. Index
//     operations first walk the cached tree locally, then continue the
//     traversal remotely from the deepest cached node, one round trip per
//     remaining level, re-validating the jump target against the key path
//     (the reverse-check mechanism) and invalidating stale entries.
//
// With a large cache over a static tree, a search can reach the deepest
// inner node in one round trip; with the realistic small caches of the
// paper's evaluation, most levels miss and the round-trip count approaches
// the naive port's — the effect behind Fig. 4 and Fig. 5.
package smart

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"sync"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// Shared is the cluster-wide descriptor of one SMART index.
type Shared struct {
	Root mem.Addr
	Ring *consistenthash.Ring
}

// Bootstrap creates an empty SMART index at cluster-setup time.
func Bootstrap(f *fabric.Fabric, ring *consistenthash.Ring) (Shared, error) {
	alloc := mem.NewAllocator(f.Regions(), 0)
	home := ring.OwnerKey(nil)
	root, err := rart.BootstrapRoot(f.Region(home), alloc, home)
	if err != nil {
		return Shared{}, fmt.Errorf("smart: bootstrap root: %w", err)
	}
	return Shared{Root: root, Ring: ring}, nil
}

// NodeCache is the per-CN node cache, shared by the CN's workers and
// bounded by a byte budget. Every cached node is charged its full
// preallocated Node-256 footprint, matching how SMART's cache budget is
// consumed on real hardware.
type NodeCache struct {
	mu     sync.Mutex
	budget uint64
	used   uint64
	ll     *list.List // front = most recently used
	items  map[mem.Addr]*list.Element

	hits, misses, evictions, invalidations uint64
}

type cacheEntry struct {
	addr mem.Addr
	node *rart.Node // a copy of its own (Add), treated as immutable
}

const cachedNodeCost = wire.SlotBase + 8*256 // wire.NodeSize(Node256)

// NewNodeCache creates a cache with the given byte budget.
func NewNodeCache(budget uint64) *NodeCache {
	return &NodeCache{budget: budget, ll: list.New(), items: make(map[mem.Addr]*list.Element)}
}

// CacheStats summarizes cache behaviour.
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations uint64
	UsedBytes, BudgetBytes                 uint64
	Entries                                int
}

// Stats returns a snapshot of the cache counters.
func (nc *NodeCache) Stats() CacheStats {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return CacheStats{
		Hits: nc.hits, Misses: nc.misses, Evictions: nc.evictions,
		Invalidations: nc.invalidations,
		UsedBytes:     nc.used, BudgetBytes: nc.budget, Entries: len(nc.items),
	}
}

// Get returns the cached node at addr, refreshing its recency.
func (nc *NodeCache) Get(addr mem.Addr) *rart.Node {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	el, ok := nc.items[addr]
	if !ok {
		nc.misses++
		return nil
	}
	nc.hits++
	nc.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).node
}

// Add caches a copy of a freshly read node — the engine's image lives only
// until its next operation — evicting LRU entries past the budget.
func (nc *NodeCache) Add(n *rart.Node) {
	if n.Addr.IsNull() {
		return
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if el, ok := nc.items[n.Addr]; ok {
		el.Value.(*cacheEntry).node = n.Clone()
		nc.ll.MoveToFront(el)
		return
	}
	if uint64(cachedNodeCost) > nc.budget {
		return
	}
	for nc.used+cachedNodeCost > nc.budget && nc.ll.Len() > 0 {
		back := nc.ll.Back()
		nc.removeLocked(back)
		nc.evictions++
	}
	el := nc.ll.PushFront(&cacheEntry{addr: n.Addr, node: n.Clone()})
	nc.items[n.Addr] = el
	nc.used += cachedNodeCost
}

// Invalidate drops a stale entry (reverse check failed).
func (nc *NodeCache) Invalidate(addr mem.Addr) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if el, ok := nc.items[addr]; ok {
		nc.removeLocked(el)
		nc.invalidations++
	}
}

func (nc *NodeCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	delete(nc.items, e.addr)
	nc.ll.Remove(el)
	nc.used -= cachedNodeCost
}

// Options tunes one SMART client.
type Options struct {
	// Cache is the CN's shared node cache; nil gives the client a private
	// one of 16 MiB.
	Cache *NodeCache
}

// Client is one worker's handle on a SMART index. Not safe for concurrent
// use; workers of a CN share only the NodeCache.
type Client struct {
	shared Shared
	eng    *rart.Engine
	cache  *NodeCache
	stats  Stats
	pub    cachePublisher
}

// Stats counts SMART-level events.
type Stats struct {
	Searches, Inserts, Updates, Deletes, Scans uint64
	JumpDepthSum                               uint64 // cumulative depth of cache-walk jump targets
	JumpRejected                               uint64 // reverse check failed; cache entry dropped
}

// NewClient mounts a SMART index over one fabric client.
func NewClient(shared Shared, c *fabric.Client, opts Options) *Client {
	cache := opts.Cache
	if cache == nil {
		cache = NewNodeCache(16 << 20)
	}
	return &Client{
		shared: shared,
		eng:    rart.NewEngine(c, mem.NewAllocator(c, 0), shared.Ring, rart.Config{Prealloc256: true}),
		cache:  cache,
	}
}

// Engine exposes the underlying engine.
func (c *Client) Engine() *rart.Engine { return c.eng }

// Cache exposes the CN node cache.
func (c *Client) Cache() *NodeCache { return c.cache }

// ClientStats returns the client's counters.
func (c *Client) ClientStats() Stats { return c.stats }

// hooks caches every inner node fetched during remote traversals.
type hooks struct{ c *Client }

// SawNode implements rart.Hooks.
func (h hooks) SawNode(prefix []byte, n *rart.Node) { h.c.cache.Add(n) }

// UpdatedLeaf implements rart.Hooks; SMART caches inner nodes only.
func (hooks) UpdatedLeaf([]byte, mem.Addr, uint8) {}

// Plan implements rart.Hooks: fresh nodes go straight into the cache once
// published. Type switches are unreachable under Prealloc256.
func (h hooks) Plan(pubs []rart.Publication) (rart.Publisher, error) {
	h.c.pub = cachePublisher{c: h.c, pubs: pubs}
	return &h.c.pub, nil
}

// cachePublisher is the client's one publication in flight (write paths are
// not re-entrant), held by the client so planning allocates nothing.
type cachePublisher struct {
	rart.NopPublisher // nothing rides the write's batches
	c                 *Client
	pubs              []rart.Publication
}

func (p *cachePublisher) Publish([]fabric.Op) error {
	for _, pub := range p.pubs {
		p.c.cache.Add(pub.Node)
	}
	return nil
}

// localWalk walks the cached tree and returns the deepest cached node
// lying on key's path, or the root address when nothing useful is cached.
// Purely CN-local: zero round trips.
func (c *Client) localWalk(key []byte, maxDepth int) (mem.Addr, int) {
	bestAddr, bestDepth := c.shared.Root, 0
	addr := c.shared.Root
	for hops := 0; hops < wire.MaxDepth+2; hops++ {
		n := c.cache.Get(addr)
		if n == nil {
			return bestAddr, bestDepth
		}
		if match, _ := rart.OnPath(n, key); !match {
			return bestAddr, bestDepth
		}
		depth := int(n.Hdr.Depth)
		if depth > maxDepth {
			return bestAddr, bestDepth
		}
		bestAddr, bestDepth = addr, depth
		if depth >= len(key) {
			return bestAddr, bestDepth
		}
		slot, _, ok := n.Child(key[depth])
		if !ok || slot.Leaf {
			return bestAddr, bestDepth
		}
		addr = slot.Addr
	}
	return bestAddr, bestDepth
}

// jump fetches and validates the local walk's target: the fresh remote
// image must still lie on the key's path (SMART's reverse check). On
// failure the stale cache entry is dropped and the walk retried shallower.
func (c *Client) jump(key []byte) (*rart.Node, int, error) {
	maxDepth := len(key)
	for {
		addr, depth := c.localWalk(key, maxDepth)
		n, err := c.eng.ReadNode(addr, wire.Node256)
		if err != nil {
			return nil, 0, err
		}
		if addr == c.shared.Root {
			return n, 0, nil
		}
		match, _ := rart.OnPath(n, key)
		if n.Hdr.Status != wire.StatusInvalid && match {
			c.cache.Add(n)
			c.stats.JumpDepthSum += uint64(depth)
			return n, depth, nil
		}
		c.stats.JumpRejected++
		c.cache.Invalidate(addr)
		maxDepth = depth - 1
	}
}

// Search returns the value stored for key.
func (c *Client) Search(key []byte) (value []byte, ok bool, err error) {
	if err := rart.CheckArgs(key, nil); err != nil {
		return nil, false, err
	}
	c.stats.Searches++
	err = c.eng.Retry("smart search", key, func() error {
		start, _, err := c.jump(key)
		if err != nil {
			return err
		}
		leaf, err := c.eng.SearchFrom(start, key, hooks{c})
		if ok = leaf != nil && bytes.Equal(leaf.Key, key); ok {
			value = bytes.Clone(leaf.Value) // out of the engine's arena
		}
		return err
	})
	return value, ok, err
}

// Insert stores value for key (upsert), reporting whether it existed.
func (c *Client) Insert(key, value []byte) (bool, error) {
	c.stats.Inserts++
	return c.put(key, value, rart.PutUpsert)
}

// Update overwrites an existing key, reporting whether it was present.
func (c *Client) Update(key, value []byte) (bool, error) {
	c.stats.Updates++
	return c.put(key, value, rart.PutUpdateOnly)
}

func (c *Client) put(key, value []byte, mode rart.PutMode) (existed bool, err error) {
	if err := rart.CheckArgs(key, value); err != nil {
		return false, err
	}
	err = c.eng.Retry("smart put", key, func() error {
		start, depth, err := c.jump(key)
		if err != nil {
			return err
		}
		existed, err = c.eng.PutFrom(start, key, value, mode, hooks{c})
		if errors.Is(err, rart.ErrNeedParent) {
			// A split is needed at the jump target; its parent is not
			// known from here, so force a shallower start.
			c.cache.Invalidate(start.Addr)
			if depth == 0 {
				return fmt.Errorf("smart: split required at root for %q", key)
			}
		}
		return err
	})
	return existed, err
}

// Delete removes key, reporting whether it was present.
func (c *Client) Delete(key []byte) (ok bool, err error) {
	if err := rart.CheckArgs(key, nil); err != nil {
		return false, err
	}
	c.stats.Deletes++
	err = c.eng.Retry("smart delete", key, func() error {
		start, _, err := c.jump(key)
		if err == nil {
			ok, err = c.eng.DeleteFrom(start, key, hooks{c})
		}
		return err
	})
	return ok, err
}

// Scan returns up to limit keys in [lo, hi], ascending, using doorbell
// batching per level like Sphinx (the paper groups SMART with Sphinx on
// YCSB-E for exactly this reason).
func (c *Client) Scan(lo, hi []byte, limit int) (kvs []rart.KV, err error) {
	c.stats.Scans++
	err = c.eng.Retry("smart scan", lo, func() error {
		root, err := c.eng.ReadNode(c.shared.Root, wire.Node256)
		if err == nil {
			kvs, err = c.eng.ScanFrom(root, lo, hi, limit, true)
		}
		return err
	})
	return kvs, err
}
