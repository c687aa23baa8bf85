package smart

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
)

func newCluster(t *testing.T, mns int, cfg fabric.Config) (*fabric.Fabric, Shared) {
	t.Helper()
	f := fabric.New(cfg)
	nodes := make([]mem.NodeID, mns)
	for i := range nodes {
		nodes[i] = f.AddNode(64 << 20)
	}
	ring := consistenthash.New(nodes, 0)
	shared, err := Bootstrap(f, ring)
	if err != nil {
		t.Fatal(err)
	}
	fscktest.AtEnd(t, f, func(fc *fabric.Client) *rart.Check {
		return rart.NewEngine(fc, nil, nil, rart.Config{Prealloc256: true}).Fsck(shared.Root)
	})
	return f, shared
}

func TestInsertSearchBasic(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig())
	c := NewClient(shared, f.NewClient(), Options{})
	pairs := map[string]string{
		"LYRICS": "v1", "LYRIC": "v2", "LYR": "v3", "L": "v4", "MOON": "v5",
	}
	for k, v := range pairs {
		if existed, err := c.Insert([]byte(k), []byte(v)); err != nil || existed {
			t.Fatalf("insert %q: %v %v", k, existed, err)
		}
	}
	for k, v := range pairs {
		got, ok, err := c.Search([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Errorf("Search(%q) = %q,%v,%v", k, got, ok, err)
		}
	}
	if _, ok, _ := c.Search([]byte("LYRI")); ok {
		t.Error("absent key found")
	}
}

func TestAllNodesAreNode256Footprint(t *testing.T) {
	// SMART's defining property: every inner node consumes the Node-256
	// footprint on the memory node (paper §II-B / Fig. 6).
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	c := NewClient(shared, f.NewClient(), Options{})
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("prefix-%04d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	u, err := mem.ReadUsage(f.Regions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// With ~a handful of inner nodes at 2080+ bytes each, inner usage per
	// node must be ≥ Node256 size; a Node4-based tree would use ~64 B.
	if u.ByClass[mem.ClassInner] < 2080*2 {
		t.Errorf("inner-class usage %d too small for Node-256 preallocation", u.ByClass[mem.ClassInner])
	}
}

func TestCacheReducesRoundTrips(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig())
	c := NewClient(shared, f.NewClient(), Options{Cache: NewNodeCache(8 << 20)})
	var keys [][]byte
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("users/account/%05d", i))
		keys = append(keys, k)
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// First search warms the cache along the path.
	if _, ok, _ := c.Search(keys[50]); !ok {
		t.Fatal("warm search failed")
	}
	before := c.Engine().C.Stats()
	if _, ok, _ := c.Search(keys[50]); !ok {
		t.Fatal("search failed")
	}
	d := c.Engine().C.Stats().Sub(before)
	// Jump target read + leaf read: 2 round trips with a warm cache.
	if d.RoundTrips > 3 {
		t.Errorf("cached search took %d round trips, want ≤3", d.RoundTrips)
	}
	if c.Cache().Stats().Hits == 0 {
		t.Error("cache never hit")
	}
}

func TestTinyCacheDegradesToPerLevelRoundTrips(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig())
	// A cache that fits nothing: every level costs a round trip, like the
	// naive port — the regime of the paper's small-cache comparison.
	c := NewClient(shared, f.NewClient(), Options{Cache: NewNodeCache(1)})
	var keys [][]byte
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("deep/path/%05d", i))
		keys = append(keys, k)
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Engine().C.Stats()
	if _, ok, _ := c.Search(keys[30]); !ok {
		t.Fatal("search failed")
	}
	d := c.Engine().C.Stats().Sub(before)
	if d.RoundTrips < 3 {
		t.Errorf("cacheless SMART search took %d round trips; expected per-level cost", d.RoundTrips)
	}
}

func TestStaleCacheRecovers(t *testing.T) {
	// B caches a path, A restructures it (path split changes partials);
	// B's reverse check must recover.
	f, shared := newCluster(t, 2, fabric.InstantConfig())
	a := NewClient(shared, f.NewClient(), Options{})
	b := NewClient(shared, f.NewClient(), Options{})
	k1 := []byte("commonprefix/aaa")
	k2 := []byte("commonprefix/bbb")
	if _, err := a.Insert(k1, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(k2, []byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Search(k1); !ok {
		t.Fatal("warm failed")
	}
	// Split the compressed path above B's cached node.
	k3 := []byte("commonp/short")
	if _, err := a.Insert(k3, []byte("3")); err != nil {
		t.Fatal(err)
	}
	for _, kv := range []struct{ k, v string }{
		{"commonprefix/aaa", "1"}, {"commonprefix/bbb", "2"}, {"commonp/short", "3"},
	} {
		got, ok, err := b.Search([]byte(kv.k))
		if err != nil || !ok || string(got) != kv.v {
			t.Errorf("B search %q = %q,%v,%v", kv.k, got, ok, err)
		}
	}
}

func TestRandomOpsAgainstOracle(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig())
	c := NewClient(shared, f.NewClient(), Options{Cache: NewNodeCache(1 << 20)})
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(21))
	randKey := func() []byte {
		n := 1 + rng.Intn(10)
		k := make([]byte, n)
		for i := range k {
			k[i] = byte('a' + rng.Intn(4))
		}
		return k
	}
	for step := 0; step < 3000; step++ {
		k := randKey()
		switch rng.Intn(5) {
		case 0, 1:
			v := fmt.Sprintf("v%d", step)
			existed, err := c.Insert(k, []byte(v))
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if _, want := oracle[string(k)]; existed != want {
				t.Fatalf("step %d insert existed=%v want %v", step, existed, want)
			}
			oracle[string(k)] = v
		case 2:
			ok, err := c.Delete(k)
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if _, want := oracle[string(k)]; ok != want {
				t.Fatalf("step %d delete ok=%v want %v", step, ok, want)
			}
			delete(oracle, string(k))
		case 3:
			v := fmt.Sprintf("u%d", step)
			ok, err := c.Update(k, []byte(v))
			if err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
			if _, want := oracle[string(k)]; ok != want {
				t.Fatalf("step %d update ok=%v want %v", step, ok, want)
			}
			if ok {
				oracle[string(k)] = v
			}
		default:
			got, ok, err := c.Search(k)
			if err != nil {
				t.Fatalf("step %d search: %v", step, err)
			}
			want, wantOK := oracle[string(k)]
			if ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("step %d search %q = %q,%v want %q,%v", step, k, got, ok, want, wantOK)
			}
		}
	}
	kvs, err := c.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(oracle) {
		t.Fatalf("scan %d keys, oracle %d", len(kvs), len(oracle))
	}
	var keys []string
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i := range kvs {
		if string(kvs[i].Key) != keys[i] {
			t.Fatalf("scan[%d] = %q want %q", i, kvs[i].Key, keys[i])
		}
	}
}

func TestConcurrentClientsSharedCache(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig())
	cache := NewNodeCache(8 << 20)
	const workers = 6
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(shared, f.NewClient(), Options{Cache: cache})
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				if _, err := c.Insert(k, []byte(fmt.Sprint(i))); err != nil {
					errs <- fmt.Errorf("w%d insert: %w", w, err)
					return
				}
				if v, ok, err := c.Search(k); err != nil || !ok || string(v) != fmt.Sprint(i) {
					errs <- fmt.Errorf("w%d readback %d: %v %v", w, i, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	verify := NewClient(shared, f.NewClient(), Options{})
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%02d-%04d", w, i))
			if _, ok, err := verify.Search(k); err != nil || !ok {
				t.Fatalf("%q missing: %v", k, err)
			}
		}
	}
}

func TestConcurrentChurn(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig())
	cache := NewNodeCache(4 << 20)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(shared, f.NewClient(), Options{Cache: cache})
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("churn-%d-%d", w, i%20))
				if _, err := c.Insert(k, []byte("v")); err != nil {
					errs <- fmt.Errorf("w%d insert: %w", w, err)
					return
				}
				if _, err := c.Delete(k); err != nil {
					errs <- fmt.Errorf("w%d delete: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig())
	c := NewClient(shared, f.NewClient(), Options{})
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("s%04d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := c.Scan([]byte("s0100"), []byte("s0199"), 0)
	if err != nil || len(kvs) != 100 {
		t.Fatalf("scan: %d %v", len(kvs), err)
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatal("unsorted scan")
		}
	}
}

func TestCacheEviction(t *testing.T) {
	nc := NewNodeCache(3 * cachedNodeCost)
	for i := 0; i < 10; i++ {
		n := rart.NewNode(3, []byte{byte(i)}, 1)
		n.Addr = mem.NewAddr(0, uint64(i+1)*4096)
		nc.Add(n)
	}
	st := nc.Stats()
	if st.Entries != 3 {
		t.Errorf("entries = %d, want 3", st.Entries)
	}
	if st.Evictions != 7 {
		t.Errorf("evictions = %d, want 7", st.Evictions)
	}
	if st.UsedBytes != 3*cachedNodeCost {
		t.Errorf("used = %d", st.UsedBytes)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	nc := NewNodeCache(2 * cachedNodeCost)
	n1 := rart.NewNode(3, []byte("a"), 1)
	n1.Addr = mem.NewAddr(0, 4096)
	n2 := rart.NewNode(3, []byte("b"), 1)
	n2.Addr = mem.NewAddr(0, 8192)
	n3 := rart.NewNode(3, []byte("c"), 1)
	n3.Addr = mem.NewAddr(0, 12288)
	nc.Add(n1)
	nc.Add(n2)
	nc.Get(n1.Addr) // refresh n1
	nc.Add(n3)      // must evict n2
	if nc.Get(n2.Addr) != nil {
		t.Error("LRU evicted the wrong entry")
	}
	if nc.Get(n1.Addr) == nil || nc.Get(n3.Addr) == nil {
		t.Error("expected entries missing")
	}
}

func TestLargerCacheJumpsDeeper(t *testing.T) {
	// SMART+C's advantage: with a larger cache the local walk terminates
	// deeper, shaving remote levels. Compare average jump depth across
	// budgets on the same key set.
	f, shared := newCluster(t, 2, fabric.InstantConfig())
	loader := NewClient(shared, f.NewClient(), Options{})
	var keys [][]byte
	for i := 0; i < 800; i++ {
		k := []byte(fmt.Sprintf("deep/%02d/%02d/%04d", i%4, i%16, i))
		keys = append(keys, k)
		if _, err := loader.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	meanJump := func(budget uint64) float64 {
		c := NewClient(shared, f.NewClient(), Options{Cache: NewNodeCache(budget)})
		for _, k := range keys {
			if _, ok, err := c.Search(k); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}
		st := c.ClientStats()
		return float64(st.JumpDepthSum) / float64(st.Searches)
	}
	small := meanJump(2 * cachedNodeCost) // two nodes
	big := meanJump(32 << 20)             // everything fits
	if big <= small {
		t.Errorf("bigger cache did not deepen jumps: %.2f vs %.2f", big, small)
	}
}

func TestReverseCheckCountsRejections(t *testing.T) {
	// Stale cache entries whose fresh image fails the path check must be
	// invalidated and counted.
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	a := NewClient(shared, f.NewClient(), Options{})
	b := NewClient(shared, f.NewClient(), Options{})
	k1, k2 := []byte("stale/check/one"), []byte("stale/check/two")
	if _, err := a.Insert(k1, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(k2, []byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Search(k1); !ok {
		t.Fatal("warm failed")
	}
	// Restructure above B's cached node repeatedly.
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("stale/%c%04d", 'a'+i%8, i))
		if _, err := a.Insert(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("stale/%c%04d", 'a'+i%8, i))
		if _, ok, err := b.Search(k); err != nil || !ok {
			t.Fatalf("B search %q: %v %v", k, ok, err)
		}
	}
	// Not asserting a count > 0 (depends on layout), but the cache stats
	// must be internally consistent.
	cs := b.Cache().Stats()
	if cs.UsedBytes > cs.BudgetBytes {
		t.Errorf("cache over budget: %+v", cs)
	}
}
