package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
)

func newCluster(t *testing.T, mns int, cfg fabric.Config, expected int) (*fabric.Fabric, Shared) {
	t.Helper()
	return bootCluster(t, mns, cfg, func(f *fabric.Fabric, ring *consistenthash.Ring) (Shared, error) {
		return Bootstrap(f, ring, expected)
	})
}

// bootCluster makes a fabric of mns MNs of 64 MiB, bootstraps an index on it
// and registers the index check (Fsck) to run when t ends.
func bootCluster(t *testing.T, mns int, cfg fabric.Config, boot func(*fabric.Fabric, *consistenthash.Ring) (Shared, error)) (*fabric.Fabric, Shared) {
	t.Helper()
	f := fabric.New(cfg)
	nodes := make([]mem.NodeID, mns)
	for i := range nodes {
		nodes[i] = f.AddNode(64 << 20)
	}
	shared, err := boot(f, consistenthash.New(nodes, 0))
	if err != nil {
		t.Fatal(err)
	}
	fscktest.AtEnd(t, f, func(fc *fabric.Client) *rart.Check { return Fsck(fc, shared) })
	return f, shared
}

// testCacheEntries sizes the caches a test client is given where its test
// names none.
const testCacheEntries = 1 << 16

// testFilter and testLAC build the default-sized caches of a test client.
func testFilter(seed uint64) *FilterCache { return NewFilterCache(testCacheEntries, seed|1) }
func testLAC(seed uint64) *LeafCache      { return NewLeafCache(testCacheEntries, seed) }

// withCaches fills in what a compute node of its own would give the client
// where opts names nothing: a filter cache, a leaf-address cache and, on a
// hot cluster, a hot-key tracker, all seeded by seed.
func withCaches(shared Shared, opts Options, seed uint64) Options {
	if opts.Filter == nil {
		opts.Filter = testFilter(seed)
	}
	if opts.LeafCache == nil {
		opts.LeafCache = testLAC(seed)
	}
	if opts.Hot == nil && shared.Hot != nil {
		opts.Hot = NewHotSet(0, seed, shared.Hot.R)
	}
	return opts
}

// newTestClient mounts a client with every cache opts does not name filled
// in by withCaches; a test that runs a tier off calls NewClient itself.
func newTestClient(f *fabric.Fabric, shared Shared, opts Options) *Client {
	return NewClient(shared, f.NewClient(), withCaches(shared, opts, 0))
}

// newSeededClient is newTestClient with caches seeded by seed.
func newSeededClient(f *fabric.Fabric, shared Shared, seed uint64) *Client {
	return NewClient(shared, f.NewClient(), withCaches(shared, Options{}, seed))
}

func TestEmptyIndex(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	if _, ok, err := c.Search([]byte("missing")); err != nil || ok {
		t.Errorf("Search on empty = %v,%v", ok, err)
	}
	if ok, err := c.Delete([]byte("missing")); err != nil || ok {
		t.Errorf("Delete on empty = %v,%v", ok, err)
	}
	if ok, err := c.Update([]byte("missing"), []byte("v")); err != nil || ok {
		t.Errorf("Update on empty = %v,%v", ok, err)
	}
}

func TestInsertSearchBasic(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	pairs := map[string]string{
		"LYRICS": "v1", "LYRIC": "v2", "LYR": "v3", "L": "v4",
		"MOON": "v5", "LYRA": "v6", "LYRE": "v7",
	}
	for k, v := range pairs {
		if existed, err := c.Insert([]byte(k), []byte(v)); err != nil || existed {
			t.Fatalf("insert %q: existed=%v err=%v", k, existed, err)
		}
	}
	for k, v := range pairs {
		got, ok, err := c.Search([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Errorf("Search(%q) = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
	if _, ok, _ := c.Search([]byte("LY")); ok {
		t.Error("found absent intermediate prefix")
	}
	if _, ok, _ := c.Search([]byte("LYRICSX")); ok {
		t.Error("found absent extension")
	}
}

func TestWarmSearchIsThreeRoundTrips(t *testing.T) {
	// The paper's headline property (§III-B): with a warm filter cache
	// and directory cache — but without the speculative leaf-address
	// cache — a search costs three round trips: hash entry, inner node,
	// leaf.
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 1000)
	c := NewClient(shared, f.NewClient(), Options{Filter: testFilter(0)})
	// Build enough structure for a real inner node below the root.
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("user%04d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("user0017")
	// Warm everything: one search learns the path and the directories.
	if _, ok, err := c.Search(key); err != nil || !ok {
		t.Fatalf("warming search failed: %v %v", ok, err)
	}
	before := c.Engine().C.Stats()
	v, ok, err := c.Search(key)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("warm search failed: %v %v", ok, err)
	}
	d := c.Engine().C.Stats().Sub(before)
	if d.RoundTrips != 3 {
		t.Errorf("warm search took %d round trips, want 3 (hash entry, inner node, leaf)", d.RoundTrips)
	}
}

func TestWarmSearchIsOneRoundTripWithLAC(t *testing.T) {
	// The speculative fast path: with the leaf-address cache (the
	// default), a warm search is ONE round trip — a verified read
	// straight at the leaf the previous traversal found.
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("user%04d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("user0017")
	if _, ok, err := c.Search(key); err != nil || !ok {
		t.Fatalf("warming search failed: %v %v", ok, err)
	}
	before := c.Engine().C.Stats()
	v, ok, err := c.Search(key)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("warm search failed: %v %v", ok, err)
	}
	d := c.Engine().C.Stats().Sub(before)
	if d.RoundTrips != 1 {
		t.Errorf("warm speculative search took %d round trips, want 1 (verified leaf read)", d.RoundTrips)
	}
	st := c.Stats()
	if st.SpecHits != 1 || st.SpecRefutes != 0 || st.SpecAborts != 0 {
		t.Errorf("speculative counters = hits %d refutes %d aborts %d, want 1/0/0",
			st.SpecHits, st.SpecRefutes, st.SpecAborts)
	}
}

func TestSearchIndependentOfKeyLength(t *testing.T) {
	// The whole point of the hybrid design: deep trees (long keys with
	// shared prefixes) cost the same three warm round trips.
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	long := bytes.Repeat([]byte("prefix/"), 20) // 140 bytes shared
	var keys [][]byte
	for i := 0; i < 20; i++ {
		k := append(append([]byte{}, long...), []byte(fmt.Sprintf("leaf%04d", i))...)
		keys = append(keys, k)
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := c.Search(keys[7]); err != nil || !ok {
		t.Fatalf("warming search: %v %v", ok, err)
	}
	before := c.Engine().C.Stats()
	if _, ok, err := c.Search(keys[7]); err != nil || !ok {
		t.Fatalf("warm search: %v %v", ok, err)
	}
	d := c.Engine().C.Stats().Sub(before)
	if d.RoundTrips > 4 {
		t.Errorf("deep-tree warm search took %d round trips; tree depth must not matter", d.RoundTrips)
	}
}

func TestFilterDisabledParallelFallback(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 1000)
	// The leaf-address cache is disabled so the warm search below actually
	// exercises the parallel multi-prefix fallback instead of spec-hitting
	// the leaf in one round trip.
	c := NewClient(shared, f.NewClient(), Options{})
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("user%04d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("user%04d", i))
		v, ok, err := c.Search(k)
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("filterless search %d: %v %v", i, ok, err)
		}
	}
	if c.Stats().FilterFallbacks == 0 {
		t.Error("the filter-less client never used the parallel fallback")
	}
	// The fallback still avoids sequential descent: a warm search reads
	// all prefix buckets in one round trip + node + leaf.
	key := []byte("user0031")
	before := c.Engine().C.Stats()
	if _, ok, _ := c.Search(key); !ok {
		t.Fatal("search failed")
	}
	d := c.Engine().C.Stats().Sub(before)
	if d.RoundTrips > 4 {
		t.Errorf("parallel fallback took %d round trips, want ≤4", d.RoundTrips)
	}
	// But it reads Θ(L) hash entries: bandwidth is the filter's win.
	if d.Verbs < 8 {
		t.Errorf("parallel fallback issued only %d verbs; expected Θ(key length) bucket reads", d.Verbs)
	}
}

// TestNilCacheIsATierRunWithout: a client given no leaf-address cache or no
// filter cache runs without that tier; it builds no private one.
func TestNilCacheIsATierRunWithout(t *testing.T) {
	build := func(t *testing.T, opts Options) *Client {
		f, shared := newCluster(t, 3, fabric.DefaultConfig(), 1000)
		c := NewClient(shared, f.NewClient(), opts)
		for i := 0; i < 50; i++ {
			if _, err := c.Insert([]byte(fmt.Sprintf("user%04d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	key := []byte("user0017")
	t.Run("no LAC", func(t *testing.T) {
		c := build(t, Options{Filter: testFilter(0)})
		warmSearch(t, c, key, []byte("v"))
		rt0 := c.eng.C.Stats().RoundTrips
		warmSearch(t, c, key, []byte("v"))
		if rt := c.eng.C.Stats().RoundTrips - rt0; rt != 3 {
			t.Errorf("second Get took %d round trips; want 3: hash entry, node, leaf", rt)
		}
		if st := c.Stats(); st.SpecHits != 0 || st.NodeHits != 0 {
			t.Errorf("SpecHits %d, NodeHits %d; want 0: the client has no leaf-address cache", st.SpecHits, st.NodeHits)
		}
	})
	t.Run("no filter", func(t *testing.T) {
		c := build(t, Options{})
		warmSearch(t, c, key, []byte("v"))
		before := c.Stats()
		warmSearch(t, c, key, []byte("v"))
		after := c.Stats()
		if after.FilterHits != 0 {
			t.Errorf("FilterHits = %d; want 0: the client has no filter cache", after.FilterHits)
		}
		if n := after.FilterFallbacks + after.RootStarts - before.FilterFallbacks - before.RootStarts; n != 1 {
			t.Errorf("the warm Search counted %d filter-less locates; want 1", n)
		}
	})
}

func TestFilterLearnsFromOtherClientsInserts(t *testing.T) {
	// Coherence story (§III-B): client B's filter never sees client A's
	// inserts directly, yet B's searches succeed and B learns prefixes
	// lazily during traversals.
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 1000)
	a := newTestClient(f, shared, Options{})
	b := newTestClient(f, shared, Options{})
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("shared%04d", i))
		if _, err := a.Insert(k, []byte("va")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("shared%04d", i))
		v, ok, err := b.Search(k)
		if err != nil || !ok || string(v) != "va" {
			t.Fatalf("client B search %d: %v %v", i, ok, err)
		}
	}
	if b.Stats().FilterHits == 0 {
		t.Error("client B never converted learned prefixes into filter hits")
	}
}

func TestCoherenceUnderTypeSwitch(t *testing.T) {
	// A type switch moves a node; other clients' filters stay valid
	// (prefixes unchanged) and their hash lookups find the new address.
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 1000)
	a := newTestClient(f, shared, Options{})
	b := newTestClient(f, shared, Options{})
	// Warm B on a small node.
	for i := 0; i < 3; i++ {
		k := []byte{'t', 's', byte(i), 'x'}
		if _, err := a.Insert(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := b.Search([]byte{'t', 's', 0, 'x'}); !ok {
		t.Fatal("warmup search failed")
	}
	// Force the node at prefix "ts" through N4→N16→N48→N256.
	for i := 3; i < 200; i++ {
		k := []byte{'t', 's', byte(i), 'x'}
		if _, err := a.Insert(k, []byte{byte(i)}); err != nil {
			t.Fatalf("growth insert %d: %v", i, err)
		}
	}
	// B (stale filter, stale everything) must still read correctly.
	for i := 0; i < 200; i++ {
		k := []byte{'t', 's', byte(i), 'x'}
		v, ok, err := b.Search(k)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("B search after type switch, key %d: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestKeysThatArePrefixes(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	keys := []string{"a", "ab", "abc", "abcd", "abcde"}
	for i, k := range keys {
		if _, err := c.Insert([]byte(k), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok, err := c.Search([]byte(k))
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("prefix key %q: ok=%v err=%v", k, ok, err)
		}
	}
	if ok, _ := c.Delete([]byte("abc")); !ok {
		t.Fatal("delete failed")
	}
	if _, ok, _ := c.Search([]byte("abcd")); !ok {
		t.Error("extension lost after prefix delete")
	}
}

func TestU64BigEndianKeys(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64()
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], keys[i])
		if _, err := c.Insert(k[:], []byte(fmt.Sprint(keys[i]))); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range keys {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], u)
		v, ok, err := c.Search(k[:])
		if err != nil || !ok || string(v) != fmt.Sprint(u) {
			t.Fatalf("u64 %d: ok=%v err=%v", u, ok, err)
		}
	}
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	if _, err := c.Insert([]byte("key"), []byte("short")); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Update([]byte("key"), []byte("other")); err != nil || !ok {
		t.Fatal(err)
	}
	v, _, _ := c.Search([]byte("key"))
	if string(v) != "other" {
		t.Errorf("after in-place update: %q", v)
	}
	big := bytes.Repeat([]byte("B"), 500)
	if ok, err := c.Update([]byte("key"), big); err != nil || !ok {
		t.Fatal(err)
	}
	v, _, _ = c.Search([]byte("key"))
	if !bytes.Equal(v, big) {
		t.Errorf("after out-of-place update: %d bytes", len(v))
	}
}

func TestScan(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("scan%04d", i*2))
		if _, err := c.Insert(k, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := c.Scan([]byte("scan0100"), []byte("scan0300"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 500; i++ {
		s := fmt.Sprintf("scan%04d", i*2)
		if s >= "scan0100" && s <= "scan0300" {
			want++
		}
	}
	if len(kvs) != want {
		t.Errorf("scan returned %d, want %d", len(kvs), want)
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatal("scan output not strictly ascending")
		}
	}
	// Limit.
	kvs, err = c.Scan([]byte("scan0100"), nil, 9)
	if err != nil || len(kvs) != 9 {
		t.Errorf("limited scan: %d,%v", len(kvs), err)
	}
}

func TestScanUsesFewerRoundTripsThanNaive(t *testing.T) {
	// Fig. 4 YCSB-E mechanism: batched scans beat per-node round trips.
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("e%05d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Engine().C.Stats()
	kvs, err := c.Scan([]byte("e00050"), []byte("e00149"), 0)
	if err != nil || len(kvs) != 100 {
		t.Fatalf("scan: %d,%v", len(kvs), err)
	}
	d := c.Engine().C.Stats().Sub(before)
	// 100 leaves + path nodes without batching would be >100 round trips.
	if d.RoundTrips > 20 {
		t.Errorf("batched scan took %d round trips for 100 results", d.RoundTrips)
	}
}

func TestRandomOpsAgainstOracle(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 2000)
	c := newTestClient(f, shared, Options{})
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	randKey := func() []byte {
		n := 1 + rng.Intn(10)
		k := make([]byte, n)
		for i := range k {
			k[i] = byte('a' + rng.Intn(4))
		}
		return k
	}
	for step := 0; step < 4000; step++ {
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
	for i, kv := range kvs {
		if string(kv.Key) != keys[i] || string(kv.Value) != oracle[keys[i]] {
			t.Fatalf("scan[%d] mismatch", i)
		}
	}
}

func TestOracleWithTinyFilterEviction(t *testing.T) {
	// A capacity-starved filter evicts constantly; correctness must hold
	// (evictions only cost round trips).
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 2000)
	c := newTestClient(f, shared, Options{Filter: NewFilterCache(32, 1)})
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(13))
	for step := 0; step < 2500; step++ {
		k := []byte(fmt.Sprintf("key-%d", rng.Intn(400)))
		if rng.Intn(2) == 0 {
			v := fmt.Sprintf("v%d", step)
			if _, err := c.Insert(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			oracle[string(k)] = v
		} else {
			got, ok, err := c.Search(k)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := oracle[string(k)]
			if ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("step %d: search %q = %q,%v want %q,%v", step, k, got, ok, want, wantOK)
			}
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 5000)
	sharedFilter := NewFilterCache(1<<14, 7)
	const workers = 8
	const perWorker = 250
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newTestClient(f, shared, Options{Filter: sharedFilter})
			rng := rand.New(rand.NewSource(int64(w)))
			// No lease outlives its operation: the engine's hand is empty once
			// the put returns, and once the get does.
			handEmpty := func(op string, i int) bool {
				if n := c.eng.Holding(); n != 0 {
					errs <- fmt.Errorf("w%d %s %d: the engine's hand holds %d entries after it", w, op, i, n)
					return false
				}
				return true
			}
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%02d-key-%04d", w, i))
				if _, err := c.Insert(k, []byte(fmt.Sprint(i))); err != nil {
					errs <- fmt.Errorf("w%d insert %d: %w", w, i, err)
					return
				}
				if !handEmpty("insert", i) {
					return
				}
				j := rng.Intn(i + 1)
				kk := []byte(fmt.Sprintf("w%02d-key-%04d", w, j))
				v, ok, err := c.Search(kk)
				if err != nil || !ok || string(v) != fmt.Sprint(j) {
					errs <- fmt.Errorf("w%d lost key %d: ok=%v err=%v", w, j, ok, err)
					return
				}
				if !handEmpty("search", i) {
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
	verify := newTestClient(f, shared, Options{})
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%02d-key-%04d", w, i))
			if _, ok, err := verify.Search(k); err != nil || !ok {
				t.Fatalf("%q missing after concurrent load: %v", k, err)
			}
		}
	}
}

func TestConcurrentChurnSharedKeys(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newSeededClient(f, shared, uint64(w))
			for i := 0; i < 250; i++ {
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

func TestCacheBytesReported(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{Filter: NewFilterCache(10000, 1)})
	if _, err := c.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Search([]byte("k")); err != nil {
		t.Fatal(err)
	}
	// The directory caches must be small relative to the filter (paper
	// §IV: "typically 2-5% of the succinct filter cache size").
	var dirBytes uint64
	for _, v := range c.views.Load().m {
		dirBytes += v.DirCacheBytes()
	}
	if dirBytes*2 > c.filter.SizeBytes() {
		t.Errorf("directory caches (%d B) not small vs filter (%d B)", dirBytes, c.filter.SizeBytes())
	}
}

func TestFilterCacheBudget(t *testing.T) {
	fc := NewFilterCacheBytes(1<<20, 1) // 1 MB budget
	if fc.SizeBytes() > 1<<20 || fc.SizeBytes() < 1<<19 {
		t.Errorf("filter sized %d bytes for a 1 MB budget", fc.SizeBytes())
	}
}

func TestStatsAccumulate(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("s%03d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("s%03d", i))
		if _, _, err := c.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Searches != 20 || st.Inserts != 20 {
		t.Errorf("stats = %+v", st)
	}
	if st.FilterHits == 0 {
		t.Error("no filter hits recorded")
	}
}

func TestRejectsBadKeys(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	if _, err := c.Insert(nil, []byte("v")); err == nil {
		t.Error("nil key accepted")
	}
	if _, _, err := c.Search(bytes.Repeat([]byte("x"), 1<<13)); err == nil {
		t.Error("oversize key accepted")
	}
}

func TestInsertSearchProperty(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 2000)
	c := newTestClient(f, shared, Options{})
	seen := map[string][]byte{}
	prop := func(key, value []byte) bool {
		if len(key) == 0 || len(key) > 64 {
			return true
		}
		if len(value) > 256 {
			value = value[:256]
		}
		if _, err := c.Insert(key, value); err != nil {
			t.Logf("insert error: %v", err)
			return false
		}
		seen[string(key)] = append([]byte(nil), value...)
		// Every key ever inserted stays readable with its latest value.
		for k, v := range seen {
			got, ok, err := c.Search([]byte(k))
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Logf("readback %q: ok=%v err=%v", k, ok, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDeleteInsertAlternationProperty(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig(), 2000)
	c := newTestClient(f, shared, Options{})
	present := map[string]bool{}
	prop := func(key []byte, del bool) bool {
		if len(key) == 0 || len(key) > 32 {
			return true
		}
		if del {
			ok, err := c.Delete(key)
			if err != nil {
				return false
			}
			if ok != present[string(key)] {
				return false
			}
			delete(present, string(key))
		} else {
			existed, err := c.Insert(key, []byte("v"))
			if err != nil || existed != present[string(key)] {
				return false
			}
			present[string(key)] = true
		}
		_, ok, err := c.Search(key)
		return err == nil && ok == present[string(key)]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStatsFieldListsComplete guards the two hand-written field lists over
// Stats — Stats.Add and Client.Stats — against a forgotten field, which
// would be a silently missing metric: every field is set to a distinct
// value and must come out of both.
func TestStatsFieldListsComplete(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
	sum := reflect.ValueOf(a.Add(b))
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("Stats.Add drops %s: got %d, want %d", sum.Type().Field(i).Name, got, want)
		}
	}

	f, shared := newCluster(t, 1, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	c.stats = a
	snap := reflect.ValueOf(c.Stats())
	for i := 0; i < snap.NumField(); i++ {
		if got, want := snap.Field(i).Uint(), uint64(i+1); got != want {
			t.Errorf("Client.Stats drops %s: got %d, want %d", snap.Type().Field(i).Name, got, want)
		}
	}
}
