// Micro-benchmarks for the data structures under the index: these measure
// real CPU work (unlike the figure benchmarks, whose interesting output is
// virtual network time).
package sphinx_test

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"sphinx"

	"sphinx/internal/core"
	"sphinx/internal/cuckoo"
	"sphinx/internal/dataset"
	"sphinx/internal/wire"
	"sphinx/internal/ycsb"
)

// sinkBool keeps filter lookups from being dead-code-eliminated.
var sinkBool bool

func BenchmarkCuckooInsert(b *testing.B) {
	f := cuckoo.New(b.N+1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(wire.Mix64(uint64(i)))
	}
}

func BenchmarkCuckooContains(b *testing.B) {
	f := cuckoo.New(1<<16, 1)
	for i := 0; i < 1<<16; i++ {
		f.Insert(wire.Mix64(uint64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(wire.Mix64(uint64(i & (1<<16 - 1))))
	}
}

func BenchmarkZipfianDraw(b *testing.B) {
	z := ycsb.NewZipfian(1_000_000, ycsb.DefaultTheta)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.DrawScrambled(rng)
	}
}

func BenchmarkWireLeafEncode(b *testing.B) {
	key := []byte("james.garcia@gmail.com")
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.EncodeLeaf(wire.StatusIdle, key, val)
	}
}

func BenchmarkWireLeafDecode(b *testing.B) {
	buf := wire.EncodeLeaf(wire.StatusIdle, []byte("james.garcia@gmail.com"), make([]byte, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := wire.DecodeLeaf(buf); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkPrefixHash(b *testing.B) {
	key := []byte("james.garcia@gmail.com")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.PrefixHash42(key)
	}
}

func BenchmarkEmailGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataset.GenerateEmail(1000, int64(i))
	}
}

// The end-to-end operation benchmarks run over TimingInstant so they
// measure CN-side CPU work and allocations (the -benchmem numbers the
// hot-path scratch buffers exist for), not virtual network time.

func benchCluster(b *testing.B, keys [][]byte) (*sphinx.ComputeNode, *sphinx.Session) {
	b.Helper()
	cluster, err := sphinx.NewCluster(sphinx.Config{Timing: sphinx.TimingInstant})
	if err != nil {
		b.Fatal(err)
	}
	cn := cluster.NewComputeNode()
	s := cn.NewSession()
	val := make([]byte, 64)
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	return cn, s
}

// Allocation budgets (go test -run '^$' -bench 'BenchmarkSphinx' -benchmem
// -benchtime 2000x, 2-vCPU x86-64, go1.24): GetWarm 1 alloc/op (64 B) — the
// array the returned value lives in: the leaf-address cache holds every key
// — whether at 2000x or 20000x; Put and Update 0 allocs/op (0 B), where they
// were 4 (362 B) with the engine's buffer free list and 32 (1670 B) before
// it: every image a tree operation reads, decodes or builds lives in the
// engine's arena until its next operation (DESIGN.md §5.7).
// TestWarmPathAllocations pins them, the cold Get's one allocation with them.
func BenchmarkSphinxGetWarm(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	_, s := benchCluster(b, keys)
	for _, k := range keys { // warm the filter and directory caches
		if _, ok, err := s.Get(k); err != nil || !ok {
			b.Fatal("warmup miss")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkWarmUpdate is the write-side twin of BenchmarkSphinxGetWarm: a
// same-size Update of a key whose leaf the CN's leaf-address cache knows —
// the speculative in-place write (lock + verify in one batch, one releasing
// WRITE). -benchtime 20000x -benchmem: 10 allocs/op (919 B) when every Update
// walked the tree and built its image with EncodeLeaf + pad + re-encode;
// 0 allocs/op now: the default cache of 65 536 entries in 8-way buckets holds
// all 20 000 keys, and a hit allocates nothing (the tree path's cost is
// BenchmarkSphinxUpdate's, 0 allocs/op too). TestWarmPathAllocations pins it.
func BenchmarkWarmUpdate(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	_, s := benchCluster(b, keys)
	val := make([]byte, 64)
	for _, k := range keys { // the tree-path update teaches the leaf-address cache
		if ok, err := s.Update(k, val); err != nil || !ok {
			b.Fatal("warmup miss")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := s.Update(keys[i%len(keys)], val); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

// BenchmarkSphinxGetWarmParallel scales the warm read path across
// goroutines, one session each (sessions are single-threaded by contract;
// the shared state under contention is the CN's filter cache and the
// fabric's virtual clock). Run with -cpu 1,4,8 to see the scaling curve.
func BenchmarkSphinxGetWarmParallel(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	cn, s := benchCluster(b, keys)
	for _, k := range keys { // warm the shared filter and directory caches
		if _, ok, err := s.Get(k); err != nil || !ok {
			b.Fatal("warmup miss")
		}
	}
	// RunParallel uses GOMAXPROCS goroutines (parallelism 1); hand each a
	// pre-warmed private session via an atomic ticket.
	sessions := make([]*sphinx.Session, runtime.GOMAXPROCS(0))
	for i := range sessions {
		sessions[i] = cn.NewSession()
		for j := 0; j < len(keys); j += 16 {
			if _, ok, err := sessions[i].Get(keys[j]); err != nil || !ok {
				b.Fatal("warmup miss")
			}
		}
	}
	var ticket atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := sessions[ticket.Add(1)-1]
		i := 0
		for pb.Next() {
			if _, ok, err := s.Get(keys[i%len(keys)]); err != nil || !ok {
				b.Error("missing key")
				return
			}
			i++
		}
	})
}

func BenchmarkSphinxPut(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	_, s := benchCluster(b, keys)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSphinxUpdate(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	_, s := benchCluster(b, keys)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := s.Update(keys[i%len(keys)], val); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

// The FilterCache benchmarks drive the lock-free SFC under goroutine
// contention. On a multicore box the Contains curve should scale
// near-linearly with -cpu. (The mutex-guarded baseline they used to run
// beside was measured at PR 5 — EXPERIMENTS.md — and removed in PR 13.)

func BenchmarkFilterCacheContainsParallel(b *testing.B) {
	fc := core.NewFilterCache(1<<16, 1)
	for i := 0; i < 1<<16; i++ {
		fc.Insert(wire.Mix64(uint64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			sinkBool = fc.Contains(wire.Mix64(i & (1<<16 - 1)))
			i++
		}
	})
}

func BenchmarkFilterCacheInsertParallel(b *testing.B) {
	fc := core.NewFilterCache(1<<16, 1)
	var lane atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct per-goroutine hash streams: sustained insert churn
		// (with evictions once warm — cache semantics) rather than the
		// all-duplicates fast path.
		base := lane.Add(1) << 40
		i := uint64(0)
		for pb.Next() {
			fc.Insert(wire.Mix64(base | i))
			i++
		}
	})
}

// BenchmarkSphinxScan50 is a limit-50 range scan from a key in the tree:
// 100 k email keys, 64-byte values, start keys walked through the key set.
// Beside -benchmem's CN-side cost it reports the network cost of one scan
// from Session.Stats: round trips, verbs and bytes read.
// -benchtime 2000x -benchmem: 24.0 rt, 123 verbs, 33.8 KB, 953 allocs and
// 131 KB allocated per scan with the depth-first walk (one batch per visited
// node, every buffer, prefix and decoded node allocated); 8.9 rt, 101 verbs,
// 17.2 KB, 55 allocs and 12 KB with the ordered frontier (DESIGN.md §5.15) —
// the result slice, one copy per returned key, the root's decoded image and
// the trace note; 2 allocs and 7.0 KB with the engine's image arena (§5.7) —
// the result slice and the one block the keys and values share; 5.9 rt, 76
// verbs, 10.5 KB with the frontier seeded from lo's path instead of the root
// (§5.15).
// Budget: ≤ 7 rt, ≤ 101 verbs, < 14 KB, ≤ 300 allocs, ≤ 40 KB allocated.
func BenchmarkSphinxScan50(b *testing.B) {
	keys := dataset.GenerateEmail(100_000, 1)
	_, s := benchCluster(b, keys)
	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs, err := s.Scan(keys[(i*7919)%len(keys)], nil, 50)
		if err != nil || len(kvs) == 0 {
			b.Fatal(len(kvs), err)
		}
	}
	b.StopTimer()
	st, n := s.Stats(), float64(b.N)
	b.ReportMetric(float64(st.RoundTrips-before.RoundTrips)/n, "rt/scan")
	b.ReportMetric(float64(st.Verbs-before.Verbs)/n, "verbs/scan")
	b.ReportMetric(float64(st.BytesRead-before.BytesRead)/n, "B/scan")
}
