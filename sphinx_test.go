package sphinx

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/wire"
)

// testRegion is the memory-node region of the tests' clusters: room for what
// they write. Zeroing the 256 MiB default of every node of every cluster was
// most of the suite's time.
const testRegion = 64 << 20

// newTestCluster is NewCluster with testRegion where cfg names no region.
func newTestCluster(cfg Config) (*Cluster, error) {
	if cfg.MemoryPerNode == 0 {
		cfg.MemoryPerNode = testRegion
	}
	return NewCluster(cfg)
}

func TestFacadeAllSystems(t *testing.T) {
	for _, sys := range []System{SystemSphinx, SystemSMART, SystemART} {
		t.Run(sys.String(), func(t *testing.T) {
			cluster, err := newTestCluster(Config{System: sys, Timing: TimingInstant})
			if err != nil {
				t.Fatal(err)
			}
			s := cluster.NewComputeNode().NewSession()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("key-%04d", i))
				if err := s.Put(k, []byte(fmt.Sprint(i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("key-%04d", i))
				v, ok, err := s.Get(k)
				if err != nil || !ok || string(v) != fmt.Sprint(i) {
					t.Fatalf("Get(%q) = %q,%v,%v", k, v, ok, err)
				}
			}
			kvs, err := s.Scan([]byte("key-0050"), []byte("key-0059"), 0)
			if err != nil || len(kvs) != 10 {
				t.Fatalf("scan: %d,%v", len(kvs), err)
			}
			for i := 1; i < len(kvs); i++ {
				if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
					t.Fatal("scan unsorted")
				}
			}
			if ok, err := s.Update([]byte("key-0001"), []byte("updated")); err != nil || !ok {
				t.Fatalf("update: %v %v", ok, err)
			}
			if v, _, _ := s.Get([]byte("key-0001")); string(v) != "updated" {
				t.Fatalf("after update: %q", v)
			}
			if ok, err := s.Delete([]byte("key-0001")); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
			if _, ok, _ := s.Get([]byte("key-0001")); ok {
				t.Fatal("deleted key still present")
			}
		})
	}
}

func TestFacadeStats(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingRDMA})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RoundTrips == 0 || st.ClockPs == 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
	sc, ok := s.SphinxStats()
	if !ok || sc.Searches != 1 || sc.Inserts != 1 {
		t.Errorf("sphinx counters: %+v ok=%v", sc, ok)
	}
	mu, err := cluster.MemoryUsage()
	if err != nil || mu.TotalBytes == 0 {
		t.Errorf("memory usage: %+v err=%v", mu, err)
	}
	if mu.HashTableBytes == 0 {
		t.Error("Sphinx cluster reports no hash-table memory")
	}
}

func TestFacadeSharedFilterAcrossSessions(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingInstant})
	if err != nil {
		t.Fatal(err)
	}
	cn := cluster.NewComputeNode()
	writer := cn.NewSession()
	for i := 0; i < 100; i++ {
		if err := writer.Put([]byte(fmt.Sprintf("shared/%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A sibling session on the same CN benefits from the shared filter.
	reader := cn.NewSession()
	for i := 0; i < 100; i++ {
		if _, ok, err := reader.Get([]byte(fmt.Sprintf("shared/%03d", i))); err != nil || !ok {
			t.Fatalf("reader miss %d: %v", i, err)
		}
	}
	sc, _ := reader.SphinxStats()
	if sc.FilterHits == 0 {
		t.Error("sibling session never hit the shared filter cache")
	}
	if cn.CacheBytes() == 0 {
		t.Error("CN cache reports zero bytes")
	}
}

func TestFacadeConcurrentSessions(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingRDMA})
	if err != nil {
		t.Fatal(err)
	}
	const cns = 3
	const perCN = 4
	nodes := make([]*ComputeNode, cns)
	for i := range nodes {
		nodes[i] = cluster.NewComputeNode()
	}
	var wg sync.WaitGroup
	errs := make(chan error, cns*perCN)
	for c := 0; c < cns; c++ {
		for w := 0; w < perCN; w++ {
			wg.Add(1)
			go func(c, w int) {
				defer wg.Done()
				s := nodes[c].NewSession()
				for i := 0; i < 150; i++ {
					k := []byte(fmt.Sprintf("c%d-w%d-%04d", c, w, i))
					if err := s.Put(k, []byte("v")); err != nil {
						errs <- err
						return
					}
					if _, ok, err := s.Get(k); err != nil || !ok {
						errs <- fmt.Errorf("readback %s: ok=%v err=%v", k, ok, err)
						return
					}
				}
			}(c, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cluster, err := newTestCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.System() != SystemSphinx {
		t.Error("default system is not Sphinx")
	}
}

func TestSystemString(t *testing.T) {
	if SystemSphinx.String() != "Sphinx" || SystemSMART.String() != "SMART" || SystemART.String() != "ART" {
		t.Error("system names wrong")
	}
}

// TestPipelineLanesShareSessionOptions: pipeline lanes are core clients of
// the session like its own, built from the same options. Built from a second,
// shorter literal they missed the hot layer's: each lane grew a private
// tracker, so the compute node's never saw the lanes' reads. The replica
// records the lanes promote stay fresh: the session's acked Put refreshes
// them, and every lane reads the new value back.
func TestPipelineLanesShareSessionOptions(t *testing.T) {
	key := []byte("lane-hot-key")
	heat := make([][]byte, 400) // 100 per lane at depth 4: past the promote threshold on every one
	for i := range heat {
		heat[i] = key
	}
	t.Run("hot layer enabled", func(t *testing.T) {
		cluster, err := newTestCluster(Config{MemoryNodes: 3, HotReplicaFactor: 3})
		if err != nil {
			t.Fatal(err)
		}
		fabrictest.Queue(t, cluster.cl.F, cluster.cl.Sphinx.Hot.Load, 0)
		cn := cluster.NewComputeNode()
		s := cn.NewSession()
		if err := s.Put(key, []byte("old")); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.MultiGet(heat, 4) {
			if r.Err != nil || string(r.Value) != "old" {
				t.Fatalf("heating MultiGet = %q, %v", r.Value, r.Err)
			}
		}
		if !cn.node.Hot.Claimed(key) {
			t.Fatal("the compute node's tracker never saw the lanes' reads: lanes track hotness privately")
		}
		// The routes the lanes' promotion learned serve the session's own client.
		before, _ := s.SphinxStats()
		if v, ok, err := s.Get(key); err != nil || !ok || string(v) != "old" {
			t.Fatalf("Get = %q, %v, %v", v, ok, err)
		}
		if after, _ := s.SphinxStats(); after.HotHits != before.HotHits+1 {
			t.Errorf("sequential Get after the lanes promoted the key: %d hot hits, want 1", after.HotHits-before.HotHits)
		}
		if err := s.Put(key, []byte("new")); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.MultiGet(heat[:8], 4) {
			if r.Err != nil || string(r.Value) != "new" {
				t.Fatalf("MultiGet after an acked Put = %q, %v; want the new value", r.Value, r.Err)
			}
		}
		if after, _ := s.SphinxStats(); after.HotRefreshes == before.HotRefreshes {
			t.Error("the acked Put refreshed no replica record")
		}
	})
}

// TestWarmPathAllocations pins what the Go code of a compute node allocates
// per operation on the two warm paths through the leaf-address cache — near
// one round trip per op the CN's own work decides throughput. A warm Get is
// the one array its returned value lives in, and no byte more: status and key
// are verified in the read buffer, never copied out; a warm same-size Update
// allocates nothing (single verbs post from the fabric client's own one-op
// array; the speculative read returns its leaf by value). The subtest holds
// the paths through the tree to what they hand back (treePathAllocations).
func TestWarmPathAllocations(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingInstant})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	keys := make([][]byte, 256)
	val := make([]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%04d", i))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys { // teach the cache
		if _, ok, err := s.Get(k); err != nil || !ok {
			t.Fatalf("warming Get(%q) = %v, %v", k, ok, err)
		}
	}
	i := 0
	gets := testing.AllocsPerRun(1000, func() {
		if _, ok, err := s.Get(keys[i%len(keys)]); err != nil || !ok {
			t.Fatalf("Get = %v, %v", ok, err)
		}
		i++
	})
	updates := testing.AllocsPerRun(1000, func() {
		if ok, err := s.Update(keys[i%len(keys)], val); err != nil || !ok {
			t.Fatalf("Update = %v, %v", ok, err)
		}
		i++
	})
	if gets > 1 {
		t.Errorf("warm Get: %.2f allocs/op, want <= 1", gets)
	}
	// Bytes, unlike allocations, are not whole, and TotalAlloc counts what
	// any goroutine of the process allocated meanwhile: the least of five
	// rounds must stay under key and value together.
	least := ^uint64(0)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < 400; n++ {
			if _, ok, err := s.Get(keys[n%len(keys)]); err != nil || !ok {
				t.Fatalf("Get = %v, %v", ok, err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/400)
	}
	if bound := uint64(len(keys[0]) + len(val)); least >= bound {
		t.Errorf("warm Get: %d B/op allocated, want under %d: the %d-byte value alone, no copy of the key", least, bound, len(val))
	}
	if updates > 0 {
		t.Errorf("warm Update: %.2f allocs/op, want 0", updates)
	}
	t.Run("tree paths", treePathAllocations)
}

// treePathAllocations pins the operations that take the tree: every image an
// operation reads, decodes or builds lives in its engine's arena until the
// next operation begins (DESIGN.md §5.7), so what it allocates is what it
// hands back. A cold Get — a compute node whose leaf-address cache holds few
// of the keys, so the Get goes SFC, INHT, node, leaf — allocates its value; a
// fresh-key Put nothing but what an allocator slab or a table split brings now
// and then; a limit-50 Scan its result slice and the one block its keys and
// values share.
func treePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cluster, err := newTestCluster(Config{Timing: TimingInstant, LeafCacheBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	keys, vals := make([][]byte, 4096), make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold-key-%05d", i))
		vals[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 64)
	}
	for i, k := range keys[:2048] {
		if err := s.Put(k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:2048] { // the filter and the directory caches
		if _, ok, err := s.Get(k); err != nil || !ok {
			t.Fatalf("warming Get(%q) = %v, %v", k, ok, err)
		}
	}
	first, _, err := s.Get(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	before, _ := s.SphinxStats()
	i := 1
	gets := testing.AllocsPerRun(1000, func() {
		if _, ok, err := s.Get(keys[i%2048]); err != nil || !ok {
			t.Fatalf("Get = %v, %v", ok, err)
		}
		i += 7
	})
	after, _ := s.SphinxStats()
	if served := after.SpecHits - before.SpecHits; served > 100 {
		t.Fatalf("the leaf-address cache served %d of 1001 Gets: they were not cold", served)
	}
	if !bytes.Equal(first, vals[0]) {
		t.Errorf("a value a Get handed back changed under later operations: %q", first)
	}
	i = 2048
	puts := testing.AllocsPerRun(1000, func() {
		if err := s.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	i = 0
	scans := testing.AllocsPerRun(200, func() {
		if kvs, err := s.Scan(keys[i], nil, 50); err != nil || len(kvs) != 50 {
			t.Fatalf("Scan = %d, %v", len(kvs), err)
		}
		i += 13
	})
	if gets > 1 {
		t.Errorf("cold Get: %.2f allocs/op, want <= 1: the value alone", gets)
	}
	if puts > 1 {
		t.Errorf("fresh-key Put: %.2f allocs/op, want <= 1", puts)
	}
	if scans > 2 {
		t.Errorf("limit-50 Scan: %.2f allocs/op, want <= 2: the result slice and its one block", scans)
	}
	t.Logf("allocs/op: cold Get %.0f, fresh-key Put %.0f, limit-50 Scan %.0f", gets, puts, scans)
}

// TestValueTooLarge holds writes to the largest leaf: a value that fits it
// is stored, and one byte more — or the 17 000 and 65 535 bytes that once
// panicked in the leaf encoder — is ErrValueTooLarge from Put and Update
// alike, on a plain and on a replicated cluster, with nothing written: no
// round trip, no memory-node byte, and the key reads its previous value.
func TestValueTooLarge(t *testing.T) {
	key := []byte("big")
	largest := wire.MaxLeafUnits*wire.LeafUnit - wire.LeafHeaderSize - len(key)
	for _, cfg := range []Config{
		{Timing: TimingInstant},
		{Timing: TimingInstant, Replication: 2, HotReplicaFactor: 3},
		{System: SystemSMART},
		{System: SystemART},
	} {
		cluster, err := newTestCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := cluster.NewComputeNode().NewSession()
		prev := []byte("small")
		if err := s.Put(key, prev); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			size int
			fits bool
		}{{largest, true}, {largest + 1, false}, {17_000, false}, {65_535, false}} {
			value := bytes.Repeat([]byte{'v'}, c.size)
			put := func() error { return s.Put(key, value) }
			update := func() error {
				_, err := s.Update(key, value)
				return err
			}
			for name, write := range map[string]func() error{"Put": put, "Update": update} {
				rt0 := s.Stats().RoundTrips
				mu0, _ := cluster.MemoryUsage()
				err := write()
				switch {
				case c.fits && err != nil:
					t.Fatalf("replication %d: %s of %d B: %v", cfg.Replication, name, c.size, err)
				case c.fits:
					prev = value
				case !errors.Is(err, ErrValueTooLarge):
					t.Fatalf("replication %d: %s of %d B = %v, want ErrValueTooLarge", cfg.Replication, name, c.size, err)
				default:
					mu, _ := cluster.MemoryUsage()
					if rts := s.Stats().RoundTrips - rt0; rts != 0 || mu.TotalBytes != mu0.TotalBytes {
						t.Errorf("replication %d: refused %s of %d B cost %d round trips and %d MN bytes",
							cfg.Replication, name, c.size, rts, int64(mu.TotalBytes)-int64(mu0.TotalBytes))
					}
				}
				if v, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(v, prev) {
					t.Fatalf("replication %d: after %s of %d B the key reads %d B, %v, %v; want its %d B",
						cfg.Replication, name, c.size, len(v), ok, err, len(prev))
				}
			}
		}
	}
}
