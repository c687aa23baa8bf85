package artdm

import (
	"bytes"
	"encoding/binary"
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
	fscktest.AtEnd(t, f, func(fc *fabric.Client) *rart.Check { return fsck(fc, shared) })
	return f, shared
}

// fsck runs the index check on shared's tree through fc.
func fsck(fc *fabric.Client, shared Shared) *rart.Check {
	return rart.NewEngine(fc, nil, nil, rart.Config{}).Fsck(shared.Root)
}

func newTestClient(f *fabric.Fabric, shared Shared) *Client {
	return NewClient(shared, f.NewClient())
}

func TestEmptyIndex(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	c := newTestClient(f, shared)
	if _, ok, err := c.Search([]byte("missing")); err != nil || ok {
		t.Errorf("Search on empty index = ok=%v err=%v", ok, err)
	}
	if ok, err := c.Delete([]byte("missing")); err != nil || ok {
		t.Errorf("Delete on empty index = ok=%v err=%v", ok, err)
	}
	if ok, err := c.Update([]byte("missing"), []byte("v")); err != nil || ok {
		t.Errorf("Update on empty index = ok=%v err=%v", ok, err)
	}
}

func TestInsertSearch(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig())
	c := newTestClient(f, shared)
	pairs := map[string]string{
		"LYRICS": "v1", "LYRIC": "v2", "LYR": "v3", "L": "v4",
		"MOON": "v5", "LYRA": "v6",
	}
	for k, v := range pairs {
		existed, err := c.Insert([]byte(k), []byte(v))
		if err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
		if existed {
			t.Errorf("fresh insert of %q reported existing", k)
		}
	}
	for k, v := range pairs {
		got, ok, err := c.Search([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Errorf("Search(%q) = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
	if _, ok, _ := c.Search([]byte("LY")); ok {
		t.Error("absent intermediate prefix found")
	}
	if _, ok, _ := c.Search([]byte("LYRICSX")); ok {
		t.Error("absent extension found")
	}
}

func TestUpsertAndUpdate(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	c := newTestClient(f, shared)
	if _, err := c.Insert([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	existed, err := c.Insert([]byte("k"), []byte("v2"))
	if err != nil || !existed {
		t.Fatalf("upsert: existed=%v err=%v", existed, err)
	}
	got, _, _ := c.Search([]byte("k"))
	if string(got) != "v2" {
		t.Errorf("after upsert: %q", got)
	}
	ok, err := c.Update([]byte("k"), []byte("v3"))
	if err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	got, _, _ = c.Search([]byte("k"))
	if string(got) != "v3" {
		t.Errorf("after update: %q", got)
	}
}

func TestUpdateGrowingValue(t *testing.T) {
	// Force the out-of-place path: a value too large for the original
	// leaf's 64-byte units.
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	c := newTestClient(f, shared)
	if _, err := c.Insert([]byte("key"), []byte("small")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 300)
	if ok, err := c.Update([]byte("key"), big); err != nil || !ok {
		t.Fatalf("growing update: ok=%v err=%v", ok, err)
	}
	got, ok, err := c.Search([]byte("key"))
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Errorf("after growing update: len=%d ok=%v err=%v", len(got), ok, err)
	}
	// And shrink it back via the in-place path.
	if ok, err := c.Update([]byte("key"), []byte("tiny")); err != nil || !ok {
		t.Fatalf("shrinking update: ok=%v err=%v", ok, err)
	}
	got, _, _ = c.Search([]byte("key"))
	if string(got) != "tiny" {
		t.Errorf("after shrink: %q", got)
	}
}

func TestDelete(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig())
	c := newTestClient(f, shared)
	keys := []string{"a", "ab", "abc", "abd", "b"}
	for _, k := range keys {
		if _, err := c.Insert([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		ok, err := c.Delete([]byte(k))
		if err != nil || !ok {
			t.Fatalf("delete %q: ok=%v err=%v", k, ok, err)
		}
		if _, found, _ := c.Search([]byte(k)); found {
			t.Fatalf("%q found after delete", k)
		}
		for _, rest := range keys[i+1:] {
			if _, found, _ := c.Search([]byte(rest)); !found {
				t.Fatalf("%q lost when deleting %q", rest, k)
			}
		}
	}
	if ok, _ := c.Delete([]byte("a")); ok {
		t.Error("double delete succeeded")
	}
}

func TestNodeGrowthThroughAllTypes(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig())
	c := newTestClient(f, shared)
	// 256 distinct second bytes under one first byte forces N4→16→48→256.
	for i := 0; i < 256; i++ {
		k := []byte{'p', byte(i), 'z'}
		if _, err := c.Insert(k, []byte{byte(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 256; i++ {
		k := []byte{'p', byte(i), 'z'}
		v, ok, err := c.Search(k)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("lost key %d after growth: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestLongSharedPrefixChain(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	c := newTestClient(f, shared)
	long := bytes.Repeat([]byte("q"), 100)
	k1 := append(append([]byte{}, long...), 'a')
	k2 := append(append([]byte{}, long...), 'b')
	k3 := append(append([]byte{}, long[:37]...), 'x')
	for i, k := range [][]byte{k1, k2, k3} {
		if _, err := c.Insert(k, []byte{byte(i + 1)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i, k := range [][]byte{k1, k2, k3} {
		v, ok, err := c.Search(k)
		if err != nil || !ok || v[0] != byte(i+1) {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
	// k3 forces a split inside the 100-byte compressed chain.
	if _, ok, _ := c.Search(long[:38]); ok {
		t.Error("phantom key found")
	}
}

func TestKeysThatArePrefixes(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	c := newTestClient(f, shared)
	keys := []string{"a", "ab", "abc", "abcd"}
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
	// Delete the middle prefix keys; extensions must survive.
	if ok, _ := c.Delete([]byte("ab")); !ok {
		t.Fatal("delete ab failed")
	}
	if _, ok, _ := c.Search([]byte("abc")); !ok {
		t.Error("abc lost after deleting ab")
	}
	if _, ok, _ := c.Search([]byte("ab")); ok {
		t.Error("ab still present")
	}
}

func TestScan(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.InstantConfig())
	c := newTestClient(f, shared)
	var want []string
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("user%04d", i*2)
		want = append(want, k)
		if _, err := c.Insert([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := c.Scan([]byte("user0100"), []byte("user0200"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, string(kv.Key))
	}
	var expect []string
	for _, k := range want {
		if k >= "user0100" && k <= "user0200" {
			expect = append(expect, k)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(expect) {
		t.Errorf("scan got %d keys, want %d", len(got), len(expect))
	}
	if !sort.StringsAreSorted(got) {
		t.Error("scan output unsorted")
	}
	// Limited scan.
	kvs, err = c.Scan([]byte("user0100"), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 7 {
		t.Errorf("limited scan returned %d", len(kvs))
	}
}

func TestU64Keys(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig())
	c := newTestClient(f, shared)
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 400)
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
			t.Fatalf("u64 key %d: ok=%v err=%v", u, ok, err)
		}
	}
}

func TestRandomOpsAgainstOracle(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig())
	c := newTestClient(f, shared)
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(99))
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
			_, want := oracle[string(k)]
			if existed != want {
				t.Fatalf("step %d insert existed=%v oracle=%v", step, existed, want)
			}
			oracle[string(k)] = v
		case 2:
			ok, err := c.Delete(k)
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			_, want := oracle[string(k)]
			if ok != want {
				t.Fatalf("step %d delete ok=%v oracle=%v", step, ok, want)
			}
			delete(oracle, string(k))
		case 3:
			v := fmt.Sprintf("u%d", step)
			ok, err := c.Update(k, []byte(v))
			if err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
			_, want := oracle[string(k)]
			if ok != want {
				t.Fatalf("step %d update ok=%v oracle=%v", step, ok, want)
			}
			if ok {
				oracle[string(k)] = v
			}
		case 4:
			got, ok, err := c.Search(k)
			if err != nil {
				t.Fatalf("step %d search: %v", step, err)
			}
			want, wantOK := oracle[string(k)]
			if ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("step %d search %q = %q,%v oracle %q,%v", step, k, got, ok, want, wantOK)
			}
		}
	}
	// Final full-scan equivalence.
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
			t.Fatalf("scan[%d] = %q/%q, oracle %q/%q", i, kv.Key, kv.Value, keys[i], oracle[keys[i]])
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig())
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newTestClient(f, shared)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%02d-key-%04d", w, i))
				if _, err := c.Insert(k, []byte(fmt.Sprint(i))); err != nil {
					errs <- fmt.Errorf("w%d insert %d: %w", w, i, err)
					return
				}
				// Interleave random reads of own keys.
				j := rng.Intn(i + 1)
				kk := []byte(fmt.Sprintf("w%02d-key-%04d", w, j))
				v, ok, err := c.Search(kk)
				if err != nil || !ok || string(v) != fmt.Sprint(j) {
					errs <- fmt.Errorf("w%d lost own key %d: ok=%v err=%v", w, j, ok, err)
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
	c := newTestClient(f, shared)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%02d-key-%04d", w, i))
			if _, ok, err := c.Search(k); err != nil || !ok {
				t.Fatalf("key %q missing after concurrent load: err=%v", k, err)
			}
		}
	}
}

func TestConcurrentSharedHotspot(t *testing.T) {
	// All workers hammer the same small key set: exercises node locks,
	// leaf conversions under contention, and in-place update races.
	f, shared := newCluster(t, 2, fabric.DefaultConfig())
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newTestClient(f, shared)
			rng := rand.New(rand.NewSource(int64(w + 100)))
			for i := 0; i < 400; i++ {
				k := []byte(fmt.Sprintf("hot%d", rng.Intn(20)))
				switch rng.Intn(3) {
				case 0:
					if _, err := c.Insert(k, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
						errs <- fmt.Errorf("w%d insert: %w", w, err)
						return
					}
				case 1:
					if _, err := c.Update(k, []byte(fmt.Sprintf("u%d-%d", w, i))); err != nil {
						errs <- fmt.Errorf("w%d update: %w", w, err)
						return
					}
				case 2:
					if _, _, err := c.Search(k); err != nil {
						errs <- fmt.Errorf("w%d search: %w", w, err)
						return
					}
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

func TestConcurrentInsertDelete(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig())
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newTestClient(f, shared)
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("churn-%d-%d", w, i%25))
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

func TestSearchCostsOneRoundTripPerLevel(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.DefaultConfig())
	c := newTestClient(f, shared)
	// Two keys diverging at byte 2 build root → node(depth 2) → leaves.
	if _, err := c.Insert([]byte("aax"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert([]byte("aay"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	before := c.Engine().C.Stats()
	if _, ok, err := c.Search([]byte("aax")); err != nil || !ok {
		t.Fatal(err)
	}
	d := c.Engine().C.Stats().Sub(before)
	// root read + inner node read + leaf read = 3 round trips.
	if d.RoundTrips != 3 {
		t.Errorf("search took %d round trips, want 3 (root+inner+leaf)", d.RoundTrips)
	}
}

func TestRejectsOversizeAndEmptyKeys(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig())
	c := newTestClient(f, shared)
	if _, err := c.Insert(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := c.Insert(bytes.Repeat([]byte("k"), 5000), []byte("v")); err == nil {
		t.Error("oversize key accepted")
	}
}

func TestScanUnbatchedCostsPerChild(t *testing.T) {
	// The naive port's defining scan cost (paper §V-B): one round trip
	// per node/leaf visited, no doorbell batching.
	f, shared := newCluster(t, 1, fabric.DefaultConfig())
	c := newTestClient(f, shared)
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("scan%04d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Engine().C.Stats()
	kvs, err := c.Scan([]byte("scan0000"), []byte("scan0031"), 0)
	if err != nil || len(kvs) != 32 {
		t.Fatalf("scan: %d %v", len(kvs), err)
	}
	d := c.Engine().C.Stats().Sub(before)
	// 32 leaves plus path nodes, each its own round trip.
	if d.RoundTrips < 32 {
		t.Errorf("unbatched scan took only %d round trips for 32 results", d.RoundTrips)
	}
	if d.Verbs != d.RoundTrips {
		t.Errorf("unbatched scan batched something: %d verbs vs %d RTs", d.Verbs, d.RoundTrips)
	}
}

func TestScanLimitBoundsWork(t *testing.T) {
	// A limit-bounded scan must not pay for the rest of the tree.
	f, shared := newCluster(t, 1, fabric.DefaultConfig())
	c := newTestClient(f, shared)
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("lim%05d", i))
		if _, err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Engine().C.Stats()
	kvs, err := c.Scan([]byte("lim00000"), nil, 5)
	if err != nil || len(kvs) != 5 {
		t.Fatalf("limited scan: %d %v", len(kvs), err)
	}
	d := c.Engine().C.Stats().Sub(before)
	if d.RoundTrips > 40 {
		t.Errorf("limit-5 scan over 500 keys took %d round trips", d.RoundTrips)
	}
}
