package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
)

// sortedKeys returns vals' keys, ascending: with vals, the local reference a
// remote scan is checked against.
func sortedKeys(vals map[string]string) []string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkScan compares one remote scan with the local reference: the keys in
// [lo, hi] (nil bounds open), at most limit of them (0: all).
func checkScan(t *testing.T, c *Client, keys []string, vals map[string]string, lo, hi []byte, limit int) {
	t.Helper()
	got, err := c.Scan(lo, hi, limit)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	from, _ := slices.BinarySearch(keys, string(lo))
	for _, k := range keys[from:] {
		if hi != nil && k > string(hi) || limit > 0 && len(want) == limit {
			break
		}
		want = append(want, k+"="+vals[k])
	}
	if len(got) != len(want) {
		t.Fatalf("scan [%q,%q] limit %d: %d results, oracle %d", lo, hi, limit, len(got), len(want))
	}
	for i, kv := range got {
		if string(kv.Key)+"="+string(kv.Value) != want[i] {
			t.Fatalf("scan [%q,%q][%d] = %q=%q, oracle %q", lo, hi, i, kv.Key, kv.Value, want[i])
		}
	}
}

// TestScanAgainstLocalART cross-validates the remote ordered scan against
// a local reference, the inserted keys sorted: on a dense tree of short
// random keys (many keys that are strict prefixes of others, so scans start
// on EOL leaves), and on 20 k email keys (long compressed paths) with bounds
// cut out of keys — inside compressed paths, between neighbours, past the
// last key — and every limit from one key to more than the range holds.
func TestScanAgainstLocalART(t *testing.T) {
	limits := []int{0, 1, 7, 50, 500}
	t.Run("dense", func(t *testing.T) {
		f, shared := newCluster(t, 3, fabric.InstantConfig(), 3000)
		c := newTestClient(f, shared, Options{})
		vals := map[string]string{}
		rng := rand.New(rand.NewSource(77))
		randKey := func() []byte {
			n := 1 + rng.Intn(12)
			k := make([]byte, n)
			for i := range k {
				k[i] = byte('a' + rng.Intn(5))
			}
			return k
		}
		var short [][]byte
		for i := 0; i < 2500; i++ {
			k := randKey()
			v := []byte(fmt.Sprintf("v%d", i))
			if _, err := c.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			vals[string(k)] = string(v)
			if len(k) <= 3 {
				short = append(short, k)
			}
		}
		keys := sortedKeys(vals)
		checkScan(t, c, keys, vals, nil, nil, 0)
		for i := 0; i < 100; i++ {
			lo, hi := randKey(), randKey()
			if bytes.Compare(lo, hi) > 0 {
				lo, hi = hi, lo
			}
			checkScan(t, c, keys, vals, lo, hi, 0)
			checkScan(t, c, keys, vals, lo, nil, 1+rng.Intn(40))
			checkScan(t, c, keys, vals, nil, hi, 0)
		}
		// lo (and hi) a key that other keys extend: its EOL leaf comes first
		// (last), ahead of the subtree it heads.
		for _, k := range short {
			checkScan(t, c, keys, vals, k, nil, limits[1+rng.Intn(3)])
			checkScan(t, c, keys, vals, nil, k, 0)
			checkScan(t, c, keys, vals, k, k, 0)
		}
	})
	t.Run("email", func(t *testing.T) {
		keys := dataset.GenerateEmail(20_000, 3)
		f, shared := newCluster(t, 3, fabric.InstantConfig(), len(keys))
		c := newTestClient(f, shared, Options{})
		vals := map[string]string{}
		for i, k := range keys {
			v := []byte(fmt.Sprintf("m%d", i))
			if _, err := c.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			vals[string(k)] = string(v)
		}
		sorted := sortedKeys(vals)
		rng := rand.New(rand.NewSource(78))
		// bound cuts a key somewhere — mostly inside a compressed path —
		// and sometimes hangs a byte no key has there onto the cut.
		bound := func() []byte {
			k := keys[rng.Intn(len(keys))]
			b := append([]byte(nil), k[:1+rng.Intn(len(k))]...)
			if rng.Intn(3) == 0 {
				b = append(b, byte(rng.Intn(256)))
			}
			return b
		}
		for i := 0; i < 150; i++ {
			lo, hi := bound(), bound()
			if bytes.Compare(lo, hi) > 0 {
				lo, hi = hi, lo
			}
			limit := limits[rng.Intn(len(limits))]
			checkScan(t, c, sorted, vals, lo, hi, limit)
			checkScan(t, c, sorted, vals, lo, nil, limits[1+rng.Intn(len(limits)-1)])
			checkScan(t, c, sorted, vals, nil, hi, limits[1+rng.Intn(len(limits)-1)])
			// A narrow range around one key, under a limit far above it, and
			// the empty range just behind that key.
			k := keys[rng.Intn(len(keys))]
			checkScan(t, c, sorted, vals, k[:len(k)-1], append(append([]byte(nil), k...), 0xff), 500)
			checkScan(t, c, sorted, vals, append(append([]byte(nil), k...), 0), append(append([]byte(nil), k...), 0, 1), limit)
		}
		checkScan(t, c, sorted, vals, []byte("~~~"), nil, 50) // past the last key
		checkScan(t, c, sorted, vals, nil, []byte("!"), 0)    // before the first
		checkScan(t, c, sorted, vals, nil, nil, 0)
	})
}

// TestScanDuringConcurrentInserts: scans racing inserts INSIDE the scanned
// range — leaf conversions under the stable keys, type switches and partial
// splits of the nodes above them — return, in order and once each, every key
// present before the scan started and never deleted: all stable keys, and
// every moving key an earlier scan already returned.
func TestScanDuringConcurrentInserts(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 4000)
	c := newTestClient(f, shared, Options{})
	const stable = 300
	for i := 0; i < stable; i++ {
		k := []byte(fmt.Sprintf("stable/%04d", i))
		if _, err := c.Insert(k, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var inserted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := newSeededClient(f, shared, 9)
		rng := rand.New(rand.NewSource(9))
		for i := 0; !stop.Load(); i++ {
			// Extends a stable key (which becomes an EOL leaf) or lands
			// between two of them.
			k := []byte(fmt.Sprintf("stable/%04d.%06d", rng.Intn(stable), i))
			if i%3 == 0 {
				k = []byte(fmt.Sprintf("stable/%03d+%06d", rng.Intn(stable/10), i))
			}
			if _, err := w.Insert(k, []byte("m")); err != nil {
				t.Error(err)
				stop.Store(true)
				return
			}
			inserted.Add(1)
		}
	}()
	seen := 0
	for round := 0; round < 15 && !stop.Load(); round++ {
		// Every scan starts with new keys in its range, whatever the
		// scheduler makes of two goroutines that never block.
		for before := inserted.Load(); inserted.Load() < before+5 && !stop.Load(); {
			runtime.Gosched()
		}
		kvs, err := c.Scan([]byte("stable/"), []byte("stable/~"), 0)
		if err != nil {
			t.Fatal(err)
		}
		stableSeen := 0
		for i, kv := range kvs {
			if i > 0 && bytes.Compare(kvs[i-1].Key, kv.Key) >= 0 {
				t.Fatalf("round %d: result %d %q after %q", round, i, kv.Key, kvs[i-1].Key)
			}
			if len(kv.Key) == len("stable/0000") {
				stableSeen++
			}
		}
		if stableSeen != stable {
			t.Fatalf("round %d: scan saw %d stable keys, want %d", round, stableSeen, stable)
		}
		// Nothing is ever deleted, so what one scan returned the next one
		// must return too.
		if len(kvs) < seen {
			t.Fatalf("round %d: scan returned %d keys after an earlier one returned %d", round, len(kvs), seen)
		}
		seen = len(kvs)
	}
	stop.Store(true)
	wg.Wait()
}

// TestChaosScanChurn: scans beside writers that move leaves (updates that
// outgrow them), convert leaf edges into nodes, grow and split those nodes
// and delete what they inserted — with a quarter of all batches, the scans'
// rounds included, cut by transient faults. A scan that meets a fault or a
// restructuring it cannot follow starts over; the one that returns is never
// short (every stable key is there), never unsorted, carries only whole
// values of the right key, and never an older version of a key than an
// earlier scan showed. Under -race this is the data-race check of the scan's
// engine-held scratch.
func TestChaosScanChurn(t *testing.T) {
	const writers, stablePer, steps = 3, 8, 40
	sizes := []int{48, 48, 90, 700}
	seeds := uint64(40)
	if testing.Short() {
		seeds = 5
	}
	var restarts, reresolved uint64
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 4000)
	for seed := uint64(1); seed <= seeds; seed++ {
		prefix := fmt.Sprintf("sc%03d/", seed)
		stableKey := func(w, i int) string { return fmt.Sprintf("%s%02d-w%d", prefix, i, w) }
		loader := newTestClient(f, shared, Options{})
		for w := 0; w < writers; w++ {
			for i := 0; i < stablePer; i++ {
				k := stableKey(w, i)
				if _, err := loader.Insert([]byte(k), churnValue(k, 0, sizes[0])); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.SetFaultPlan(&fabric.FaultPlan{Seed: seed, TransientPer64k: 1 << 14})
		clients := make([]*Client, writers+2)
		for i := range clients {
			clients[i] = newTestClient(f, shared, Options{})
		}
		f.SetFaultPlan(nil)

		var writing sync.WaitGroup
		var all sync.WaitGroup
		var done atomic.Bool
		errCh := make(chan error, len(clients))
		for w := 0; w < writers; w++ {
			writing.Add(1)
			all.Add(1)
			go func(w int) {
				defer all.Done()
				defer writing.Done()
				c := clients[w]
				rng := rand.New(rand.NewSource(int64(seed)*100 + int64(w)))
				var volatile []string
				for step := 1; step <= steps; step++ {
					var err error
					switch op := rng.Intn(10); {
					case op < 5: // rewrite a stable key, in place or into a new leaf
						k := stableKey(w, rng.Intn(stablePer))
						_, err = c.Update([]byte(k), churnValue(k, step, sizes[rng.Intn(len(sizes))]))
					case op < 8 || len(volatile) == 0: // a new key under (or beside) a stable one
						k := fmt.Sprintf("%s-v%02d", stableKey(w, rng.Intn(stablePer)), step)
						if rng.Intn(3) == 0 {
							k = fmt.Sprintf("%s%02d+w%d-%02d", prefix, rng.Intn(stablePer), w, step)
						}
						if _, err = c.Insert([]byte(k), churnValue(k, step, sizes[0])); err == nil {
							volatile = append(volatile, k)
						}
					default:
						i := rng.Intn(len(volatile))
						_, err = c.Delete([]byte(volatile[i]))
						volatile = append(volatile[:i], volatile[i+1:]...)
					}
					if err != nil && !errors.Is(err, ErrRetriesExhausted) {
						errCh <- fmt.Errorf("seed %d w%d step %d: %w", seed, w, step, err)
						return
					}
				}
			}(w)
		}
		for _, c := range clients[writers:] {
			all.Add(1)
			go func(c *Client) {
				defer all.Done()
				rng := rand.New(rand.NewSource(int64(seed)*100 + int64(c.eng.C.ID())))
				seen := map[string]int{}
				for last := false; !last; {
					last = done.Load() // one more scan after the writers stopped
					lo, limit := []byte(prefix), 0
					if rng.Intn(2) == 0 {
						// From a stable key with at least five stable keys at
						// or behind it.
						lo, limit = []byte(stableKey(rng.Intn(writers), rng.Intn(stablePer-2))), 5
					}
					kvs, err := c.Scan(lo, []byte(prefix+"~"), limit)
					if errors.Is(err, ErrRetriesExhausted) {
						continue
					}
					if err != nil {
						errCh <- fmt.Errorf("seed %d scan from %q: %w", seed, lo, err)
						return
					}
					stables := 0
					for i, kv := range kvs {
						k := string(kv.Key)
						if bytes.Compare(kv.Key, lo) < 0 || (i > 0 && bytes.Compare(kvs[i-1].Key, kv.Key) >= 0) {
							errCh <- fmt.Errorf("seed %d scan from %q: result %d is %q after %q", seed, lo, i, k, kvs[max(i-1, 0)].Key)
							return
						}
						version, err := churnVersion(k, kv.Value)
						if err != nil {
							errCh <- fmt.Errorf("seed %d scan from %q: %w", seed, lo, err)
							return
						}
						if len(k) == len(stableKey(0, 0)) {
							stables++
							if version < seen[k] {
								errCh <- fmt.Errorf("seed %d: %q scans at version %d after version %d", seed, k, version, seen[k])
								return
							}
							seen[k] = version
						}
					}
					if (limit == 0 && stables != writers*stablePer) || (limit > 0 && len(kvs) != limit) {
						errCh <- fmt.Errorf("seed %d scan from %q limit %d: short result, %d keys, %d stable of %d",
							seed, lo, limit, len(kvs), stables, writers*stablePer)
						return
					}
				}
			}(c)
		}
		writing.Wait()
		done.Store(true)
		all.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		for _, c := range clients[writers:] {
			restarts += c.Stats().Restarts
			reresolved += c.eng.Stats().ScanReresolved
		}
	}
	if restarts == 0 || reresolved == 0 {
		t.Errorf("churn never restarted a scan (%d) or never made one follow a retired object (%d)", restarts, reresolved)
	}
}

// TestEmailDatasetEndToEnd loads a slice of the synthetic email dataset
// and validates point lookups, prefix scans and deletes against a map.
func TestEmailDatasetEndToEnd(t *testing.T) {
	keys := dataset.GenerateEmail(3000, 5)
	f, shared := newCluster(t, 3, fabric.InstantConfig(), len(keys))
	c := newTestClient(f, shared, Options{})
	oracle := map[string]string{}
	for i, k := range keys {
		v := fmt.Sprintf("m%d", i)
		if _, err := c.Insert(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[string(k)] = v
	}
	for k, v := range oracle {
		got, ok, err := c.Search([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("email %q: %v %v", k, ok, err)
		}
	}
	// Spot-check a domain-prefix scan count against the oracle.
	lo, hi := []byte("james"), []byte("jamesz")
	want := 0
	for k := range oracle {
		if k >= string(lo) && k <= string(hi) {
			want++
		}
	}
	kvs, err := c.Scan(lo, hi, 0)
	if err != nil || len(kvs) != want {
		t.Fatalf("prefix scan: %d results, oracle %d (err=%v)", len(kvs), want, err)
	}
	// Delete a third of the keys and re-validate.
	i := 0
	for k := range oracle {
		if i%3 == 0 {
			if ok, err := c.Delete([]byte(k)); err != nil || !ok {
				t.Fatalf("delete %q: %v %v", k, ok, err)
			}
			delete(oracle, k)
		}
		i++
	}
	total, err := c.Scan(nil, nil, 0)
	if err != nil || len(total) != len(oracle) {
		t.Fatalf("after deletes: scan %d, oracle %d", len(total), len(oracle))
	}
}
