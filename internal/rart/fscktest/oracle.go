package fscktest

import (
	"fmt"
	"math/rand"
	"testing"

	"sphinx/internal/rart"
)

// Index is the point operations and the scan every system's client offers.
type Index interface {
	Search(key []byte) ([]byte, bool, error)
	Insert(key, value []byte) (bool, error)
	Update(key, value []byte) (bool, error)
	Delete(key []byte) (bool, error)
	Scan(lo, hi []byte, limit int) ([]rart.KV, error)
}

// RandomOps runs steps operations of seed's stream on c — inserts, updates,
// deletes and searches of keys of 1 to 10 letters out of four, so that keys
// share prefixes and end inside one another — against a map: each answer is
// the map's. Then c's scan of the whole index holds the map (ScanHolds).
func RandomOps(t testing.TB, c Index, seed int64, steps int) {
	t.Helper()
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		k := make([]byte, 1+rng.Intn(10))
		for i := range k {
			k[i] = byte('a' + rng.Intn(4))
		}
		want, had := oracle[string(k)]
		var got []byte
		var ok bool
		var err error
		op := rng.Intn(5)
		switch op {
		case 0, 1:
			want = fmt.Sprintf("v%d", step)
			ok, err = c.Insert(k, []byte(want))
			oracle[string(k)] = want
		case 2:
			ok, err = c.Delete(k)
			delete(oracle, string(k))
		case 3:
			if ok, err = c.Update(k, []byte(fmt.Sprintf("u%d", step))); ok {
				oracle[string(k)] = fmt.Sprintf("u%d", step)
			}
		default:
			got, ok, err = c.Search(k)
		}
		if err != nil || ok != had || op == 4 && ok && string(got) != want {
			t.Fatalf("step %d: %s %q = %q, %v, %v; the map holds %q, %v", step, [...]string{"insert", "insert", "delete", "update", "search"}[op], k, got, ok, err, want, had)
		}
	}
	ScanHolds(t, c, oracle)
}

// ScanHolds requires c's scan of the whole index to hold exactly oracle's keys
// and values, in key order, and returns it.
func ScanHolds(t testing.TB, c Index, oracle map[string]string) []rart.KV {
	t.Helper()
	kvs, err := c.Scan(nil, nil, 0)
	if err != nil || len(kvs) != len(oracle) {
		t.Fatalf("scan of %d keys (%v); the map holds %d", len(kvs), err, len(oracle))
	}
	for i, kv := range kvs {
		if want, ok := oracle[string(kv.Key)]; !ok || want != string(kv.Value) || i > 0 && string(kvs[i-1].Key) >= string(kv.Key) {
			t.Fatalf("scan[%d] = %q/%q; the map holds %q, %v, and scans in key order", i, kv.Key, kv.Value, want, ok)
		}
	}
	return kvs
}
