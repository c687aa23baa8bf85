package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestFilterCacheConcurrentChurn hammers one shared FilterCache — the
// object every worker of a CN shares — with mixed Contains/Insert/Delete
// from many goroutines and asserts the
// occupancy invariants PR 4 pinned down for the single-threaded filter:
// occupancy is never negative (it is unsigned: "negative" shows up as a
// huge value above capacity), never above capacity, and stays equal to
// inserts − evictions − deletes. Run under -race this is the
// data-race-freedom proof for the lock-free filter.
func TestFilterCacheConcurrentChurn(t *testing.T) {
	fc := NewFilterCacheBytes(32<<10, 7)
	const workers = 8
	const opsPer = 15000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsPer; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				// Key universe ~2× slot capacity: constant eviction
				// pressure plus plenty of hits.
				h := PrefixFilterHash([]byte(fmt.Sprintf("p%d", rng%(64<<10))))
				switch {
				case rng>>32%16 < 10:
					fc.Contains(h)
				case rng>>32%16 < 14:
					fc.Insert(h)
				default:
					fc.Delete(h)
				}
			}
		}(w)
	}
	wg.Wait()

	occupied, capacity := fc.Occupancy()
	if occupied > capacity {
		t.Fatalf("occupancy %d above capacity %d (or negative via wraparound)", occupied, capacity)
	}
	st := fc.FilterStats()
	if want := st.Inserts - st.Evictions - st.Deletes; occupied != want {
		t.Fatalf("occupancy %d != inserts-evictions-deletes %d (stats %+v)", occupied, want, st)
	}
	if l := fc.Load(); l < 0 || l > 1 {
		t.Fatalf("load %f outside [0, 1]", l)
	}
	if st.Hits == 0 || st.Inserts == 0 || st.Deletes == 0 || st.Evictions == 0 {
		t.Fatalf("churn did not exercise all paths (stats %+v)", st)
	}
}
