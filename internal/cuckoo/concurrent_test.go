package cuckoo

import (
	"sync"
	"sync/atomic"
	"testing"

	"sphinx/internal/wire"
)

// TestConcurrentChurnInvariants hammers one filter from many goroutines
// with mixed Contains/Insert/Delete and checks, after quiescence, the
// invariants that must survive any interleaving of whole-word CASes:
//
//   - incremental occupancy equals a full scan,
//   - occupancy equals inserts − evictions − deletes (every counter
//     movement is tied to exactly one successful CAS transition),
//   - occupancy never exceeds capacity,
//   - no slot holds a torn entry (a set hot bit with a zero fingerprint,
//     or spare bits set) — the forbidden race whole-word CAS rules out.
//
// Run under -race this also proves the filter is data-race-free.
func TestConcurrentChurnInvariants(t *testing.T) {
	f := New(1<<10, 99)
	const workers = 8
	const opsPer = 20000
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
				// A key universe ~4× capacity: plenty of duplicates,
				// evictions, false deletes and cross-goroutine collisions.
				h := wire.Mix64(rng % (1 << 12))
				switch {
				case rng>>32%16 < 10:
					f.Contains(h)
				case rng>>32%16 < 14:
					f.Insert(h)
				default:
					f.Delete(h)
				}
			}
		}(w)
	}
	wg.Wait()

	occ := f.Occupancy()
	if scan := scanOccupied(f); occ != scan {
		t.Fatalf("incremental occupancy %d != scanned %d", occ, scan)
	}
	if occ > uint64(f.Capacity()) {
		t.Fatalf("occupancy %d exceeds capacity %d", occ, f.Capacity())
	}
	st := f.Stats()
	if want := st.Inserts - st.Evictions - st.Deletes; occ != want {
		t.Fatalf("occupancy %d != inserts-evictions-deletes %d (stats %+v)", occ, want, st)
	}
	for i := range f.tab.Load().buckets {
		w := f.tab.Load().buckets[i].Load()
		for s := 0; s < SlotsPerBucket; s++ {
			e := slotOf(w, s)
			if e != 0 && e&fpMask == 0 {
				t.Fatalf("torn slot %#x (hot bit without fingerprint)", e)
			}
			if e&^uint16(fpMask|hotBit) != 0 {
				t.Fatalf("spare bits set in slot %#x", e)
			}
		}
	}
	if st.Hits == 0 || st.Inserts == 0 || st.Deletes == 0 {
		t.Fatalf("churn did not exercise all operations (stats %+v)", st)
	}
}

// TestConcurrentInsertNoFalseNegatives checks the cache's one hard read
// guarantee under concurrency: with ample capacity (no evictions), every
// insert that reported success is subsequently found.
func TestConcurrentInsertNoFalseNegatives(t *testing.T) {
	f := New(1<<14, 3)
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h := wire.Mix64(uint64(w*perWorker + i))
				if !f.Insert(h) {
					t.Errorf("insert failed with ample capacity (worker %d item %d)", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ev := f.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions at %.0f%% load; capacity sizing broken", ev, f.Load()*100)
	}
	for i := 0; i < workers*perWorker; i++ {
		if !f.Contains(wire.Mix64(uint64(i))) {
			t.Fatalf("false negative for item %d with no evictions", i)
		}
	}
}

// TestNewBytesWithinBudget pins the byte-budget constructor's contract:
// SizeBytes() never exceeds the budget and lands within one bucket word
// (8 bytes) below it, across budgets with no power-of-two structure.
func TestNewBytesWithinBudget(t *testing.T) {
	for _, budget := range []uint64{64, 1000, 64 << 10, 100_000, 1 << 20, 3_333_333, 20 << 20} {
		f := NewBytes(budget, 1)
		got := f.SizeBytes()
		if got > budget {
			t.Errorf("budget %d: SizeBytes %d over budget", budget, got)
		}
		if budget-got >= 8 {
			t.Errorf("budget %d: SizeBytes %d wastes %d bytes (≥ one bucket word)",
				budget, got, budget-got)
		}
	}
}

// TestAltIndexInvolutionNonPowerOfTwo re-proves the bucket-pair involution
// on filters whose bucket count is not a power of two — the property the
// subtractive partner-index form exists for.
func TestAltIndexInvolutionNonPowerOfTwo(t *testing.T) {
	for _, budget := range []uint64{1000, 99_992, 3_333_333} {
		f := NewBytes(budget, 1)
		for i := 0; i < 10_000; i++ {
			h := wire.Mix64(uint64(i) * 0x9e3779b97f4a7c15)
			tb := f.tab.Load()
			fpv := fp(h)
			i1 := tb.index(h)
			i2 := tb.altIndex(i1, fpv)
			if i1 >= tb.nBuckets || i2 >= tb.nBuckets {
				t.Fatalf("budget %d: index out of range (%d, %d of %d)", budget, i1, i2, tb.nBuckets)
			}
			if back := tb.altIndex(i2, fpv); back != i1 {
				t.Fatalf("budget %d: altIndex not an involution: %d → %d → %d", budget, i1, i2, back)
			}
		}
		// The involution must also hold for entries displaced by kicks,
		// whose bucket may be either of the pair: exercise via churn.
		for i := 0; i < 2000; i++ {
			f.Insert(wire.Mix64(uint64(i)))
		}
		for i := 0; i < 2000; i++ {
			f.Delete(wire.Mix64(uint64(i)))
		}
		if occ, scan := f.Occupancy(), scanOccupied(f); occ != scan {
			t.Fatalf("budget %d: occupancy %d != scan %d after churn (bucket-pair invariant broken?)",
				budget, occ, scan)
		}
	}
}

var sinkBool bool

// BenchmarkContainsParallel measures the raw lock-free read path (two
// atomic loads, warm hits skip the hot-mark CAS) under b.RunParallel.
func BenchmarkContainsParallel(b *testing.B) {
	f := New(1<<16, 1)
	for i := 0; i < 1<<16; i++ {
		f.Insert(wire.Mix64(uint64(i)))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			sinkBool = f.Contains(wire.Mix64(i & (1<<16 - 1)))
			i++
		}
	})
}

func hashSeq(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s++
		return wire.Mix64(s)
	}
}

// BenchmarkInsertParallel measures concurrent inserts with eviction
// pressure (cold stream into a full filter).
func BenchmarkInsertParallel(b *testing.B) {
	f := New(1<<14, 1)
	var lane uint64
	var mu sync.Mutex
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		lane++
		next := hashSeq(lane << 40)
		mu.Unlock()
		for pb.Next() {
			f.Insert(next())
		}
	})
}

// BenchmarkMutationMixParallel measures a CN's filter traffic — half
// Contains, two fifths Insert, one tenth Delete over 16 384 keys, the filter
// a quarter full — on a filter below its budget ("growing", which can still
// double) and on one of the same size built at its budget ("fixed"). Run it
// at -cpu 1,4,8: the two should cost the same, because a filter that can
// double serializes its mutations nowhere but in the doubling itself.
func BenchmarkMutationMixParallel(b *testing.B) {
	const keys = 1 << 14
	for _, c := range []struct {
		name string
		f    *Filter
	}{
		{"growing", NewGrowing(2*keys, 16<<20, 1)},
		{"fixed", NewBytes(NewGrowing(2*keys, 16<<20, 1).SizeBytes(), 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := c.f
			for i := 0; i < keys; i++ {
				f.Insert(wire.Mix64(uint64(i)))
			}
			var lane atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				i := lane.Add(1) << 20
				for pb.Next() {
					h := wire.Mix64(i % keys)
					switch i % 10 {
					case 0:
						f.Delete(h)
					case 1, 2, 3, 4:
						f.Insert(h)
					default:
						sinkBool = f.Contains(h)
					}
					i += 7
				}
			})
			if g := f.Stats().Grows; g != 0 {
				b.Fatalf("%d doublings: the mix must stay below the threshold", g)
			}
		})
	}
}
