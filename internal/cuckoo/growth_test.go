package cuckoo

import (
	"strings"
	"sync"
	"testing"

	"sphinx/internal/wire"
)

// distinctKeys returns n ≤ 4095 item hashes whose fingerprints all differ,
// so no two of them ever share an entry: what the filter holds for one says
// nothing of another.
func distinctKeys(n int) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = wire.Mix64(uint64(i))&^(uint64(fpMask)<<48) | uint64(i+1)<<48
	}
	return hs
}

// TestGrowDropsTheOldTable walks a filter along its whole doubling
// schedule. Each doubling happens at the insert that fills half the slots,
// leaves an empty table twice the size, and counts every entry the old
// table held as a drop (GrowDrops, inside Evictions); the occupancy
// identity holds throughout, and what is inserted after a doubling is
// found. The last table is the budget: it never doubles.
func TestGrowDropsTheOldTable(t *testing.T) {
	const budget = 8 << 10 // 1024 buckets: tables of 64, 128, 256, 512, 1024
	f := NewGrowing(128, budget, 5)
	if got := f.SizeBytes(); got != 64*8 {
		t.Fatalf("start %d B, want 512 B (two slots per expected entry)", got)
	}
	keys := distinctKeys(4095)
	k := 0
	for size := f.SizeBytes(); size < budget; size *= 2 {
		before := f.Stats()
		var held uint64
		for f.Stats().Grows == before.Grows {
			held = f.Occupancy() + 1
			f.Insert(keys[k])
			k++
		}
		st := f.Stats()
		if f.SizeBytes() != 2*size || 2*held != size/8*SlotsPerBucket {
			t.Fatalf("doubling %d at %d of %d slots to %d B, want at half of them to %d B",
				st.Grows, held, size/8*SlotsPerBucket, f.SizeBytes(), 2*size)
		}
		if drops := st.GrowDrops - before.GrowDrops; drops != held || f.Occupancy() != 0 {
			t.Fatalf("doubling %d dropped %d of %d entries and left %d", st.Grows, drops, held, f.Occupancy())
		}
		if st.Evictions != st.GrowDrops {
			t.Fatalf("%d evictions besides the doublings' (stats %+v)", st.Evictions-st.GrowDrops, st)
		}
		checkOccupancy(t, f, "after a doubling")
		for _, h := range keys[k : k+16] {
			if f.Insert(h); !f.Contains(h) {
				t.Fatalf("an insert after doubling %d is not found", st.Grows)
			}
		}
		k += 16
	}
	if st := f.Stats(); st.Grows != 4 || f.SizeBytes() != budget {
		t.Fatalf("%d doublings to %d B, want 4 to the %d B budget", st.Grows, f.SizeBytes(), budget)
	}
	for _, h := range keys[k:] {
		f.Insert(h)
	}
	if f.Stats().Grows != 4 {
		t.Fatal("a filter at its budget doubled")
	}
	checkOccupancy(t, f, "at the budget")
	if !strings.Contains(f.String(), "8192 of 8192 B") {
		t.Errorf("String() = %q, want the current and budget sizes", f.String())
	}
}

// TestLateInsertIntoReplacedTable plays an insert that loaded the table
// before a doubling and lands in it after: the entry is lost with that
// table, counted as one more drop, and the occupancy identity holds.
func TestLateInsertIntoReplacedTable(t *testing.T) {
	f := NewGrowing(128, 8<<10, 5)
	old := f.tab.Load()
	keys := distinctKeys(200)
	k := 0
	for f.Stats().Grows == 0 {
		f.Insert(keys[k])
		k++
	}
	drops := f.Stats().GrowDrops
	if _, claimed := f.insert(old, keys[k]); !claimed {
		t.Fatal("the late insert found no free slot in the replaced table")
	}
	if got := f.Stats().GrowDrops; got != drops+1 {
		t.Fatalf("GrowDrops %d after the late insert, want %d", got, drops+1)
	}
	if f.Contains(keys[k]) {
		t.Fatal("the late insert reached the new table")
	}
	checkOccupancy(t, f, "after the late insert")
}

// TestGrowingStartSize pins the start on the doubling schedule: the
// smallest halving of the budget with two slots (4 bytes) per expected
// entry, or the budget itself when it holds fewer.
func TestGrowingStartSize(t *testing.T) {
	for _, c := range []struct {
		expected    int
		budget      uint64
		start, last uint64 // bytes
	}{
		{65_536, 16 << 20, 256 << 10, 16 << 20}, // read-warm's 65 536 keys
		{10_000, 16 << 20, 64 << 10, 16 << 20},  // 40 000 B needed
		{120_000, 40_032, 40_032, 40_032},       // a budget below the need
		{1000, 100_000, 6248, 99_968},           // 12 500 buckets: 781 << 4
	} {
		f := NewGrowing(c.expected, c.budget, 1)
		if got, last := f.SizeBytes(), f.budget*8; got != c.start || last != c.last {
			t.Errorf("NewGrowing(%d, %d): %d B growing to %d B, want %d to %d",
				c.expected, c.budget, got, last, c.start, c.last)
		}
	}
}

// TestConcurrentGrowthHammer crosses several doublings with concurrent
// Insert, Contains and Delete and checks, after quiescence, what no
// interleaving may break: the incremental occupancy equals a scan and
// inserts − evictions − deletes, the filter stays within its budget, and no
// slot is torn. Run under -race -cpu 1,4,8 it also proves that Contains
// reading the table a doubling replaces races with nothing.
func TestConcurrentGrowthHammer(t *testing.T) {
	const budget = 64 << 10
	f := NewGrowing(64, budget, 11)
	const workers = 8
	const opsPer = 1500
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
				h := wire.Mix64(rng % (1 << 14))
				switch {
				case rng>>32%16 < 6:
					f.Contains(h)
				case rng>>32%16 < 15:
					f.Insert(h)
				default:
					f.Delete(h)
				}
			}
		}(w)
	}
	wg.Wait()
	st := f.Stats()
	if st.Grows < 2 {
		t.Fatalf("the hammer crossed %d doublings, want at least 2 (stats %+v)", st.Grows, st)
	}
	if f.SizeBytes() > budget {
		t.Fatalf("filter of %d B over its %d B budget", f.SizeBytes(), budget)
	}
	checkOccupancy(t, f, "after the hammer")
	tb := f.tab.Load()
	for i := range tb.buckets {
		w := tb.buckets[i].Load()
		for s := 0; s < SlotsPerBucket; s++ {
			if e := slotOf(w, s); e != 0 && e&fpMask == 0 {
				t.Fatalf("torn slot %#x", e)
			}
		}
	}
}
