package cuckoo

import (
	"fmt"
	"testing"
)

// scanOccupied is the ground truth the incremental counter must track.
func scanOccupied(f *Filter) uint64 {
	var used uint64
	for i := range f.tab.Load().buckets {
		w := f.tab.Load().buckets[i].Load()
		for s := 0; s < SlotsPerBucket; s++ {
			if slotOf(w, s) != 0 {
				used++
			}
		}
	}
	return used
}

func checkOccupancy(t *testing.T, f *Filter, where string) {
	t.Helper()
	if got, want := f.Occupancy(), scanOccupied(f); got != want {
		t.Fatalf("%s: incremental occupancy %d != scanned %d", where, got, want)
	}
	st := f.Stats()
	if got, want := f.Occupancy(), st.Inserts-st.Evictions-st.Deletes; got != want {
		t.Fatalf("%s: occupancy %d != inserts-evictions-deletes %d (stats %+v)",
			where, got, want, st)
	}
}

// TestOccupancyChurnReturnsToBaseline drives a small filter far past
// capacity (forcing second-chance replacement, relocation chains and
// kick-overflow drops), interleaves deletes, and asserts after every
// phase that the incremental occupancy equals a full scan — i.e. every
// eviction path decrements (or net-zeroes) occupancy symmetrically with
// insert. Finally it empties the filter and requires occupancy back at
// the baseline of zero.
func TestOccupancyChurnReturnsToBaseline(t *testing.T) {
	f := New(48, 42)
	var hashes []uint64
	for round := 0; round < 6; round++ {
		for i := 0; i < 200; i++ {
			h := hashOf(fmt.Sprintf("churn-%d-%d", round, i))
			hashes = append(hashes, h)
			f.Insert(h)
			// Mark a slice hot so second chance has hot entries to kick.
			if i%3 == 0 {
				f.Contains(h)
			}
		}
		checkOccupancy(t, f, fmt.Sprintf("after insert round %d", round))
		for i := 0; i < 100; i++ {
			f.Delete(hashOf(fmt.Sprintf("churn-%d-%d", round, i)))
		}
		checkOccupancy(t, f, fmt.Sprintf("after delete round %d", round))
	}
	st := f.Stats()
	if st.Evictions == 0 {
		t.Fatalf("churn did not exercise eviction paths (stats %+v)", st)
	}
	if st.SecondWins == 0 {
		t.Fatalf("second chance never replaced a cold entry (stats %+v)", st)
	}
	// Delete-until-absent over everything ever inserted empties the
	// filter: relocations preserve the bucket-pair invariant, so every
	// surviving entry is reachable from one of the inserted hashes.
	for _, h := range hashes {
		for f.Delete(h) {
		}
	}
	checkOccupancy(t, f, "after emptying")
	if f.Occupancy() != 0 {
		t.Fatalf("occupancy %d after deleting everything, want baseline 0", f.Occupancy())
	}
}

// TestOccupancyKickDropAccounting checks the kick-overflow path
// specifically: overflow drops must count as evictions and kick drops,
// and keep occupancy saturated, not inflated.
func TestOccupancyKickDropAccounting(t *testing.T) {
	f := New(16, 7)
	var recent []uint64
	for i := 0; i < 5000; i++ {
		h := hashOf(fmt.Sprintf("press-%d", i))
		f.Insert(h)
		// Keep the working set hot so inserts find no cold victim and must
		// take the relocation path; at full occupancy chains overflow.
		recent = append(recent, h)
		if len(recent) > 64 {
			recent = recent[1:]
		}
		for _, r := range recent {
			f.Contains(r)
		}
	}
	checkOccupancy(t, f, "after pressure")
	if f.Occupancy() > uint64(f.Capacity()) {
		t.Fatalf("occupancy %d exceeds capacity %d", f.Occupancy(), f.Capacity())
	}
	st := f.Stats()
	if st.KickDrops == 0 {
		t.Fatalf("pressure run never overflowed a kick chain (stats %+v)", st)
	}
	if st.KickDrops > st.Evictions {
		t.Fatalf("kick drops %d exceed evictions %d", st.KickDrops, st.Evictions)
	}
	if st.HotMarks == 0 {
		t.Fatalf("hotness churn not counted (stats %+v)", st)
	}
}

// TestMeasuredFPRateWithinAnalyticBound loads N items and probes M
// absent items: the measured false-positive rate must sit near the
// cuckoo filter's analytic bound ε ≈ load · 2b / 2^f (b slots per
// bucket, f fingerprint bits).
func TestMeasuredFPRateWithinAnalyticBound(t *testing.T) {
	f := New(4096, 3)
	for i := 0; i < 4096; i++ {
		f.Insert(hashOf(fmt.Sprintf("present-%d", i)))
	}
	before := f.Stats()
	const M = 200_000
	fps := 0
	for i := 0; i < M; i++ {
		if f.Contains(hashOf(fmt.Sprintf("absent-%d", i))) {
			fps++
		}
	}
	if probes := f.Stats().Hits + f.Stats().Misses - before.Hits - before.Misses; probes != M {
		t.Fatalf("probe accounting off: %d probes recorded, want %d", probes, M)
	}
	measured := float64(fps) / float64(M)
	analytic := f.AnalyticFPBound()
	if measured < 0.5*analytic || measured > 1.5*analytic {
		t.Fatalf("measured FP rate %.5f outside [0.5, 1.5]× analytic bound %.5f (load %.2f)",
			measured, analytic, f.Load())
	}
}
