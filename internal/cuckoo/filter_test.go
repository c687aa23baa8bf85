package cuckoo

import (
	"fmt"
	"testing"
	"testing/quick"

	"sphinx/internal/wire"
)

func hashOf(s string) uint64 { return wire.Hash64Seed([]byte(s), 7) }

func TestInsertThenContains(t *testing.T) {
	f := New(1000, 1)
	for i := 0; i < 500; i++ {
		f.Insert(hashOf(fmt.Sprintf("prefix-%d", i)))
	}
	for i := 0; i < 500; i++ {
		if !f.Contains(hashOf(fmt.Sprintf("prefix-%d", i))) {
			t.Fatalf("false negative for prefix-%d with ample capacity", i)
		}
	}
}

func TestNoFalseNegativesUnderCapacity(t *testing.T) {
	// Property: while the filter has not evicted anything, every inserted
	// item is found.
	f := New(4096, 42)
	inserted := make(map[uint64]bool)
	g := func(x uint64) bool {
		h := wire.Mix64(x)
		f.Insert(h)
		inserted[h] = true
		if f.Stats().Evictions > 0 {
			return true // eviction happened; contract no longer applies
		}
		for k := range inserted {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateUnderOnePercent(t *testing.T) {
	// The paper (§III-B) relies on the cuckoo-filter property that ~12-bit
	// fingerprints give a false-positive rate below 1%.
	const n = 50000
	f := New(n, 3)
	for i := 0; i < n; i++ {
		f.Insert(hashOf(fmt.Sprintf("member-%d", i)))
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if f.Contains(hashOf(fmt.Sprintf("non-member-%d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate >= 0.01 {
		t.Errorf("false-positive rate %.4f ≥ 1%%", rate)
	}
}

func TestDuplicateInsertIsIdempotent(t *testing.T) {
	f := New(100, 1)
	h := hashOf("LYR")
	f.Insert(h)
	f.Insert(h)
	if f.Stats().Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", f.Stats().Duplicates)
	}
	if !f.Contains(h) {
		t.Error("duplicate insert lost the entry")
	}
}

func TestDelete(t *testing.T) {
	f := New(100, 1)
	h := hashOf("LYRICS")
	f.Insert(h)
	if !f.Delete(h) {
		t.Fatal("delete of present item failed")
	}
	if f.Contains(h) {
		t.Error("item present after delete")
	}
	if f.Delete(h) {
		t.Error("second delete reported success")
	}
}

func TestHotnessSecondChance(t *testing.T) {
	// Under heavy overload with a mix of hot and cold entries, the
	// second-chance policy must resolve some inserts by evicting cold
	// entries rather than always kicking.
	g := New(32, 5) // tiny filter
	for i := 0; i < 4096; i++ {
		g.Insert(wire.Mix64(uint64(i)))
		if i%3 == 0 {
			g.Contains(wire.Mix64(uint64(i / 2))) // heat some entries
		}
	}
	st := g.Stats()
	if st.SecondWins == 0 {
		t.Error("overloaded filter never used second-chance replacement")
	}
	if st.Evictions == 0 {
		t.Error("overloaded filter reported no evictions")
	}
}

func TestHotEntriesCountsMarks(t *testing.T) {
	// Inserts enter cold; a hit marks its entry hot exactly once, and the
	// gauge's scan counts exactly the marked entries.
	const n = 500
	f := New(4*n, 9) // roomy: no eviction, no relocation
	for i := 0; i < n; i++ {
		f.Insert(hashOf(fmt.Sprintf("prefix-%d", i)))
	}
	if st := f.Stats(); st.Inserts != n || st.Duplicates != 0 || st.Evictions != 0 {
		t.Fatalf("setup: %+v; want %d distinct inserts and no eviction", st, n)
	}
	if got := f.HotEntries(); got != 0 {
		t.Fatalf("HotEntries after inserts alone = %d, want 0", got)
	}
	want := uint64(0)
	for i := 0; i < n; i += 3 {
		if !f.Contains(hashOf(fmt.Sprintf("prefix-%d", i))) {
			t.Fatalf("false negative for prefix-%d", i)
		}
		want++
	}
	if got := f.HotEntries(); got != want {
		t.Errorf("HotEntries = %d after %d distinct hits, want %d", got, want, want)
	}
	if got := f.Stats().HotMarks; got != want {
		t.Errorf("HotMarks = %d, want %d", got, want)
	}
}

func TestRelocationResetsHotness(t *testing.T) {
	// After relocations, previously hot entries must be evictable again:
	// keep inserting into a tiny filter where everything is hot.
	f := New(16, 11)
	var hs []uint64
	for i := 0; i < 64; i++ {
		h := wire.Mix64(uint64(i))
		hs = append(hs, h)
		f.Insert(h)
		for _, k := range hs {
			f.Contains(k) // heat everything present
		}
	}
	// If hotness were never reset, inserts would always end in kick
	// overflow; with second-chance resets the filter keeps functioning.
	if f.Stats().Relocations == 0 {
		t.Error("no relocations in saturated filter")
	}
	if f.Load() < 0.5 {
		t.Errorf("load %.2f collapsed; eviction policy broken", f.Load())
	}
}

func TestSizeBytes(t *testing.T) {
	f := New(1000, 1)
	// 1000/0.95/4 → 264 → rounded to 512 buckets × one 8-byte word
	// (4 slots × 16 bits). NewBytes skips the rounding; see
	// TestNewBytesWithinBudget.
	if f.SizeBytes() != 512*8 {
		t.Errorf("SizeBytes = %d", f.SizeBytes())
	}
	// ~2 bytes per tracked item keeps the paper's "succinct" claim honest.
	perItem := float64(f.SizeBytes()) / 1000
	if perItem > 8 {
		t.Errorf("%.1f bytes per item is not succinct", perItem)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func() Stats {
		f := New(64, 77)
		for i := 0; i < 2000; i++ {
			f.Insert(wire.Mix64(uint64(i)))
			if i%2 == 0 {
				f.Contains(wire.Mix64(uint64(i - 1)))
			}
		}
		return f.Stats()
	}
	if run() != run() {
		t.Error("same seed produced different filter behaviour")
	}
}

func TestZeroCapacity(t *testing.T) {
	f := New(0, 1)
	h := hashOf("x")
	f.Insert(h)
	if !f.Contains(h) {
		t.Error("minimal filter lost its only item")
	}
}

func TestLoadEmptyAndFull(t *testing.T) {
	f := New(100, 1)
	if f.Load() != 0 {
		t.Errorf("empty filter load = %f", f.Load())
	}
	for i := 0; i < 100; i++ {
		f.Insert(wire.Mix64(uint64(i)))
	}
	if f.Load() == 0 {
		t.Error("filter load still zero after inserts")
	}
}

func TestFingerprintNeverZero(t *testing.T) {
	for i := uint64(0); i < 100000; i++ {
		if fp(i<<48) == 0 {
			t.Fatalf("zero fingerprint for hash %#x", i<<48)
		}
	}
}

func TestAltIndexIsInvolution(t *testing.T) {
	f := New(1024, 1)
	g := func(h uint64) bool {
		tb := f.tab.Load()
		fpv := fp(h)
		i1 := tb.index(h)
		i2 := tb.altIndex(i1, fpv)
		return tb.altIndex(i2, fpv) == i1
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormat(t *testing.T) {
	f := New(10, 1)
	if f.String() == "" {
		t.Error("empty String()")
	}
}

// TestSecondChanceKeepsHotSet: under capacity pressure with a skewed access
// pattern, the hotness bit keeps the hot set resident — the design rationale
// of paper §III-B's second-chance mechanism. On this stream second chance
// hits the hot set every time; random replacement, which ignores the bit,
// hits it about 0.87 of the time, so a probe that stops setting the bit
// fails the floor.
func TestSecondChanceKeepsHotSet(t *testing.T) {
	f := New(256, 5)
	// Hot set: 64 items, touched constantly. Cold stream: churn.
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = wire.Mix64(uint64(i) + 1)
		f.Insert(hot[i])
	}
	hits := 0
	probes := 0
	for step := 0; step < 20000; step++ {
		// Touch hot items to keep their bits set.
		h := hot[step%len(hot)]
		probes++
		if f.Contains(h) {
			hits++
		} else {
			f.Insert(h) // re-learn on miss, as Sphinx does
		}
		// Cold pressure.
		f.Insert(wire.Mix64(uint64(step) * 0x9e3779b97f4a7c15))
	}
	if rate := float64(hits) / float64(probes); rate < 0.99 {
		t.Errorf("second-chance hot hit rate %.3f under pressure, want ≥ 0.99", rate)
	}
}
