package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// TestLACWordPacking: the packed word must round-trip every field for
// representative corner values — the present bit, the 8-bit unit count, the
// 13-bit fingerprint and every 64-byte-aligned address up to node 255 and the
// largest offset — the zero word must never look like a valid entry, and an
// address the packed form cannot hold is dropped by Learn, never stored
// truncated (a truncated address would aim speculative reads at some other
// object).
func TestLACWordPacking(t *testing.T) {
	const lastLine = mem.MaxOffset &^ (mem.LineSize - 1)
	cases := []struct {
		addr  mem.Addr
		units uint8
		fp    uint64
	}{
		{mem.NewAddr(0, 0), 1, 0}, // the smallest word is still not the empty word
		{mem.NewAddr(0, 64), 1, 0},
		{mem.NewAddr(1, 0), 1, lacFPMask},
		{mem.NewAddr(255, lastLine), 255, 0x1555},
		{mem.NewAddr(3, 0xdead_bec0), 17, 0x0aaa},
	}
	for _, tc := range cases {
		w, ok := packLACWord(lacPresentBit|tc.fp<<lacFPShift, tc.addr, tc.units)
		if !ok {
			t.Errorf("pack(%v,%d,%#x): refused a representable address", tc.addr, tc.units, tc.fp)
			continue
		}
		if w&lacPresentBit == 0 {
			t.Errorf("pack(%v,%d,%#x): present bit clear", tc.addr, tc.units, tc.fp)
		}
		if got := lacAddr(w); got != tc.addr {
			t.Errorf("pack(%v,%d,%#x): addr round-trips to %v", tc.addr, tc.units, tc.fp, got)
		}
		if got := lacUnits(w); got != tc.units {
			t.Errorf("pack(%v,%d,%#x): units round-trips to %d", tc.addr, tc.units, tc.fp, got)
		}
		if got := (w >> lacFPShift) & lacFPMask; got != tc.fp {
			t.Errorf("pack(%v,%d,%#x): fp round-trips to %#x", tc.addr, tc.units, tc.fp, got)
		}
	}
	if lacTagMask&lacAddrMask != 0 || lacTagMask|lacAddrMask|0xff<<lacUnitsShift != ^uint64(0) {
		t.Error("present, units, fingerprint and address fields do not tile the word")
	}

	lc := NewLeafCache(64, 1)
	key := []byte("alpha")
	for _, addr := range []mem.Addr{
		mem.NewAddr(2, 4096+8),          // 8-byte aligned only: a node-class object
		mem.NewAddr(255, mem.MaxOffset), // unaligned last byte
		mem.Addr(1)<<mem.AddrBits | 64,  // above the 48 address bits
		mem.NewAddr(3, 0xdead_beef),
	} {
		if _, ok := packLACWord(lacPresentBit, addr, 1); ok {
			t.Errorf("pack(%#x): accepted an unrepresentable address", uint64(addr))
		}
		lc.Learn(key, addr, 1)
		if got, _, ok := lc.Lookup(key); ok {
			t.Errorf("Learn(%#x) stored %v: an unrepresentable address must be dropped", uint64(addr), got)
		}
		lc.UnlearnAt(key, addr) // must not match anything either
	}
	if occupied, _, _ := lc.Occupancy(); occupied != 0 || lc.Stats() != (LACStats{}) {
		t.Errorf("dropped learns left occupancy %d, stats %+v", occupied, lc.Stats())
	}
}

// lacBucketOf returns the index of key's bucket.
func lacBucketOf(lc *LeafCache, key []byte) int {
	bucket, _ := lc.bucketTag(key)
	for base := 0; ; base += lacWays {
		if &lc.words[base] == &bucket[0] {
			return base / lacWays
		}
	}
}

// lacBucketKeys returns n keys named prefix-<i> that all fall into the given
// bucket, with pairwise distinct fingerprints.
func lacBucketKeys(lc *LeafCache, prefix string, bucket, n int) [][]byte {
	var keys [][]byte
	tags := map[uint64]bool{}
	for i := 0; len(keys) < n; i++ {
		cand := []byte(fmt.Sprintf("%s-%d", prefix, i))
		if _, tag := lc.bucketTag(cand); lacBucketOf(lc, cand) == bucket && !tags[tag] {
			tags[tag] = true
			keys = append(keys, cand)
		}
	}
	return keys
}

// TestLACLearnLookupUnlearn: the basic hint lifecycle, including that a
// bucket holds lacWays keys without loss, that only a learn into a FULL
// bucket displaces another key's entry (and counts an eviction), and that
// an unlearn is fingerprint-checked (an unlearn for a displaced key A must
// not remove the entry that took its way).
func TestLACLearnLookupUnlearn(t *testing.T) {
	lc := NewLeafCache(64, 1)
	key := []byte("alpha")
	addr := mem.NewAddr(2, 4096)

	if _, _, ok := lc.Lookup(key); ok {
		t.Fatal("empty cache claims an opinion")
	}
	lc.Learn(key, addr, 3)
	gotAddr, gotUnits, ok := lc.Lookup(key)
	if !ok || gotAddr != addr || gotUnits != 3 {
		t.Fatalf("Lookup after Learn = (%v, %d, %v), want (%v, 3, true)", gotAddr, gotUnits, ok, addr)
	}

	// Re-learning the same key updates in place: no eviction counted, no
	// second way taken.
	lc.Learn(key, addr, 5)
	if _, gotUnits, _ := lc.Lookup(key); gotUnits != 5 {
		t.Fatalf("re-Learn did not update units: got %d", gotUnits)
	}
	if occupied, _, _ := lc.Occupancy(); occupied != 1 {
		t.Fatalf("same-key re-learn occupies %d ways, want 1", occupied)
	}

	// Seven more keys of alpha's bucket fill it; nobody is displaced.
	_, tagA := lc.bucketTag(key)
	var others [][]byte
	for _, k := range lacBucketKeys(lc, "other", lacBucketOf(lc, key), lacWays+1) {
		if _, tag := lc.bucketTag(k); tag != tagA && len(others) < lacWays {
			others = append(others, k)
		}
	}
	residents := append([][]byte{key}, others[:lacWays-1]...)
	for i, k := range others[:lacWays-1] {
		lc.Learn(k, mem.NewAddr(1, uint64(i+1)*128), 2)
	}
	for _, k := range residents {
		if _, _, ok := lc.Lookup(k); !ok {
			t.Fatalf("%q lost its entry in a bucket of %d keys", k, lacWays)
		}
	}
	if _, _, full := lc.Occupancy(); full != 1 {
		t.Fatalf("full buckets = %d, want 1", full)
	}
	if st := lc.Stats(); st.Evictions != 0 {
		t.Fatalf("filling a bucket counted %d evictions", st.Evictions)
	}

	// The ninth key finds the bucket full: it displaces exactly one resident.
	ninth := others[lacWays-1]
	lc.Learn(ninth, mem.NewAddr(1, 64), 2)
	if _, _, ok := lc.Lookup(ninth); !ok {
		t.Fatal("a learn into a full bucket was not stored")
	}
	var displaced []byte
	for _, k := range residents {
		if _, _, ok := lc.Lookup(k); !ok {
			if displaced != nil {
				t.Fatalf("one learn displaced both %q and %q", displaced, k)
			}
			displaced = k
		}
	}
	if displaced == nil {
		t.Fatal("nine keys answer from an eight-way bucket")
	}
	if st := lc.Stats(); st.Evictions != 1 {
		t.Fatalf("eviction count = %d, want 1", st.Evictions)
	}

	// Unlearning the displaced key must NOT clobber the way's new owner, in
	// either form.
	lc.Unlearn(displaced)
	lc.UnlearnAt(displaced, mem.NewAddr(1, 64))
	if _, _, ok := lc.Lookup(ninth); !ok {
		t.Fatal("unlearn of a displaced key removed the way's new owner")
	}
	if st := lc.Stats(); st.Unlearns != 0 {
		t.Fatalf("unlearn count = %d, want 0 (fp-mismatched unlearn must not count)", st.Unlearns)
	}
	lc.Unlearn(ninth)
	if _, _, ok := lc.Lookup(ninth); ok {
		t.Fatal("entry survives its own unlearn")
	}
	for _, k := range residents {
		lc.Unlearn(k)
	}
	if st := lc.Stats(); st.Unlearns != lacWays {
		t.Fatalf("unlearn count = %d, want %d", st.Unlearns, lacWays)
	}
	if occupied, _, full := lc.Occupancy(); occupied != 0 || full != 0 {
		t.Fatalf("occupancy = %d (%d full buckets) after full unlearn, want 0", occupied, full)
	}
}

// TestLACRefutationUnlearnsOnlyTheRefutedAddress: the cache is shared by the
// workers of a CN, so between one worker's Lookup and its refuted read another
// may learn the key's NEW address (an out-of-place update, a hot-record
// refresh). The refutation owes the removal of the word it was refuted on,
// not of whatever carries the key's fingerprint by then — that would cost the
// next access a full descent (or a re-promotion). Fails with a key-only
// unlearn.
func TestLACRefutationUnlearnsOnlyTheRefutedAddress(t *testing.T) {
	lc := NewLeafCache(64, 1)
	key := []byte("moving-key")
	addr1, addr2 := mem.NewAddr(1, 4096), mem.NewAddr(2, 8192)
	lc.Learn(key, addr1, 2)
	read, _, ok := lc.Lookup(key) // worker A: about to read addr1
	if !ok || read != addr1 {
		t.Fatalf("Lookup = %v, %v", read, ok)
	}
	lc.Learn(key, addr2, 3) // worker B: moved the leaf, learned where to
	lc.UnlearnAt(key, read) // worker A: addr1 was refuted
	if got, units, ok := lc.Lookup(key); !ok || got != addr2 || units != 3 {
		t.Fatalf("after the refutation of %v: Lookup = (%v, %d, %v), want the fresher (%v, 3, true)",
			addr1, got, units, ok, addr2)
	}
	if st := lc.Stats(); st.Unlearns != 0 {
		t.Fatalf("Unlearns = %d, want 0", st.Unlearns)
	}
	// With nothing fresher in the way, the same call removes the entry —
	// whatever size it was learned with.
	lc.UnlearnAt(key, addr2)
	if _, _, ok := lc.Lookup(key); ok {
		t.Fatal("a refuted entry survived its unlearn")
	}
}

// TestLACSameFingerprintPair: two keys of one bucket that also share the 13
// fingerprint bits cannot be told apart by the cache, only by verification.
// Each key's learn lands on the word carrying their tag, and when both have a
// word in the bucket (two learns racing for an empty way leave that behind)
// the later key's lookup answers the stranger's. Refuting it removes exactly
// that word: the key's own survives and answers next.
func TestLACSameFingerprintPair(t *testing.T) {
	lc := NewLeafCache(64, 1)
	owner := []byte("pair-0")
	bucket, tag := lc.bucketTag(owner)
	var stranger []byte
	for i := 1; stranger == nil; i++ {
		cand := []byte(fmt.Sprintf("pair-%d", i))
		if b, tg := lc.bucketTag(cand); &b[0] == &bucket[0] && tg == tag {
			stranger = cand
		}
	}
	addrS, addrO := mem.NewAddr(1, 64), mem.NewAddr(1, 128)

	// Sequentially the two share one word: last learner wins, the other is
	// refuted on it and takes it over.
	lc.Learn(stranger, addrS, 1)
	lc.Learn(owner, addrO, 1)
	if occupied, _, _ := lc.Occupancy(); occupied != 1 {
		t.Fatalf("a same-fingerprint pair occupies %d ways, want 1", occupied)
	}
	if got, _, _ := lc.Lookup(stranger); got != addrO {
		t.Fatalf("Lookup(stranger) = %v, want the owner's %v", got, addrO)
	}

	// Both present: the stranger's word in an earlier way than the owner's.
	lc.Reset()
	lc.Learn(stranger, addrS, 1)
	wordO, _ := packLACWord(tag, addrO, 1)
	bucket[lacWays-1] = wordO
	got, _, ok := lc.Lookup(owner)
	if !ok || got != addrS {
		t.Fatalf("Lookup(owner) = %v, %v; want the stranger's %v first", got, ok, addrS)
	}
	lc.UnlearnAt(owner, got) // verification refuted it: not the owner's leaf
	if got, _, ok := lc.Lookup(owner); !ok || got != addrO {
		t.Fatalf("after refuting the stranger's word: Lookup(owner) = %v, %v; want its own %v", got, ok, addrO)
	}
	if st := lc.Stats(); st.Unlearns != 1 {
		t.Fatalf("Unlearns = %d, want 1", st.Unlearns)
	}
}

// TestLACNoConflictMisses: a cache provisioned 4x over its key set holds all
// of it: a key is lost only when more than eight share a bucket
// (P[Poisson(2) > 8] = 0.02 %) or two share bucket and fingerprint. (One word
// per hash slot would answer for (1-e^-λ)/λ = 88.5 % of them, λ = 1/4.)
func TestLACNoConflictMisses(t *testing.T) {
	lc := NewLeafCache(1<<16, 7)
	rng := rand.New(rand.NewSource(42))
	n := lc.Entries() / 4
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%016x", rng.Uint64()))
		lc.Learn(keys[i], mem.NewAddr(1, uint64(i+1)*64), 1)
	}
	answered := 0
	for i, k := range keys {
		if addr, _, ok := lc.Lookup(k); ok && addr == mem.NewAddr(1, uint64(i+1)*64) {
			answered++
		}
	}
	if share := float64(answered) / float64(n); share < 0.999 {
		t.Errorf("%d of %d keys answer after one learn each (%.4f), want >= 0.999", answered, n, share)
	}
	if st := lc.Stats(); st.Evictions > uint64(n)/1000 {
		t.Errorf("%d evictions at a quarter of capacity", st.Evictions)
	}
	if _, _, full := lc.Occupancy(); full > uint64(n)/1000 {
		t.Errorf("%d full buckets at a quarter of capacity", full)
	}
}

// TestLACCapacityBound: associativity must not change what a cache far
// smaller than its working set delivers. Under a uniform trace over 7x
// capacity keys — every miss relearned, every false match refuted, as Search
// does — the hit share is capacity/keys under any mapping (the read-cold
// workload's must-not-move property), and false matches stay rare.
func TestLACCapacityBound(t *testing.T) {
	lc := NewLeafCache(4096, 3)
	n := 7 * lc.Entries()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold-%07d", i))
	}
	addrOf := func(i int) mem.Addr { return mem.NewAddr(mem.NodeID(i%3), uint64(i+1)*64) }
	rng := rand.New(rand.NewSource(9))
	const warm, measured = 100_000, 400_000
	hits, refutes := 0, 0
	for op := 0; op < warm+measured; op++ {
		i := rng.Intn(n)
		addr, _, ok := lc.Lookup(keys[i])
		switch {
		case ok && addr == addrOf(i):
			if op >= warm {
				hits++
			}
			continue
		case ok:
			lc.UnlearnAt(keys[i], addr)
			if op >= warm {
				refutes++
			}
		}
		lc.Learn(keys[i], addrOf(i), 1)
	}
	want := float64(lc.Entries()) / float64(n)
	if got := float64(hits) / measured; got < want-0.01 || got > want+0.01 {
		t.Errorf("hit share %.4f over %d keys in %d entries, want %.4f ± 0.01", got, n, lc.Entries(), want)
	}
	// A full bucket offers eight 13-bit fingerprints to every probe.
	if got := float64(refutes) / measured; got > 1.5*lacWays/float64(lacFPMask+1) {
		t.Errorf("false-match share %.5f, want <= %.5f", got, 1.5*lacWays/float64(lacFPMask+1))
	}
	if occupied, capacity, full := lc.Occupancy(); occupied < capacity*95/100 || full < capacity/lacWays*3/4 {
		t.Errorf("occupancy %d of %d, %d full buckets: a saturated cache should be nearly full", occupied, capacity, full)
	}
}

// TestLACBytesBudget: the byte-budget constructor must never exceed its
// budget (power-of-two rounded DOWN) and must respect the 64-entry floor.
func TestLACBytesBudget(t *testing.T) {
	for _, budget := range []uint64{0, 100, 512, 8 << 10, 512 << 10, (512 << 10) + 8, 1 << 20} {
		lc := NewLeafCacheBytes(budget, 1)
		if lc.SizeBytes() > budget && budget >= 64*8 {
			t.Errorf("budget %d: cache uses %d bytes", budget, lc.SizeBytes())
		}
		if lc.Entries() < 64 {
			t.Errorf("budget %d: %d entries, want >= 64", budget, lc.Entries())
		}
		if n := lc.Entries(); n&(n-1) != 0 {
			t.Errorf("budget %d: %d entries not a power of two", budget, n)
		}
	}
	if got := NewLeafCacheBytes(512<<10, 1).Entries(); got != 64<<10 {
		t.Errorf("512 KiB budget = %d entries, want %d", got, 64<<10)
	}
}

// TestLACConcurrentChurn: all operations are single-word atomics; under
// -race, concurrent learns, unlearns and lookups over a colliding key set
// must be clean, and any lookup that returns ok must return a word some
// learner actually wrote (no torn reads).
func TestLACConcurrentChurn(t *testing.T) {
	lc := NewLeafCache(64, 1) // small: plenty of slot collisions
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := []byte(fmt.Sprintf("churn-%d", i%97))
				switch (w + i) % 3 {
				case 0:
					lc.Learn(key, mem.NewAddr(mem.NodeID(w), uint64(i+1)*64), uint8(w+1))
				case 1:
					lc.Unlearn(key)
				default:
					if addr, units, ok := lc.Lookup(key); ok {
						if addr == 0 || units == 0 || units > workers {
							t.Errorf("torn lookup: addr=%v units=%d", addr, units)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := lc.Stats()
	if st.Learns == 0 {
		t.Fatal("no learns recorded")
	}
}

// TestLACBucketHammer: four workers of one CN learn, look up and refute a
// key set confined to two buckets — more keys than ways, so learns displace
// each other, race for empty ways and leave duplicates. Every entry is one
// atomically accessed word, so under -race the run is clean and every answer
// is a whole word some Learn wrote for that fingerprint (each key's learns
// carry the key's identity in the node and unit fields); the bucket never
// holds more than its ways; and the duplicates a race left behind drain one
// exact unlearn at a time.
func TestLACBucketHammer(t *testing.T) {
	lc := NewLeafCache(64, 5)
	keys := append(lacBucketKeys(lc, "hammer", 0, 12), lacBucketKeys(lc, "hammer", 1, 12)...)
	const workers, rounds, versions = 4, 20_000, 1 << 10
	written := func(i int, addr mem.Addr, units uint8) bool {
		ver := addr.Offset() / 64
		return int(addr.Node()) == i && int(units) == i+1 && addr.Offset()%64 == 0 && ver >= 1 && ver <= versions
	}
	var answers atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(len(keys))
				addr, units, ok := lc.Lookup(keys[i])
				if ok {
					answers.Add(1)
					if !written(i, addr, units) {
						t.Errorf("Lookup(%q) = (%v, %d): no Learn wrote that for key %d", keys[i], addr, units, i)
						return
					}
				}
				switch {
				case ok && rng.Intn(4) == 0: // the read at addr was refuted
					lc.UnlearnAt(keys[i], addr)
				case !ok || rng.Intn(4) == 0: // a miss, or the leaf moved
					lc.Learn(keys[i], mem.NewAddr(mem.NodeID(i), uint64(1+rng.Intn(versions))*64), uint8(i+1))
				}
			}
		}(w)
	}
	wg.Wait()
	if answers.Load() == 0 {
		t.Fatal("no lookup ever answered")
	}
	occupied, _, full := lc.Occupancy()
	if occupied > 2*lacWays || full > 2 {
		t.Fatalf("two buckets hold %d entries (%d full buckets)", occupied, full)
	}
	for _, w := range lc.words[2*lacWays:] {
		if w != 0 {
			t.Fatalf("an entry escaped its bucket: %#x", w)
		}
	}
	// Drain: refute whatever still answers, one exact word at a time.
	for i, k := range keys {
		for n := 0; ; n++ {
			addr, units, ok := lc.Lookup(k)
			if !ok {
				break
			}
			if n == lacWays {
				t.Fatalf("%q still answers after %d exact unlearns", k, n)
			}
			if !written(i, addr, units) {
				t.Fatalf("Lookup(%q) = (%v, %d): no Learn wrote that for key %d", k, addr, units, i)
			}
			lc.UnlearnAt(k, addr)
		}
	}
	if occupied, _, _ := lc.Occupancy(); occupied != 0 {
		t.Fatalf("%d entries answer to no key of the set", occupied)
	}
	if st := lc.Stats(); st.Learns == 0 || st.Unlearns == 0 || st.Evictions == 0 {
		t.Fatalf("hammer exercised too little: %+v", st)
	}
}

// TestWarmReadBudget: the read-warm floor. A working set a quarter of the
// cache's entries is held whole, so once a first pass has taught the cache,
// every Get of a second pass is exactly one round trip — the verified read at
// the cached address, never a key that lost its entry to a hash neighbour
// and pays the 3-RT descent.
func TestWarmReadBudget(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 4096)
	lac := NewLeafCache(8192, 1)
	c := newTestClient(f, shared, Options{LeafCache: lac})
	keys := make([][]byte, lac.Entries()/4)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("warm-%06d", i*7919))
		if _, err := c.Insert(keys[i], keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		warmSearch(t, c, k, k)
	}
	rt0, st0 := c.eng.C.RoundTrips(), c.Stats()
	for _, k := range keys {
		warmSearch(t, c, k, k)
	}
	rts, st := c.eng.C.RoundTrips()-rt0, c.Stats()
	if n := uint64(len(keys)); rts != n || st.SpecHits-st0.SpecHits != n {
		_, _, full := lac.Occupancy()
		t.Errorf("second pass over %d keys: %d round trips, %d hits, %d misses, %d refutes (%d full buckets, %+v); want one verified read each",
			n, rts, st.SpecHits-st0.SpecHits, st.SpecMisses-st0.SpecMisses, st.SpecRefutes-st0.SpecRefutes, full, lac.Stats())
	}
}
