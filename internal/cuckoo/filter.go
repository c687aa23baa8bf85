// Package cuckoo implements the succinct data structure at the heart of the
// paper's Succinct Filter Cache (§III-B): a cuckoo filter [14] extended
// with a per-entry hotness bit driving a second-chance replacement policy
// [24], so the filter doubles as a bounded cache of "which inner-node
// prefixes exist".
//
// Entries are 16 bits: a 12-bit fingerprint (never zero; zero means empty),
// one hotness bit, and spare. With 4-way buckets this is ~2 bytes per
// tracked prefix versus the 40–2056 bytes per node of node-based caching —
// the space argument of the paper.
//
// A filter's byte budget is a ceiling, not an allocation: a filter may start
// smaller and double toward it (NewGrowing).
//
// The filter is safe for concurrent use by all workers of a compute node,
// and Contains takes no lock: each 4-slot bucket is one 64-bit word mutated
// only by whole-word compare-and-swap, so a reader can never observe a torn
// fingerprint. Races are resolved in the direction that is always safe for
// a cache — a lost race may drop an entry or a hotness mark, both re-learned
// on the next traversal. A doubling swaps in a new table with one more
// compare-and-swap, on the filter's table pointer. See DESIGN.md §5.10 for
// the word layout, the per-operation CAS protocols and the doubling.
package cuckoo

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// SlotsPerBucket is the filter's bucket width. Four slots is the standard
// cuckoo-filter configuration [14] and what MemC3-style analyses assume;
// it is also exactly what packs one bucket into a single atomic uint64.
const SlotsPerBucket = 4

// MaxKicks bounds a cuckoo relocation chain before the insert falls back
// to evicting the displaced victim outright. Because the structure is a
// cache, dropping an entry is always safe (it can be re-learned on the
// next traversal); it just costs extra round trips later.
const MaxKicks = 128

const (
	fpBits = 12
	fpMask = 1<<fpBits - 1
	hotBit = 1 << fpBits

	slotBits = 16
	slotMask = 1<<slotBits - 1
)

// maxSpins bounds the CAS retry loops of Insert and Delete. Exhausting it
// means the bucket pair is under heavy concurrent mutation and the
// operation gives up — benign for a cache (the entry is re-learned, or
// re-unlearned, on the next traversal). Single-threaded, no CAS ever
// fails, so the bound is never reached.
const maxSpins = 8

// Stats is a snapshot of the filter's event counters, including
// everything the paper's text evaluates (false-positive probes are
// counted by the caller; eviction pressure is visible here).
type Stats struct {
	Inserts     uint64 // successful inserts
	Duplicates  uint64 // inserts of already-present fingerprints
	Hits        uint64 // Contains == true
	Misses      uint64 // Contains == false
	SecondWins  uint64 // inserts resolved by replacing a cold (hot=0) entry
	Relocations uint64 // entries moved by cuckoo kicks
	Evictions   uint64 // entries dropped (cold replacement, kick overflow or a doubling)
	KickDrops   uint64 // evictions caused by kick-chain overflow specifically
	HotMarks    uint64 // cold→hot transitions (hotness-bit churn)
	Deletes     uint64 // successful deletes
	Grows       uint64 // doublings
	GrowDrops   uint64 // evictions by doublings: the entries of the tables they replaced
}

// counter is an atomic event counter padded out to its own cache line:
// different operations bump different counters concurrently, and exact
// telemetry must not reintroduce the cross-worker sharing the lock-free
// rewrite removed.
type counter struct {
	atomic.Uint64
	_ [56]byte
}

// Filter is a cuckoo filter with hotness-based second-chance eviction,
// safe for concurrent use without external locking. The paper's filter
// cache is per-CN and shared by that CN's workers; the sphinx core hands
// this structure to them directly.
type Filter struct {
	// rng is the shared replacement-randomness state: a Weyl sequence
	// advanced by one wait-free atomic add per decision. Concurrent
	// callers may draw from the same state value — that merely correlates
	// two replacement choices; single-threaded use stays deterministic.
	rng counter
	// Event counters, one cache line each (see counter).
	inserts, duplicates, hits, misses, secondWins counter
	relocations, evictions, kickDrops             counter
	hotMarks, deletes                             counter
	// budget is the bucket count of the last table on the doubling
	// schedule; tab names the current table.
	budget uint64
	tab    atomic.Pointer[table]
	// growing admits one doubling at a time: every insert that claims a
	// slot past half a table calls grow until the new table is stored, and
	// only the one holding growing allocates it; the others return.
	growing sync.Mutex
}

// table is one size of the filter: one 64-bit word per bucket, 4 slots ×
// 16 bits, slot s in bits [16s, 16s+16). All mutations are whole-word CAS.
type table struct {
	nBuckets uint64
	buckets  []atomic.Uint64
	// occupied is the table's live occupied-slot gauge, maintained
	// symmetrically by tying every movement to exactly one successful CAS
	// transition: empty→full adds one, full→empty subtracts one,
	// full→full overwrites (evictions, kicks) are net zero. The churn tests
	// cross-check it against a full scan and against
	// inserts−evictions−deletes, in both single-threaded and
	// hammered-concurrent runs.
	occupied *counter
	// dropped holds the gauges of the tables the doublings replaced, oldest
	// first: what they hold is what the doublings dropped. A mutation that
	// loaded a table before its doubling lands in it and moves its gauge,
	// so the drops stay exact without a lock on the mutations.
	dropped []*counter
}

// New creates a filter with capacity for at least n entries at ~95% load.
// Seed makes replacement decisions deterministic for reproducible
// experiments. The bucket count is rounded up to a power of two: because the
// filter evicts a cold entry whenever an insert finds both candidate buckets
// full (cache semantics — it does not kick unless everything is hot),
// "capacity for n entries" needs slack beyond the raw slot count so that
// full bucket pairs stay improbable while n entries are live.
func New(n int, seed uint64) *Filter {
	if n < 1 {
		n = 1
	}
	want := uint64(float64(n)/0.95)/SlotsPerBucket + 1
	nb := uint64(1)
	for nb < want {
		nb <<= 1
	}
	return newFilter(nb, nb, seed)
}

// NewBytes creates a filter whose entry array fills the byte budget as
// closely as possible without exceeding it. Bucket counts are not
// constrained to powers of two (the index is a multiplicative range
// reduction and the partner bucket a subtractive involution, both of which
// work for any modulus), so SizeBytes() lands within one 8-byte bucket word
// of the budget.
func NewBytes(budget uint64, seed uint64) *Filter {
	return newFilter(budget/8, budget/8, seed)
}

// NewGrowing creates a second-chance filter whose byte budget is a ceiling:
// it starts at the smallest size on its doubling schedule with two slots per
// expected entry (4 bytes each) and doubles once half its slots are
// occupied. The schedule is the budget's bucket count halved down to that
// start, so the last table lands within 2^doublings bucket words of the
// budget — exactly on a power-of-two budget. With more entries expected
// than the budget holds at two slots each, the filter starts at the budget.
// SizeBytes reports the current table; during a doubling the old one stays
// allocated until it is collected, so memory briefly peaks at 1.5× the new
// table.
func NewGrowing(expected int, budget, seed uint64) *Filter {
	start, doublings := budget/8, 0
	for start/2*SlotsPerBucket >= 2*uint64(max(expected, 1)) {
		start, doublings = start/2, doublings+1
	}
	return newFilter(start, start<<doublings, seed)
}

func newFilter(start, budget uint64, seed uint64) *Filter {
	f := &Filter{budget: max(budget, 1)}
	f.tab.Store(newTable(max(start, 1)))
	f.rng.Store(seed | 1)
	return f
}

func newTable(nb uint64) *table {
	return &table{nBuckets: nb, buckets: make([]atomic.Uint64, nb), occupied: new(counter)}
}

// SizeBytes returns the memory footprint of the filter's current entry
// array — the number the CN-side cache budget is charged with.
func (f *Filter) SizeBytes() uint64 { return f.tab.Load().nBuckets * 8 }

// Capacity returns the number of slots in the filter's current table.
func (f *Filter) Capacity() int { return int(f.tab.Load().nBuckets * SlotsPerBucket) }

// Stats returns a snapshot of the filter's counters.
func (f *Filter) Stats() Stats {
	var drops uint64
	t := f.tab.Load()
	for _, d := range t.dropped {
		drops += d.Load()
	}
	return Stats{
		Inserts:     f.inserts.Load(),
		Duplicates:  f.duplicates.Load(),
		Hits:        f.hits.Load(),
		Misses:      f.misses.Load(),
		SecondWins:  f.secondWins.Load(),
		Relocations: f.relocations.Load(),
		Evictions:   f.evictions.Load() + drops,
		KickDrops:   f.kickDrops.Load(),
		HotMarks:    f.hotMarks.Load(),
		Deletes:     f.deletes.Load(),
		Grows:       uint64(len(t.dropped)),
		GrowDrops:   drops,
	}
}

// Occupancy returns the current number of occupied slots, maintained
// incrementally (no scan).
func (f *Filter) Occupancy() uint64 { return f.tab.Load().occupied.Load() }

// fp derives the non-zero 12-bit fingerprint from a 64-bit item hash.
func fp(hash uint64) uint16 {
	v := uint16(hash>>48) & fpMask
	if v == 0 {
		v = 1
	}
	return v
}

// index derives the primary bucket from the item hash. The hash is
// remixed before the range reduction: reduce consumes the value's high
// bits, which in the raw hash are the fingerprint bits, and a bucket
// index correlated with its own fingerprint would collapse the filter's
// false-positive behaviour.
func (t *table) index(hash uint64) uint64 { return reduce(mix(hash), t.nBuckets) }

// altIndex derives the partner bucket from a bucket and a fingerprint
// (partial-key cuckoo hashing). Instead of the classic XOR trick, which
// requires a power-of-two bucket count, it uses the subtractive form
// i2 = (h(fp) − i1) mod n — an involution for any n, which is what lets
// NewBytes hit arbitrary byte budgets exactly.
func (t *table) altIndex(i uint64, fingerprint uint16) uint64 {
	d := reduce(mix(uint64(fingerprint)), t.nBuckets) + t.nBuckets - i
	if d >= t.nBuckets {
		d -= t.nBuckets
	}
	return d
}

// reduce maps a 64-bit value uniformly onto [0, n) without division
// (Lemire's multiplicative range reduction).
func reduce(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// slotOf extracts slot s from a bucket word.
func slotOf(w uint64, s int) uint16 { return uint16(w >> (uint(s) * slotBits)) }

// withSlot returns the bucket word with slot s replaced by e.
func withSlot(w uint64, s int, e uint16) uint64 {
	sh := uint(s) * slotBits
	return w&^(uint64(slotMask)<<sh) | uint64(e)<<sh
}

// Contains reports whether an item with the given hash may be present: two
// atomic bucket loads on the read path. A hit on a cold entry additionally
// attempts one best-effort CAS to set the hotness bit (second-chance
// "recently used" mark, paper §III-B); if the bucket changed underneath,
// the mark is skipped — losing a hot-mark is harmless and the next hit
// retries.
func (f *Filter) Contains(hash uint64) bool {
	t := f.tab.Load()
	fpv := fp(hash)
	i1 := t.index(hash)
	// The alternate index is derived lazily: most hits land in the
	// primary bucket, and altIndex costs a multiply-mix the hot read
	// path shouldn't pay unless the primary probe comes up empty.
	if f.probe(t, i1, fpv) {
		f.hits.Add(1)
		return true
	}
	if f.probe(t, t.altIndex(i1, fpv), fpv) {
		f.hits.Add(1)
		return true
	}
	f.misses.Add(1)
	return false
}

// HotEntries returns the current number of hot-marked entries: one full
// scan of atomic bucket loads, safe concurrently with mutation but a moving
// snapshot (an entry hot-marked or evicted mid-scan may or may not count).
// Intended for gauges, not per-op paths.
func (f *Filter) HotEntries() uint64 {
	var n uint64
	t := f.tab.Load()
	for b := range t.buckets {
		w := t.buckets[b].Load()
		for s := 0; s < SlotsPerBucket; s++ {
			if e := slotOf(w, s); e&fpMask != 0 && e&hotBit != 0 {
				n++
			}
		}
	}
	return n
}

// probe scans one bucket for fpv and hot-marks a cold match (one
// best-effort CAS, skipped on contention).
func (f *Filter) probe(t *table, b uint64, fpv uint16) bool {
	w := t.buckets[b].Load()
	for s := 0; s < SlotsPerBucket; s++ {
		e := slotOf(w, s)
		if e&fpMask == fpv {
			if e&hotBit == 0 && t.buckets[b].CompareAndSwap(w, withSlot(w, s, e|hotBit)) {
				f.hotMarks.Add(1)
			}
			return true
		}
	}
	return false
}

// claim puts fpv into a free slot of the emptier of buckets i1 and i2 (i1
// on a tie). full: both buckets are full; otherwise won reports the CAS,
// which loses when a racing writer changed the bucket.
func (t *table) claim(i1, i2 uint64, fpv uint16) (full, won bool) {
	b, w := i1, t.buckets[i1].Load()
	s, n := empties(w)
	w2 := t.buckets[i2].Load()
	if s2, n2 := empties(w2); n2 > n {
		b, w, s = i2, w2, s2
	}
	if s < 0 {
		return true, false
	}
	return false, t.buckets[b].CompareAndSwap(w, withSlot(w, s, fpv))
}

// empties returns a bucket word's first empty slot (-1 when it is full)
// and how many it has.
func empties(w uint64) (first, n int) {
	first = -1
	for s := SlotsPerBucket - 1; s >= 0; s-- {
		if slotOf(w, s) == 0 {
			first, n = s, n+1
		}
	}
	return first, n
}

// Insert adds an item by hash. It returns false only if the item could not
// be stored — kick-chain overflow, or (under concurrency) persistent CAS
// contention — which, for a cache, still leaves the filter correct; the
// return value exists for accounting. Duplicate fingerprints in the
// candidate buckets are not re-inserted. An insert that leaves half the
// slots of a table short of the budget occupied doubles it.
func (f *Filter) Insert(hash uint64) bool {
	t := f.tab.Load()
	ok, claimed := f.insert(t, hash)
	if claimed && t.nBuckets < f.budget && 2*t.occupied.Load() >= t.nBuckets*SlotsPerBucket {
		f.grow(t)
	}
	return ok
}

// insert is Insert on table t; claimed reports an empty slot taken.
func (f *Filter) insert(t *table, hash uint64) (ok, claimed bool) {
	fpv := fp(hash)
	i1 := t.index(hash)
	i2 := t.altIndex(i1, fpv)
	for spin := 0; spin < maxSpins; spin++ {
		// Already present (same fp in a candidate bucket) → refresh
		// hotness, best effort like Contains.
		if f.probe(t, i1, fpv) || f.probe(t, i2, fpv) {
			f.duplicates.Add(1)
			return true, false
		}
		// A free slot in the emptier bucket: new entries start cold
		// (hot=0), matching the second-chance policy's "not recently used"
		// initial state (paper §III-B). A lost CAS means the bucket changed
		// — possibly a racing insert of this very fingerprint — so rescan
		// from the duplicate check.
		full, won := t.claim(i1, i2, fpv)
		if won {
			t.occupied.Add(1)
			f.inserts.Add(1)
			return true, true
		}
		if !full {
			continue
		}
		// Both buckets full. Second chance: replace a random cold entry if
		// one exists; the replacement overwrites the victim's slot in the
		// same CAS, so occupancy is unchanged (evict −1, insert +1).
		switch f.replaceCold(t, i1, i2, fpv) {
		case replaceDone:
			f.inserts.Add(1)
			f.secondWins.Add(1)
			f.evictions.Add(1)
			return true, false
		case replaceLost:
			continue
		}
		// All entries hot: cuckoo relocation. Relocated entries have their
		// hotness reset, making them eligible for future eviction.
		if f.relocate(t, i1, fpv) {
			f.inserts.Add(1)
			return true, false
		}
		// Kick chain overflowed: the new item was placed by the first kick;
		// the entry displaced at the end of the chain is dropped. One entry
		// in, one entry out: occupancy is unchanged here too.
		f.inserts.Add(1)
		f.evictions.Add(1)
		f.kickDrops.Add(1)
		return false, false
	}
	// Persistent contention: every CAS lost for maxSpins rounds. Drop the
	// new entry rather than spin unboundedly — always safe for a cache,
	// and unreachable single-threaded. Nothing is counted, so the
	// occupancy identity occupied == inserts−evictions−deletes holds.
	return false, false
}

type replaceResult int

const (
	replaceNoCold replaceResult = iota // every candidate entry is hot
	replaceDone                        // a cold entry was overwritten
	replaceLost                        // the chosen bucket changed underneath; rescan
)

// replaceCold overwrites one randomly chosen cold (hot=0, non-empty)
// entry among the two candidate buckets with fpv.
func (f *Filter) replaceCold(t *table, i1, i2 uint64, fpv uint16) replaceResult {
	var (
		cb [2 * SlotsPerBucket]uint64 // bucket of each cold entry
		cw [2 * SlotsPerBucket]uint64 // bucket word it was seen in
		cs [2 * SlotsPerBucket]int    // slot within the bucket
	)
	n := 0
	for _, b := range [2]uint64{i1, i2} {
		w := t.buckets[b].Load()
		for s := 0; s < SlotsPerBucket; s++ {
			e := slotOf(w, s)
			if e != 0 && e&hotBit == 0 {
				cb[n], cw[n], cs[n] = b, w, s
				n++
			}
		}
	}
	if n == 0 {
		return replaceNoCold
	}
	j := f.rand(n)
	if t.buckets[cb[j]].CompareAndSwap(cw[j], withSlot(cw[j], cs[j], fpv)) {
		return replaceDone
	}
	return replaceLost
}

// relocate performs cuckoo kicks starting at bucket i, inserting fpv. On
// chain overflow the last displaced fingerprint is dropped (counted as an
// eviction by the caller). Every hop is one whole-word CAS that swaps the
// carried fingerprint for the victim; a lost CAS burns one kick and
// retries, so the chain stays bounded under contention.
func (f *Filter) relocate(t *table, i uint64, fpv uint16) bool {
	cur := fpv
	b := i
	for k := 0; k < MaxKicks; k++ {
		s := f.rand(SlotsPerBucket)
		w := t.buckets[b].Load()
		victim := slotOf(w, s)
		if victim == 0 {
			// A racing delete emptied the slot since the bucket was seen
			// full: claim it and the chain ends with one more occupied slot.
			if t.buckets[b].CompareAndSwap(w, withSlot(w, s, cur)) {
				t.occupied.Add(1)
				return true
			}
			continue
		}
		if !t.buckets[b].CompareAndSwap(w, withSlot(w, s, cur)) {
			continue
		}
		f.relocations.Add(1) // relocated entries enter cold (hot=0)
		cur = victim & fpMask
		b = t.altIndex(b, cur)
		w = t.buckets[b].Load()
		for s := 0; s < SlotsPerBucket; s++ {
			if slotOf(w, s) == 0 {
				// The chain ends in a previously empty slot: the insert
				// that started it nets one more occupied slot.
				if t.buckets[b].CompareAndSwap(w, withSlot(w, s, cur)) {
					t.occupied.Add(1)
					return true
				}
				break // word changed underneath: kick again from here
			}
		}
	}
	return false
}

// grow replaces table t by an empty one twice its size, unless another
// insert's doubling got there first. Contains and the mutations that loaded
// t before the swap keep working on it; what t holds from then on counts as
// dropped (Stats.GrowDrops, inside Evictions). The filter is a cache: each
// prefix is re-learned the next time a traversal reads it from the memory
// nodes.
func (f *Filter) grow(t *table) {
	if !f.growing.TryLock() {
		return
	}
	defer f.growing.Unlock()
	if f.tab.Load() != t {
		return
	}
	nt := newTable(2 * t.nBuckets)
	nt.dropped = append(t.dropped[:len(t.dropped):len(t.dropped)], t.occupied)
	f.tab.Store(nt)
}

// Delete removes one entry matching the hash's fingerprint, if present.
// Sphinx uses it only when it proactively unlearns a prefix after
// detecting a false positive against the remote index.
func (f *Filter) Delete(hash uint64) bool {
	t := f.tab.Load()
	fpv := fp(hash)
	i1 := t.index(hash)
	i2 := t.altIndex(i1, fpv)
	for spin := 0; spin < maxSpins; spin++ {
		lost := false
		for _, b := range [2]uint64{i1, i2} {
			w := t.buckets[b].Load()
			for s := 0; s < SlotsPerBucket; s++ {
				if slotOf(w, s)&fpMask == fpv {
					if t.buckets[b].CompareAndSwap(w, withSlot(w, s, 0)) {
						t.occupied.Add(^uint64(0))
						f.deletes.Add(1)
						return true
					}
					lost = true
				}
			}
		}
		if !lost {
			return false
		}
	}
	// Persistent contention: report not-found. A stale surviving entry is
	// at worst one more false positive, re-unlearned on detection.
	return false
}

// Load returns the fraction of occupied slots, from the incrementally
// maintained count (the churn tests cross-check it against a scan).
func (f *Filter) Load() float64 {
	t := f.tab.Load()
	return float64(t.occupied.Load()) / float64(t.nBuckets*SlotsPerBucket)
}

// AnalyticFPBound returns the standard cuckoo-filter false-positive bound
// at the filter's current load: ε ≈ load · 2b / 2^f for b slots per
// bucket and f fingerprint bits [14]. Exported so telemetry can place the
// measured rate next to the bound it is supposed to obey.
func (f *Filter) AnalyticFPBound() float64 {
	return f.Load() * 2 * SlotsPerBucket / (1 << fpBits)
}

// rand returns a pseudo-random int in [0, n): one wait-free atomic add on
// a Weyl sequence, finalized through mix. Deterministic when the filter
// is driven by one goroutine (the figure experiments); under concurrency,
// two callers may draw correlated values, which only correlates two
// replacement decisions.
func (f *Filter) rand(n int) int {
	return int(mix(f.rng.Add(0x9e3779b97f4a7c15)) % uint64(n))
}

// String summarizes the filter: its current size and its budget.
func (f *Filter) String() string {
	return fmt.Sprintf("cuckoo(%d buckets, %.1f%% load, %d of %d B)",
		f.tab.Load().nBuckets, f.Load()*100, f.SizeBytes(), f.budget*8)
}
