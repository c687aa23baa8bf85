package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"sphinx/internal/counters"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// lacSeed derives the leaf-address-cache hash from a full key; distinct
// from the filter seed (8) and the leaf checksum seeds (2, 3). lacNodeSeed
// derives it from an inner node's full prefix (NodeHash).
const (
	lacSeed     = 9
	lacNodeSeed = 11
)

// lacWord packs one leaf-address-cache entry into a single uint64 so the
// cache needs no locks — the same whole-word atomic discipline the cuckoo
// filter buckets use:
//
//	[63]    present
//	[62:55] leaf size in 64-byte units (exact, so a speculative read
//	        fetches the whole leaf in one round trip)
//	[54:42] 13-bit key fingerprint (tells the bucket's entries apart; an
//	        unlearn for key A cannot remove an entry of key B)
//	[41]    reference bit: set by a lookup that returns the word, cleared by
//	        a second-chance sweep (store)
//	[40:0]  leaf mem.Addr >> 6 (node in [40:34], offset>>6 in [33:0])
//
// Everything the cache stores is a mem.ClassLeaf address, which the
// allocator aligns to 64 bytes: the six zero bits are not stored, and pay for
// a fingerprint wide enough that a probe of a full bucket matches a stranger
// at most 8 times in 8192 — each such match a wasted, refuted round trip. The
// reference bit is the memory-node field's top bit: an address on memory node
// 128 or above is not cached, as an unaligned one is not.
//
// The zero word is "empty": a valid entry always has the present bit set.
//
// The table holds a second kind of word, the address of an INNER NODE under
// its full prefix — what the node's 8-byte hash-table entry says, so that a
// landing needs no table read (locate.go fetchRemembered):
//
//	[63]    present
//	[62:55] lacNodeUnits + node type: the four values a leaf's size may not
//	        take mark the word (a leaf of 252 units or more — 16 KiB — is not
//	        cached)
//	[54:42] 13-bit prefix fingerprint, of a hash under lacNodeSeed
//	[41]    reference bit, as in a leaf word
//	[40:0]  node mem.Addr >> 3 (node in [40:34], offset>>3 in [33:0])
//
// Inner nodes are aligned to 8 bytes, not 64, so three offset bits fewer fit:
// a node at an offset of 2³⁷ (128 GiB) or beyond is not cached. The kinds
// never answer for each other — a lease CAS must never be aimed at a leaf —
// and they do not rank alike: see store.
const (
	lacPresentBit = uint64(1) << 63
	lacUnitsShift = 55
	lacFPShift    = 42
	lacFPMask     = uint64(1)<<13 - 1
	lacRefBit     = uint64(1) << (lacFPShift - 1)
	lacAddrMask   = lacRefBit - 1
	lacAlignBits  = 6 // log2(mem.LineSize)
	// lacTagMask selects what Lookup matches on: present and fingerprint.
	lacTagMask = lacPresentBit | lacFPMask<<lacFPShift

	// lacWays is the bucket width: eight words, one 64-byte cache line.
	lacWays = 8
	// A gated cache's doorkeeper (secondMiss) takes one of every lacDoorShare
	// of its words, a bucket's at least; each of its words holds the tags of
	// four keys, lacDoorTagBits each, below the present bit: a doorkeeper
	// word never reads as a leaf or node word.
	lacDoorShare   = 128
	lacDoorTagBits = 15
	lacDoorTagMask = uint64(1)<<lacDoorTagBits - 1
	lacDoorMask    = uint64(1)<<(4*lacDoorTagBits) - 1
	// The sketch that counts the keys a cache has learned (noteKey) has
	// 2^lacSketchBits one-byte registers: a standard error of 1.04/√512,
	// 4.6 %.
	lacSketchBits = 9
	lacSketchRegs = 1 << lacSketchBits

	lacNodeUnits     = 252
	lacNodeAlignBits = 3 // log2 of an inner node's alignment
	// lacNodeMark is set in full by a node word alone: units of 252 and up.
	lacNodeMark = uint64(lacNodeUnits) << lacUnitsShift
	// lacMNShift is where either kind's address field keeps the memory node.
	lacMNShift = mem.OffsetBits - lacAlignBits
)

// isNodeWord tells a node word from a leaf word (and from the empty word).
func isNodeWord(w uint64) bool { return w&lacNodeMark == lacNodeMark }

// packLACWord returns the entry, under a key's tag (bucketTag), for a leaf of
// the given size at addr, or false for an address the packed form cannot
// hold (not 64-byte aligned, on a memory node of 128 or above, or a size in
// the range that marks node words): storing it truncated would send
// speculative reads to some other object.
func packLACWord(tag uint64, addr mem.Addr, units uint8) (uint64, bool) {
	a := uint64(addr)
	if a&(1<<lacAlignBits-1) != 0 || a>>lacAlignBits > lacAddrMask || units >= lacNodeUnits {
		return 0, false
	}
	return tag | uint64(units)<<lacUnitsShift | a>>lacAlignBits, true
}

// packNodeWord is packLACWord for an inner node of type t at addr.
func packNodeWord(tag uint64, addr mem.Addr, t wire.NodeType) (uint64, bool) {
	off := addr.Offset()
	if off&(1<<lacNodeAlignBits-1) != 0 || off>>(lacMNShift+lacNodeAlignBits) != 0 ||
		uint64(addr)>>mem.OffsetBits<<lacMNShift > lacAddrMask || t > wire.Node256 {
		return 0, false
	}
	return tag | (lacNodeUnits+uint64(t))<<lacUnitsShift | uint64(addr.Node())<<lacMNShift | off>>lacNodeAlignBits, true
}

// lacAddr and lacUnits unpack a present leaf word, lacNodeAddr and lacNodeType
// a present node word (its four unit values differ in their low two bits).
func lacAddr(w uint64) mem.Addr { return mem.Addr((w & lacAddrMask) << lacAlignBits) }
func lacUnits(w uint64) uint8   { return uint8(w >> lacUnitsShift) }
func lacNodeAddr(w uint64) mem.Addr {
	return mem.NewAddr(mem.NodeID(w&lacAddrMask>>lacMNShift), w&(1<<lacMNShift-1)<<lacNodeAlignBits)
}
func lacNodeType(w uint64) wire.NodeType { return wire.NodeType(lacUnits(w) & 3) }

// LACStats counts leaf-address-cache maintenance events. Hit/refute
// outcomes are operation-level decisions and live in core.Stats; these are
// the cache's own bookkeeping.
type LACStats struct {
	Learns    uint64 // entries written (fresh or overwriting)
	Unlearns  uint64 // entries removed: refuted speculative reads, demotions
	Evictions uint64 // learns into a full bucket that displaced a live entry

	// The placement rule's (store).
	GateRefusals  uint64 // leaf learns into a full bucket the second-miss gate turned away
	NodeEvictions uint64 // node words displaced, by a learn of either kind
	NodeDrops     uint64 // node learns that took no way
}

func init() { counters.Check[LACStats]() }

// Add returns s + t, field-wise.
func (s LACStats) Add(t LACStats) LACStats {
	counters.Add(&s, &t)
	return s
}

// LeafCache is the per-CN speculative leaf-address cache (LAC): a
// set-associative, lock-free map from key hash to the leaf address the key
// was last found at, plus the leaf's exact size. The key hash selects a
// bucket of lacWays consecutive words — one cache line — and a fingerprint
// tells the bucket's entries apart, so keys lose entries to each other only
// once more than lacWays of them share a bucket (the paper's SFC is
// bucketised for the same reason, §III-B). A hit lets a warm Get issue one
// doorbell read straight at the leaf and verify in place — trust-but-verify,
// the same shape as the succinct filter cache, but for the whole traversal
// instead of the deepest prefix.
//
// Entries are single uint64 words accessed with atomic load/store/CAS, so
// all workers of one CN share the cache with no locks. The cache is only a
// hint: a wrong or stale entry costs one refuted read, never a wrong
// answer (verification is the leaf's checksum, status word and full-key
// comparison — see specGet in ops.go). That is also what makes the races
// between workers benign: two concurrent Learns of one key that both found
// no entry of it may each write one (a duplicate: the later way answers once
// the earlier is refuted or displaced), and a Learn may overwrite a way a
// concurrent Learn just gave to another key (a lost learn: that key relearns
// on its next miss).
type LeafCache struct {
	words   []uint64 // buckets of lacWays words each
	buckets uint64   // a power of two
	// limit is the number of buckets in use: all of them until the cache
	// gates, the rest of them a doorkeeper's words from then on (gate).
	limit atomic.Uint64
	// sketch is a HyperLogLog of the keys whose leaf words the cache learned,
	// eight one-byte registers to a word (noteKey).
	sketch [lacSketchRegs / 8]atomic.Uint64
	seed   uint64
	stats  LACStats
	// depths has the bit of every prefix length a node word was learned at
	// (depthBit), so that a walk asks for node words at those lengths only.
	depths atomic.Uint64
}

// NewLeafCache creates a leaf-address cache with capacity for n entries
// (rounded up to a power of two; minimum 64).
func NewLeafCache(n int, seed uint64) *LeafCache {
	size := 64
	for size < n {
		size <<= 1
	}
	lc := &LeafCache{words: make([]uint64, size), buckets: uint64(size / lacWays), seed: seed}
	lc.limit.Store(lc.buckets)
	return lc
}

// NewLeafCacheBytes creates a leaf-address cache bounded by a CN-side
// memory budget (8 bytes per entry).
func NewLeafCacheBytes(budget uint64, seed uint64) *LeafCache {
	// Round down to a power of two so the cache never exceeds the budget.
	size := 64
	for uint64(size)*2*8 <= budget {
		size <<= 1
	}
	return NewLeafCache(size, seed)
}

// keyHash is the hash a key's leaf word is filed under.
func (lc *LeafCache) keyHash(key []byte) uint64 { return wire.Hash64Seed(key, lacSeed^lc.seed) }

// NodeHash is the hash the node word of an inner node whose full prefix is
// prefix is filed under. A client reads it off its operation's forward pass
// over the key instead (Client.prefixStates), seeded with nodeSeed.
func (lc *LeafCache) NodeHash(prefix []byte) uint64 { return wire.Hash64Seed(prefix, lc.nodeSeed()) }

func (lc *LeafCache) nodeSeed() uint64 { return lacNodeSeed ^ lc.seed }

// slot derives the bucket of a word hashed to h and the tag (present bit and
// fingerprint) it carries: low bits pick the bucket, bits above any table's
// width the fingerprint. In a gated cache a hash that falls on a doorkeeper's
// bucket is folded onto one of the first: every other word stays where it was
// before the cache gated.
func (lc *LeafCache) slot(h uint64) (bucket []uint64, tag uint64) {
	b := h & (lc.buckets - 1)
	if limit := lc.limit.Load(); b >= limit {
		b -= limit
	}
	base := b * lacWays
	return lc.words[base : base+lacWays : base+lacWays], lacPresentBit | (h>>48&lacFPMask)<<lacFPShift
}

// find returns the bucket's word of the given kind that carries tag, or 0,
// and marks the word referenced.
func find(bucket []uint64, tag uint64, node bool) uint64 {
	for i := range bucket {
		if w := atomic.LoadUint64(&bucket[i]); w&lacTagMask == tag && isNodeWord(w) == node {
			if w&lacRefBit == 0 {
				atomic.CompareAndSwapUint64(&bucket[i], w, w|lacRefBit)
			}
			return w
		}
	}
	return 0
}

// Lookup returns the cached leaf address and exact unit count for a key.
// A false return means the cache has no opinion; a true return is a hint
// that MUST be verified against the leaf image it resolves to.
func (lc *LeafCache) Lookup(key []byte) (addr mem.Addr, units uint8, ok bool) {
	bucket, tag := lc.slot(lc.keyHash(key))
	w := find(bucket, tag, false)
	return lacAddr(w), lacUnits(w), w != 0
}

// LookupNode returns the cached address and type of the inner node whose full
// prefix hashes to h (NodeHash): a hint like Lookup's, to be verified against
// the node image it resolves to. It never returns what a leaf word holds.
func (lc *LeafCache) LookupNode(h uint64) (addr mem.Addr, t wire.NodeType, ok bool) {
	bucket, tag := lc.slot(h)
	w := find(bucket, tag, true)
	return lacNodeAddr(w), lacNodeType(w), w != 0
}

// Learn records that key was found at addr in a leaf of the given exact
// size (store has the placement). An address or a size the word cannot hold
// is dropped: the key simply stays uncached.
func (lc *LeafCache) Learn(key []byte, addr mem.Addr, units uint8) {
	h := lc.keyHash(key)
	lc.noteKey(h)
	bucket, tag := lc.slot(h)
	if next, ok := packLACWord(tag, addr, units); ok {
		lc.store(bucket, tag, next, h)
	}
}

// LearnNode records that the inner node whose full prefix, depth bytes long,
// hashes to h (NodeHash) is of type t and lives at addr. A nil cache (the
// ablation) learns nothing.
func (lc *LeafCache) LearnNode(h uint64, depth int, addr mem.Addr, t wire.NodeType) {
	if lc == nil {
		return
	}
	bit := depthBit(depth)
	for w := lc.depths.Load(); w&bit == 0 && !lc.depths.CompareAndSwap(w, w|bit); {
		w = lc.depths.Load()
	}
	bucket, tag := lc.slot(h)
	if next, ok := packNodeWord(tag, addr, t); ok {
		lc.store(bucket, tag, next, h)
	}
}

// store writes the word next, hashed to h: over the entry of its kind already
// carrying its tag (keeping its reference bit), else into an empty way, else —
// the bucket is full — over a resident, counted as an eviction. Which resident
// is one rule, which the cache switches once, when it has learned the leaf
// words of more keys than it has ways (noteKey):
//
//   - Until then leaves come first: a leaf word buys two round trips for its
//     key with certainty, a node word one for the keys below it that miss, so
//     the leaf capacity the table was sized for is not spent on nodes. A full
//     bucket gives up a node word, the one the second-chance sweep over its
//     node words picks (victim), from a way that rotates with the learn count
//     so that no resident is singled out; if it holds none, a leaf word takes
//     the rotating way itself and a node word is dropped. A read phase whose
//     leaves fit loses nothing to node words, and a run of inserts, whose
//     node words compete among themselves, keeps those it looks up.
//   - A gated cache loses leaf ways whatever it does; then whichever word is
//     in use should stay, whatever its kind. A learn of either kind runs the
//     SFC's second-chance sweep over the bucket (victim), so a node word that
//     keeps being looked up displaces an idle leaf. And a leaf word enters a
//     full bucket only on its key's second miss (secondMiss): a key of a
//     working set many times the table is seldom asked for again before its
//     word would be swept, and its learn would sweep a word that is used. A
//     key that comes back soon — a hot one — is remembered at its second miss.
//
// A leaf word takes its victim's way whatever is there by then; a node word
// takes it by a CAS on the word seen, and is dropped if that word changed in
// between (while leaves come first, it may have become a leaf's).
func (lc *LeafCache) store(bucket []uint64, tag, next, h uint64) {
	node := isNodeWord(next)
	empty := -1
	for i := range bucket {
		switch w := atomic.LoadUint64(&bucket[i]); {
		case w&lacTagMask == tag && isNodeWord(w) == node:
			atomic.StoreUint64(&bucket[i], next|w&lacRefBit)
			atomic.AddUint64(&lc.stats.Learns, 1)
			return
		case w == 0 && empty < 0:
			empty = i
		}
	}
	if empty >= 0 && atomic.CompareAndSwapUint64(&bucket[empty], 0, next) {
		atomic.AddUint64(&lc.stats.Learns, 1)
		return
	}
	// Full, or another learner took the empty way first.
	clock := lc.gated()
	if clock && !node && !lc.secondMiss(h) {
		atomic.AddUint64(&lc.stats.GateRefusals, 1)
		return
	}
	way, prev := victim(bucket, int((tag>>lacFPShift+atomic.LoadUint64(&lc.stats.Learns)+1)%lacWays), clock)
	if !node {
		prev = atomic.SwapUint64(&bucket[way], next)
	} else if !clock && !isNodeWord(prev) || !atomic.CompareAndSwapUint64(&bucket[way], prev, next) {
		atomic.AddUint64(&lc.stats.NodeDrops, 1)
		return
	}
	atomic.AddUint64(&lc.stats.Learns, 1)
	if prev != 0 {
		atomic.AddUint64(&lc.stats.Evictions, 1)
	}
	if isNodeWord(prev) {
		atomic.AddUint64(&lc.stats.NodeEvictions, 1)
	}
}

// victim returns the way a learn into the full bucket takes, and the word seen
// there, searching from at by the SFC's replacement sweep, a clock over the
// ways: the first whose word is not referenced, clearing the reference bit of
// each word it passes on the way there — a referenced word survives one sweep,
// and the next only if it is looked up again in between. While leaves come
// first the sweep passes leaf words by: it takes a node word, and at if the
// bucket holds none. In a gated cache it takes either kind.
func victim(bucket []uint64, at int, clock bool) (int, uint64) {
	for j := 0; j < 2*lacWays; j++ {
		i := (at + j) % lacWays
		switch w := atomic.LoadUint64(&bucket[i]); {
		case !clock && !isNodeWord(w):
		case w&lacRefBit == 0:
			return i, w
		default:
			atomic.CompareAndSwapUint64(&bucket[i], w, w&^lacRefBit)
		}
	}
	return at, atomic.LoadUint64(&bucket[at])
}

// noteKey enters the key hashed to h into the sketch of the keys whose leaf
// words the cache learned, and gates the cache once the sketch counts more of
// them than the cache has ways: its leaves do not fit. The rule is read off
// the keys the cache sees, not a count it was told to expect, and it does not
// switch back. A register is written only when the key raises it, so a learn
// costs a load and a compare, and the count is taken only when a register
// moves: a few thousand times in all.
func (lc *LeafCache) noteKey(h uint64) {
	reg, rank := h>>(64-lacSketchBits), uint64(bits.LeadingZeros64(h<<lacSketchBits|1<<(lacSketchBits-1))+1)
	word, shift := &lc.sketch[reg/8], reg%8*8
	for {
		w := word.Load()
		if w>>shift&0xff >= rank {
			return
		}
		if word.CompareAndSwap(w, w&^(0xff<<shift)|rank<<shift) {
			break
		}
	}
	if !lc.gated() && lc.keysSeen() > float64(len(lc.words)) {
		lc.gate()
	}
}

// keysSeen estimates how many distinct keys noteKey has seen: HyperLogLog's
// harmonic mean over the registers, or linear counting while that is below
// 2.5 registers a key and some register is still zero (Flajolet et al.).
func (lc *LeafCache) keysSeen() float64 {
	sum, zeros := 0.0, 0
	for i := range lc.sketch {
		w := lc.sketch[i].Load()
		for shift := 0; shift < 64; shift += 8 {
			r := int(w >> shift & 0xff)
			sum += math.Ldexp(1, -r)
			if r == 0 {
				zeros++
			}
		}
	}
	m := float64(lacSketchRegs)
	if e := 0.7213 / (1 + 1.079/m) * m * m / sum; e > 2.5*m || zeros == 0 {
		return e
	}
	return m * math.Log(m/float64(zeros))
}

// gate switches the cache to the second-miss gate: its last buckets — one word
// in lacDoorShare, a bucket's at least — become the doorkeeper's words,
// emptied, and the hashes that fell on them fold onto its first buckets
// (slot), so its footprint is what it was. A learn, lookup or unlearn that
// picked its bucket before the switch may still reach a doorkeeper word: a
// word it leaves there costs a tag, and the doorkeeper's own words never
// carry the present bit, so no lookup takes one for an entry.
func (lc *LeafCache) gate() {
	limit := lc.buckets - max(1, lc.buckets/lacDoorShare)
	if lc.limit.CompareAndSwap(lc.buckets, limit) {
		for i := limit * lacWays; i < uint64(len(lc.words)); i++ {
			atomic.StoreUint64(&lc.words[i], 0)
		}
	}
}

// gated tells whether the cache has switched to the second-miss gate.
func (lc *LeafCache) gated() bool { return lc.limit.Load() < lc.buckets }

// door returns the doorkeeper's words: none until the cache gates.
func (lc *LeafCache) door() []uint64 { return lc.words[lc.limit.Load()*lacWays:] }

// secondMiss is the gate's doorkeeper, TinyLFU's: a key's first miss into a
// full bucket leaves only its tag behind. It reports whether the tag of the
// key hashed to h is among the four its door word holds, and if not, pushes it
// in as the word's newest, the oldest falling out — the doorkeeper forgets by
// being written, and needs no reset. A push that loses its CAS to a concurrent
// one is dropped: that key passes a miss later.
func (lc *LeafCache) secondMiss(h uint64) bool {
	door := lc.door()
	t := wire.Mix64(h)
	slot := &door[t>>32*uint64(len(door))>>32]
	tag := t&lacDoorTagMask | 1 // never the empty lane's 0
	w := atomic.LoadUint64(slot)
	for i := 0; i < 4*lacDoorTagBits; i += lacDoorTagBits {
		if w>>i&lacDoorTagMask == tag {
			return true
		}
	}
	atomic.CompareAndSwapUint64(slot, w, (w<<lacDoorTagBits|tag)&lacDoorMask)
	return false
}

// Unlearn removes every entry carrying key's fingerprint: the key-only form,
// for a caller that wants the key forgotten wherever it points (demotion).
func (lc *LeafCache) Unlearn(key []byte) {
	bucket, tag := lc.slot(lc.keyHash(key))
	lc.remove(bucket, tag, lacTagMask, false)
}

// UnlearnAt removes key's entry only if it still names addr — the address a
// speculative access was just refuted at. An entry another worker of the CN
// learned for the key's new address in the meantime is fresher information
// and stays.
func (lc *LeafCache) UnlearnAt(key []byte, addr mem.Addr) {
	bucket, tag := lc.slot(lc.keyHash(key))
	if named, ok := packLACWord(tag, addr, 0); ok {
		lc.remove(bucket, named, lacTagMask|lacAddrMask, false)
	}
}

// UnlearnNodeAt is UnlearnAt for the node word of the prefix hashed to h.
func (lc *LeafCache) UnlearnNodeAt(h uint64, addr mem.Addr) {
	bucket, tag := lc.slot(h)
	if named, ok := packNodeWord(tag, addr, 0); ok {
		lc.remove(bucket, named, lacTagMask|lacAddrMask, true)
	}
}

// remove empties the bucket's words of one kind that equal want under mask.
// Each removal is a CAS on the exact observed word, so a concurrent Learn that
// already replaced the way is never clobbered.
func (lc *LeafCache) remove(bucket []uint64, want, mask uint64, node bool) {
	for i := range bucket {
		if w := atomic.LoadUint64(&bucket[i]); (w^want)&mask == 0 && isNodeWord(w) == node &&
			atomic.CompareAndSwapUint64(&bucket[i], w, 0) {
			atomic.AddUint64(&lc.stats.Unlearns, 1)
		}
	}
}

// Reset clears every entry, the doorkeeper's tags and the node words' depths
// with plain atomic stores; the keys seen stay counted, and a gated cache
// stays gated. Concurrent Learns
// racing the sweep may be lost — acceptable for the one caller (the hot
// tracker's route flush on a membership change), where a lost entry only
// costs a relearn.
func (lc *LeafCache) Reset() {
	for i := range lc.words {
		atomic.StoreUint64(&lc.words[i], 0)
	}
	lc.depths.Store(0)
}

// nodeDepths returns the prefix lengths node words were learned at, as
// depthBit sets them: no node word of any other length is held.
func (lc *LeafCache) nodeDepths() uint64 { return lc.depths.Load() }

// depthBit is a prefix length's bit in the depths mask: bit l for l bytes,
// bit 63 for 63 or more.
func depthBit(l int) uint64 { return 1 << min(l, 63) }

// SizeBytes returns the cache's memory footprint: its words, the doorkeeper's
// included. Its counters and the key sketch's 512 bytes are bookkeeping
// outside it, as a filter's counters are.
func (lc *LeafCache) SizeBytes() uint64 { return uint64(len(lc.words)) * 8 }

// Entries returns the cache's slot capacity: the ways of the buckets in use.
func (lc *LeafCache) Entries() int { return int(lc.limit.Load()) * lacWays }

// Occupancy returns the number of live entries, the slot capacity, the
// number of buckets with no empty way left — a learn into one of those
// displaces a resident — and how many of the live entries are node words.
// Misses with next to no full buckets are keys not yet learned; misses with
// many are a cache too small for its working set.
func (lc *LeafCache) Occupancy() (occupied, capacity, fullBuckets, nodes uint64) {
	for base := 0; base < lc.Entries(); base += lacWays {
		bucket, live := lc.words[base:base+lacWays], 0
		for i := range bucket {
			w := atomic.LoadUint64(&bucket[i])
			if w != 0 {
				live++
			}
			if isNodeWord(w) {
				nodes++
			}
		}
		occupied += uint64(live)
		if live == lacWays {
			fullBuckets++
		}
	}
	return occupied, uint64(lc.Entries()), fullBuckets, nodes
}

// Stats returns a snapshot of the cache's maintenance counters.
func (lc *LeafCache) Stats() LACStats { return counters.Load(&lc.stats) }
