package core

import (
	"sync/atomic"

	"sphinx/internal/wire"
)

// hotSeed derives the hot-set sketch hash from a full key; distinct from
// the filter seed (8) and the leaf-address-cache seed (9).
const hotSeed = 10

// Hot-set sketch word layout. Each slot is one uint64 mutated only by
// whole-word CAS — the same lock-free discipline as the cuckoo filter
// buckets and the leaf-address cache:
//
//	[63:48] 16-bit key tag (owner fingerprint; 0 in an empty word means
//	        the slot is free, a zero tag from the hash is remapped to 1)
//	[47]    claim bit: this CN has promoted the key (or is promoting it)
//	[46:32] 15-bit decay epoch the count was last normalized to
//	[31:0]  frequency count, halved once per elapsed epoch (lazy decay)
const (
	hotTagShift   = 48
	hotClaimBit   = uint64(1) << 47
	hotEpochShift = 32
	hotEpochMask  = uint64(1)<<15 - 1
	hotCountMask  = uint64(1)<<32 - 1
	// hotCountCap bounds the count so bursts cannot take epochs of decay
	// to cool back below the demotion threshold.
	hotCountCap = uint64(1) << 20
)

// Hot-set tuning defaults. The thresholds are rates, not raw counts: a
// key promotes when it accumulates hotPromoteAt observations faster than
// the sketch decays them (one halving per hotDecayFloor..4×slots
// observations), which uniform traffic over a reasonably sized keyspace
// essentially never does — so the hot layer stays inert unless the
// workload is actually skewed.
const (
	hotPromoteAt  = 32
	hotDemoteAt   = 8
	hotDecayFloor = 4096
	// DefaultHotSetBytes is the per-CN tracker budget: half frequency
	// sketch, half split across the per-replica-rank route caches.
	DefaultHotSetBytes = 256 << 10
)

// HotAction tells the caller of Observe what maintenance the key needs.
type HotAction int

// Observe outcomes.
const (
	// HotNone: nothing to do.
	HotNone HotAction = iota
	// HotPromoteNow: the key just crossed the promotion threshold and this
	// caller won the claim; it should publish hot replicas (a failed
	// publish must Unclaim so a later Observe can retry).
	HotPromoteNow
	// HotDemoteNow: a claimed key decayed below the demotion threshold and
	// this caller cleared the claim; it should tear the replicas down.
	HotDemoteNow
)

// HotSet is the per-CN hot-key tracker: a decaying frequency sketch that
// decides which keys deserve replicated placement, plus one route cache
// per replica rank mapping a hot key to the address of its replica record
// on that rank's memory node. Everything is lock-free single-word atomics
// and shared by all workers of one CN.
//
// The sketch is approximate in the usual ways — tags can collide (two
// keys pooling one count), slots can be stolen (a cold key's count aged
// away by a busier neighbour) — and every approximation is benign: a
// spurious promotion wastes a few round trips, a missed one only forgoes
// the optimization, and a stale route is refuted by record verification,
// never served (see hotreplica.go).
type HotSet struct {
	words []uint64
	mask  uint64
	seed  uint64
	ranks []*LeafCache

	obs  atomic.Uint64 // observation counter; epoch = obs / decayEvery
	pick atomic.Uint64 // Weyl state for replica sampling (p2c)
	// routeEpoch is the membership epoch the route caches are valid for;
	// a transition flushes them (replica targets move with the ring, and
	// records on departed nodes are no longer refreshed by writers).
	routeEpoch atomic.Uint64

	decayEvery uint64
	promoteAt  uint32
	demoteAt   uint32
}

// NewHotSet creates a tracker within a CN-side byte budget (0 selects
// DefaultHotSetBytes), with r route caches — one per replica rank.
func NewHotSet(budget uint64, seed uint64, r int) *HotSet {
	if budget == 0 {
		budget = DefaultHotSetBytes
	}
	r = max(r, 1)
	size := 64
	for uint64(size)*2*8 <= budget/2 {
		size <<= 1
	}
	hs := &HotSet{
		words: make([]uint64, size),
		mask:  uint64(size) - 1,
		seed:  seed,
		ranks: make([]*LeafCache, r),
	}
	perRank := budget / 2 / uint64(r)
	for i := range hs.ranks {
		hs.ranks[i] = NewLeafCacheBytes(perRank, seed+uint64(i)*0x9e3779b97f4a7c15+1)
	}
	hs.pick.Store(seed | 1)
	hs.decayEvery = max(4*uint64(size), hotDecayFloor)
	hs.promoteAt = hotPromoteAt
	hs.demoteAt = hotDemoteAt
	return hs
}

// SetThresholds overrides the promotion/demotion counts and the decay
// period (observations per halving). Zero keeps the current value.
// Intended for tests and experiments; not safe to call concurrently with
// Observe.
func (hs *HotSet) SetThresholds(promoteAt, demoteAt uint32, decayEvery uint64) {
	if promoteAt != 0 {
		hs.promoteAt = promoteAt
	}
	if demoteAt != 0 {
		hs.demoteAt = demoteAt
	}
	if decayEvery != 0 {
		hs.decayEvery = decayEvery
	}
}

// Ranks returns the number of replica-rank route caches.
func (hs *HotSet) Ranks() int { return len(hs.ranks) }

// Rank returns rank i's route cache (key → replica record address).
func (hs *HotSet) Rank(i int) *LeafCache { return hs.ranks[i] }

// NextPick advances the shared sampling state for power-of-two-choices
// replica selection. Wait-free; concurrent draws may correlate, which
// only correlates two route choices.
func (hs *HotSet) NextPick() uint64 {
	h := hs.pick.Add(0x9e3779b97f4a7c15)
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return h
}

// SizeBytes returns the tracker's CN memory footprint (sketch + routes).
func (hs *HotSet) SizeBytes() uint64 {
	total := uint64(len(hs.words)) * 8
	for _, rc := range hs.ranks {
		total += rc.SizeBytes()
	}
	return total
}

func (hs *HotSet) slotTag(key []byte) (slot uint64, tag uint64) {
	h := wire.Hash64Seed(key, hotSeed^hs.seed)
	slot = h & hs.mask
	tag = (h >> 48) & 0xffff
	if tag == 0 {
		tag = 1
	}
	return slot, tag
}

func hotDecay(count uint64, delta uint64) uint64 {
	if delta > 31 {
		return 0
	}
	return count >> delta
}

// epochDelta returns how many decay epochs elapsed between two 15-bit
// epoch stamps (modular, so the counter wrapping is harmless).
func epochDelta(cur, old uint64) uint64 {
	return (cur - old) & hotEpochMask
}

// Observe records one access to key, decaying lazily, and reports
// whether the key just crossed a promotion or demotion threshold with
// this CN winning the state transition (the claim bit arbitrates, so
// concurrent workers of one CN produce exactly one promoter).
func (hs *HotSet) Observe(key []byte) HotAction {
	slot, tag := hs.slotTag(key)
	epoch := (hs.obs.Add(1) / hs.decayEvery) & hotEpochMask
	for spin := 0; spin < maxHotSpins; spin++ {
		w := atomic.LoadUint64(&hs.words[slot])
		wtag := w >> hotTagShift
		wepoch := (w >> hotEpochShift) & hotEpochMask
		count := hotDecay(w&hotCountMask, epochDelta(epoch, wepoch))
		var next uint64
		action := HotNone
		switch {
		case wtag == 0:
			// Free slot: claim it for this key.
			next = tag<<hotTagShift | epoch<<hotEpochShift | 1
		case wtag == tag:
			claim := w & hotClaimBit
			count++
			if count > hotCountCap {
				count = hotCountCap
			}
			if claim == 0 && count >= uint64(hs.promoteAt) {
				claim = hotClaimBit
				action = HotPromoteNow
			} else if claim != 0 && count < uint64(hs.demoteAt) {
				claim = 0
				action = HotDemoteNow
			}
			next = tag<<hotTagShift | claim | epoch<<hotEpochShift | count
		default:
			// Another key owns the slot: age it (TinyLFU-style), stealing
			// once fully cold. Stealing a still-claimed slot is allowed —
			// the orphaned key's replicas stay valid (writers refresh them
			// through the tables, not the sketch) and its route entries
			// fall out of the rank caches by eviction or refutation.
			if count > 0 {
				count--
			}
			if count == 0 {
				next = tag<<hotTagShift | epoch<<hotEpochShift | 1
			} else {
				next = wtag<<hotTagShift | w&hotClaimBit | epoch<<hotEpochShift | count
			}
		}
		if atomic.CompareAndSwapUint64(&hs.words[slot], w, next) {
			return action
		}
	}
	return HotNone
}

// maxHotSpins bounds Observe's CAS loop; losing every spin just drops one
// observation.
const maxHotSpins = 4

// Unclaim clears the key's claim bit after a failed promotion so a later
// Observe can retry. CAS-exact: a concurrent state change wins.
func (hs *HotSet) Unclaim(key []byte) {
	slot, tag := hs.slotTag(key)
	for spin := 0; spin < maxHotSpins; spin++ {
		w := atomic.LoadUint64(&hs.words[slot])
		if w>>hotTagShift != tag || w&hotClaimBit == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(&hs.words[slot], w, w&^hotClaimBit) {
			return
		}
	}
}

// Claimed reports whether the key currently holds this CN's claim bit
// (promoted, or promotion in flight): hotGet re-promotes a claimed key that
// has lost every route.
func (hs *HotSet) Claimed(key []byte) bool {
	slot, tag := hs.slotTag(key)
	w := atomic.LoadUint64(&hs.words[slot])
	return w>>hotTagShift == tag && w&hotClaimBit != 0
}

// FlushRoutes invalidates every route cache if the membership epoch moved
// since the last flush, returning whether a flush happened. After a ring
// change, replica targets shift and records on departed members are no
// longer write-refreshed, so pre-transition routes must not be trusted;
// the sketch itself survives (frequency is placement-independent).
// Exactly one caller wins the epoch CAS and performs the zeroing; entries
// learned concurrently with it may be lost, which only costs a relearn.
func (hs *HotSet) FlushRoutes(epoch uint64) bool {
	old := hs.routeEpoch.Load()
	if old == epoch {
		return false
	}
	if !hs.routeEpoch.CompareAndSwap(old, epoch) {
		return false
	}
	for _, rc := range hs.ranks {
		rc.Reset()
	}
	return true
}
