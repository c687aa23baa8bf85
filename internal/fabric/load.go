package fabric

import (
	"sync/atomic"

	"sphinx/internal/mem"
)

// loadCacheRefreshEvery is the default tick period of a LoadCache: how
// many Tick calls elapse between snapshot refreshes. Refreshing takes the
// fabric mutex plus every per-NIC lock, which is far too expensive per
// operation; at one refresh per 256 route decisions the amortized cost is
// a fraction of a single verb post.
const loadCacheRefreshEvery = 256

// The contention verdict (Skewed) of one window: its busiest-waiting NIC
// queued for at least 1/skewWaitShare of its own busy time, and for at least
// skewOverMean times the cluster's mean queued wait. The first keeps a single
// collision inside a busy window from counting as contention; the second
// keeps NICs that all queue alike (uniform load past saturation) calm, and
// still lets one of two NICs — exactly twice the mean — count. Wait is
// charged once per batch and busy time per verb, so the first bound follows
// how many verbs a batch carries: fuller batches — a write whose replica
// reads ride it — show the same queue as less wait per busy picosecond.
const (
	skewWaitShare = 32
	skewOverMean  = 2
)

// loadSnap is one immutable per-MN contention snapshot: a score per node,
// swapped in whole via an atomic pointer so readers never see a torn
// refresh.
type loadSnap struct {
	score  []int64 // indexed by NodeID
	wait   []int64 // cumulative WaitPs at snapshot time (next window's base)
	busy   []int64 // cumulative BusyPs at snapshot time
	skewed bool    // the window's verdict (Skewed)
}

// LoadCache is a cheap, slightly stale view of per-MN NIC contention for
// replica-choice routing. The authoritative signal is the fabric's
// per-NIC queued-wait counter (nic.waitPs: time batches spent waiting on
// a saturated NIC), but reading it takes locks — so the cache refreshes a
// windowed snapshot once every loadCacheRefreshEvery ticks and serves
// route decisions lock-free from the last snapshot.
//
// The score of a node is its last-window queueing delay, with last-window
// busy time as the low-order tiebreak: waitPs separates saturated NICs
// from idle ones, and when nothing queues yet, busyPs still points the
// chooser away from the NIC doing more work. Staleness is bounded by the
// refresh period and is exactly the point: power-of-two-choices needs
// only a signal that is right on average, and a tick-fresh signal would
// cost more than the imbalance it removes. Each refresh also judges its
// window as a whole (Skewed): whether replicating anything would pay.
type LoadCache struct {
	f     *Fabric
	every uint64
	ticks atomic.Uint64
	snap  atomic.Pointer[loadSnap]
}

// NewLoadCache creates a contention cache over the fabric, refreshing
// every refreshEvery ticks (0 selects the default period). The first
// snapshot is taken immediately.
func (f *Fabric) NewLoadCache(refreshEvery uint64) *LoadCache {
	if refreshEvery == 0 {
		refreshEvery = loadCacheRefreshEvery
	}
	lc := &LoadCache{f: f, every: refreshEvery}
	lc.Refresh()
	return lc
}

// Tick advances the cache's route-decision counter, refreshing the
// snapshot when the period elapses. Callers tick once per route decision.
func (lc *LoadCache) Tick() {
	if lc.ticks.Add(1)%lc.every == 0 {
		lc.Refresh()
	}
}

// Refresh rebuilds the snapshot from live NIC counters. Concurrent
// refreshes are harmless (both publish a valid snapshot).
func (lc *LoadCache) Refresh() {
	stats := lc.f.NICStats()
	prev := lc.snap.Load()
	ns := &loadSnap{
		score: make([]int64, len(stats)),
		wait:  make([]int64, len(stats)),
		busy:  make([]int64, len(stats)),
	}
	var topWait, topBusy, sumWait int64
	for i, s := range stats {
		ns.wait[i] = s.WaitPs
		ns.busy[i] = s.BusyPs
		var pw, pb int64
		if prev != nil && i < len(prev.wait) {
			pw, pb = prev.wait[i], prev.busy[i]
		}
		waitWin := s.WaitPs - pw
		busyWin := s.BusyPs - pb
		// Queueing dominates; busy time breaks ties between unsaturated
		// NICs. The shift keeps both in one comparable scalar without
		// overflow at realistic window sizes.
		ns.score[i] = waitWin*8 + busyWin
		sumWait += waitWin
		if waitWin > topWait {
			topWait, topBusy = waitWin, busyWin
		}
	}
	ns.skewed = topWait > 0 && topWait*skewWaitShare >= topBusy && topWait*int64(len(stats)) >= skewOverMean*sumWait
	lc.snap.Store(ns)
}

// Skewed reports the last window's contention verdict: whether one NIC
// queued out of proportion to the others, the one case in which spreading a
// key's reads over replicas relieves a queue. It ticks the cache like
// PickLighter, so a caller that routes nothing still keeps the verdict
// fresh.
func (lc *LoadCache) Skewed() bool {
	lc.Tick()
	return lc.snap.Load().skewed
}

// Score returns the node's contention score from the last snapshot
// (higher = more loaded). Unknown nodes score 0.
func (lc *LoadCache) Score(id mem.NodeID) int64 {
	s := lc.snap.Load()
	if s == nil || int(id) >= len(s.score) {
		return 0
	}
	return s.score[id]
}

// PickLighter is the power-of-two-choices decision: between two candidate
// replicas it returns the one whose NIC scored lower contention in the
// last window, preferring a on ties (callers pass their primary first).
// It ticks the cache, so sustained routing keeps the snapshot fresh.
func (lc *LoadCache) PickLighter(a, b mem.NodeID) mem.NodeID {
	lc.Tick()
	if lc.Score(b) < lc.Score(a) {
		return b
	}
	return a
}
