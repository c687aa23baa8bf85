package obs

import "math/bits"

// SLO is a per-op-kind latency objective: at least Quantile of ops must
// complete within LatencyPs. The error budget is 1-Quantile; burn rate
// is the windowed violation rate divided by that budget, so a burn of 1
// spends the budget exactly as fast as allowed, and (per the SRE
// multi-window convention) a fast-window burn above ~14 exhausts a
// 30-day budget in hours.
//
// Latencies come from the existing power-of-two histograms, so the
// effective threshold rounds LatencyPs up to the enclosing bucket's
// upper edge: an op is "good" iff it lands in a bucket whose upper
// bound is <= that edge.
type SLO struct {
	Name      string  `json:"name"`
	Op        OpKind  `json:"-"`
	Quantile  float64 `json:"quantile"`
	LatencyPs uint64  `json:"latency_ps"`
}

// goodBucket returns the highest histogram bucket index counted as
// within-objective for this SLO.
func (s SLO) goodBucket() int {
	if s.LatencyPs == 0 {
		return -1
	}
	return bits.Len64(s.LatencyPs)
}

// SLOStatus is the engine's verdict for one SLO at the latest tick.
type SLOStatus struct {
	SLO        SLO     `json:"slo"`
	OpName     string  `json:"op"`
	WindowOps  uint64  `json:"window_ops"` // ops in the latest tick window
	WindowBad  uint64  `json:"window_bad"` // of those, above-threshold
	TotalOps   uint64  `json:"total_ops"`  // cumulative since engine start
	TotalBad   uint64  `json:"total_bad"`
	FastBurn   float64 `json:"fast_burn"`  // burn rate over the latest window
	SlowBurn   float64 `json:"slow_burn"`  // burn rate over the last slowWindows windows
	Attainment float64 `json:"attainment"` // cumulative good fraction, 1 when idle
}

// sloState tracks one SLO across ticks: the previous cumulative
// histogram snapshot and a small ring of per-tick good/bad counts for
// the slow burn window.
type sloState struct {
	slo  SLO
	prev HistSnapshot
	ring []sloWindow
	head int
	n    int

	status SLOStatus
}

type sloWindow struct{ ops, bad uint64 }

func newSLOState(s SLO, slowWindows int) *sloState {
	if slowWindows < 1 {
		slowWindows = 1
	}
	return &sloState{slo: s, ring: make([]sloWindow, slowWindows)}
}

func burnRate(bad, ops uint64, quantile float64) float64 {
	if ops == 0 {
		return 0
	}
	budget := 1 - quantile
	if budget <= 0 {
		budget = 1e-9
	}
	return float64(bad) / float64(ops) / budget
}

// tick folds the next cumulative latency snapshot into the state and
// recomputes the status.
func (st *sloState) tick(cur HistSnapshot) SLOStatus {
	delta := cur.Sub(st.prev)
	st.prev = cur

	goodIdx := st.slo.goodBucket()
	var good uint64
	for i := 0; i <= goodIdx && i < NumBuckets; i++ {
		good += delta.Buckets[i]
	}
	ops := delta.Count
	bad := ops - good

	st.head = (st.head + 1) % len(st.ring)
	st.ring[st.head] = sloWindow{ops: ops, bad: bad}
	if st.n < len(st.ring) {
		st.n++
	}
	var slowOps, slowBad uint64
	for i := 0; i < st.n; i++ {
		w := st.ring[(st.head-i+len(st.ring)*2)%len(st.ring)]
		slowOps += w.ops
		slowBad += w.bad
	}

	st.status.SLO = st.slo
	st.status.OpName = st.slo.Op.String()
	st.status.WindowOps = ops
	st.status.WindowBad = bad
	st.status.TotalOps += ops
	st.status.TotalBad += bad
	st.status.FastBurn = burnRate(bad, ops, st.slo.Quantile)
	st.status.SlowBurn = burnRate(slowBad, slowOps, st.slo.Quantile)
	st.status.Attainment = 1
	if st.status.TotalOps > 0 {
		st.status.Attainment = 1 - float64(st.status.TotalBad)/float64(st.status.TotalOps)
	}
	return st.status
}
