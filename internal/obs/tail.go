package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"sphinx/internal/fabric"
)

// TailSample is one auto-captured slow operation: its full round-trip
// timeline plus a derived one-line cause, so the trace arrives
// pre-explained ("sfc false positive at prefix 3: unlearned" or a
// dominant-stage summary).
type TailSample struct {
	Trace       *Trace
	Kind        OpKind
	LatencyPs   uint64
	ThresholdPs uint64 // the moving-quantile bar the op cleared
	Cause       string // Explain(Trace), formatted when the sample is read (Samples)
	Seq         uint64 // monotone capture number
}

// TailSampler is an always-on reservoir of slow-operation traces: every
// finished op's latency feeds a per-op-kind moving distribution, and ops
// at or above the configured quantile (p99 by default) have their trace
// deep-copied into a bounded ring. The distribution is a power-of-two
// histogram, so the quantile is only known to a bucket: an op above that
// bucket is tail for certain and always captured (at most 1 − quantile of
// the kind's ops lie there, so an outlier is never starved), an op inside
// it only while the kind's captures are below 1 − quantile of its ops —
// admitting the whole bucket captured every second op of a kind whose
// median shares the bucket of its p99. It is mutex-guarded so sequential
// workers across goroutines can share one sampler; the recorders feeding
// it remain per-worker.
type TailSampler struct {
	mu       sync.Mutex
	quantile float64
	warmup   uint64
	minPop   uint64                     // observations needed before the quantile is meaningful
	buckets  [NumOps][NumBuckets]uint64 // power-of-two latency counts
	counts   [NumOps]uint64
	captures [NumOps]uint64
	samples  []TailSample // ring of the most recent captures
	next     int
	seq      uint64
	offered  uint64
	captured uint64
}

// NewTailSampler creates a sampler keeping up to capacity traces at or
// above the given latency quantile (0 < quantile < 1; out-of-range
// values select the default p99). A per-op-kind minimum population must
// pass before anything is captured: at least the 64-observation warmup,
// and at least ceil(1/(1-quantile)) observations so the quantile itself
// is meaningful — below that, the target rank equals the population and
// the "threshold" degenerates to the busiest bucket's lower edge,
// capturing essentially every op.
func NewTailSampler(quantile float64, capacity int) *TailSampler {
	if quantile <= 0 || quantile >= 1 {
		quantile = 0.99
	}
	if capacity <= 0 {
		capacity = 32
	}
	return &TailSampler{
		quantile: quantile,
		warmup:   64,
		minPop:   uint64(math.Ceil(1 / (1 - quantile))),
		samples:  make([]TailSample, 0, capacity),
	}
}

// quantileBucketLocked returns the power-of-two bucket holding the
// quantile-th observation for kind.
func (ts *TailSampler) quantileBucketLocked(kind OpKind) int {
	target := uint64(math.Ceil(ts.quantile * float64(ts.counts[kind])))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range ts.buckets[kind] {
		cum += b
		if cum >= target {
			return i
		}
	}
	return NumBuckets - 1
}

// bucketLower returns the smallest latency of bucket i: the capture bar.
func bucketLower(i int) uint64 {
	if i == 0 {
		return 0
	}
	return BucketUpper(i-1) + 1
}

// Offer feeds one finished operation. It always updates the latency
// distribution; if the op clears the current quantile bar (and warmup
// has passed) its trace is copied into the ring, and Offer reports true.
// Nil-receiver- and nil-trace-safe.
func (ts *TailSampler) Offer(kind OpKind, tr *Trace) bool {
	if ts == nil || tr == nil {
		return false
	}
	lat := uint64(0)
	if d := tr.EndPs - tr.StartPs; d > 0 {
		lat = uint64(d)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.offered++
	ts.buckets[kind][bits.Len64(lat)]++
	ts.counts[kind]++
	if ts.counts[kind] <= ts.warmup || ts.counts[kind] < ts.minPop {
		return false
	}
	q, b := ts.quantileBucketLocked(kind), bits.Len64(lat)
	if b < q || lat == 0 || (b == q && float64(ts.captures[kind]) >= (1-ts.quantile)*float64(ts.counts[kind])) {
		return false
	}
	ts.captures[kind]++
	ts.seq++
	var slot *TailSample
	if len(ts.samples) < cap(ts.samples) {
		ts.samples = append(ts.samples, TailSample{Trace: new(Trace)})
		slot = &ts.samples[len(ts.samples)-1]
	} else {
		slot = &ts.samples[ts.next]
		ts.next = (ts.next + 1) % len(ts.samples)
	}
	// The capture is copied into the storage of the sample it evicts: once
	// the ring is full, a capture allocates nothing.
	events := append(slot.Trace.Events[:0], tr.Events...)
	*slot.Trace = *tr
	slot.Trace.Events = events
	slot.Kind, slot.LatencyPs, slot.ThresholdPs, slot.Seq = kind, lat, bucketLower(q), ts.seq
	ts.captured++
	return true
}

// Samples returns copies of the retained captures, newest first, each with
// its cause.
func (ts *TailSampler) Samples() []TailSample {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	n := len(ts.samples)
	out := make([]TailSample, 0, n)
	// Walk the ring backwards from the most recent write.
	start := n - 1
	if n == cap(ts.samples) {
		start = (ts.next - 1 + n) % n
	}
	for i := 0; i < n; i++ {
		s := ts.samples[(start-i+n)%n]
		s.Trace = s.Trace.Clone()
		out = append(out, s)
	}
	ts.mu.Unlock()
	for i := range out {
		out[i].Cause = Explain(out[i].Trace)
	}
	return out
}

// Stats reports how many ops were offered and how many were captured.
func (ts *TailSampler) Stats() (offered, captured uint64) {
	if ts == nil {
		return 0, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.offered, ts.captured
}

// Threshold returns the current capture bar for an op kind in
// picoseconds (0 before warmup).
func (ts *TailSampler) Threshold(kind OpKind) uint64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.counts[kind] <= ts.warmup || ts.counts[kind] < ts.minPop {
		return 0
	}
	return bucketLower(ts.quantileBucketLocked(kind))
}

// Counters exposes the sampler's totals for registry registration.
func (ts *TailSampler) Counters() map[string]uint64 {
	offered, captured := ts.Stats()
	return map[string]uint64{"offered": offered, "captured": captured}
}

// Explain derives a one-line cause from a trace: the stage that consumed
// the most virtual time, any faulted batches, and the recorder's local
// annotations (false positives, collisions, restarts), which name the
// event that bought the extra round trips.
func Explain(t *Trace) string {
	if t == nil {
		return ""
	}
	var stageDur [fabric.NumStages]int64
	var stageRT [fabric.NumStages]uint64
	// The first keep notes are told and the rest only counted, so a dropped
	// note is never formatted. A trace is explained on the path of the
	// operation it records, so the pieces of the line stay on the stack.
	const keep = 3
	notes, parts := make([]string, 0, keep+1), make([]string, 0, 3)
	faulted, more := 0, 0
	for _, e := range t.Events {
		switch {
		case e.Batch:
			if int(e.Stage) < fabric.NumStages {
				stageDur[e.Stage] += e.EndPs - e.StartPs
				stageRT[e.Stage] += e.RoundTrips
			}
			if e.Err != "" {
				faulted++
			}
		case e.note == "":
		case len(notes) < keep:
			notes = append(notes, e.Text())
		default:
			more++
		}
	}
	best := -1
	for i, d := range stageDur {
		if d > 0 && (best < 0 || d > stageDur[best]) {
			best = i
		}
	}
	if best >= 0 {
		parts = append(parts, fmt.Sprintf("dominant stage %s: %d rt, %.2fµs of %.2fµs",
			fabric.Stage(best), stageRT[best], us(stageDur[best]), us(t.EndPs-t.StartPs)))
	}
	if faulted > 0 {
		parts = append(parts, fmt.Sprintf("%d faulted batches", faulted))
	}
	if more > 0 {
		notes = append(notes, fmt.Sprintf("(+%d more notes)", more))
	}
	if len(notes) > 0 {
		parts = append(parts, strings.Join(notes, "; "))
	}
	if len(parts) == 0 {
		return "no batches recorded"
	}
	return strings.Join(parts, "; ")
}
