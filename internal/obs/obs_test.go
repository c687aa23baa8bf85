package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sphinx/internal/fabric"
)

func TestHistogramBucketsAndSummary(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1010 {
		t.Fatalf("count=%d sum=%d, want 6, 1010", s.Count, s.Sum)
	}
	// bits.Len64 indexing: 0→bucket 0, 1→1, {2,3}→2, 4→3, 1000→10.
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1} {
		if s.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], want)
		}
	}
	if got := s.Mean(); got != 1010.0/6 {
		t.Errorf("mean = %v", got)
	}
	// The 50th percentile of 6 observations is the 3rd (value 2, bucket
	// 2, upper bound 3); the max lives in bucket 10 (upper bound 1023).
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if got := s.Max(); got != 1023 {
		t.Errorf("max = %d, want 1023", got)
	}
	if got := s.Quantile(1.0); got != 1023 {
		t.Errorf("p100 = %d, want 1023", got)
	}
}

func TestHistogramSubAndNegativeClamp(t *testing.T) {
	var h Histogram
	h.ObservePs(-5) // clamps to zero
	before := h.Snapshot()
	h.Observe(7)
	d := h.Snapshot().Sub(before)
	if d.Count != 1 || d.Sum != 7 || d.Buckets[3] != 1 || d.Buckets[0] != 0 {
		t.Errorf("diff = %+v", d)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Errorf("count = %d, want 8000", s.Count)
	}
}

func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	r.Begin("op", 0)
	r.Note(fabric.StageNone, 0, "note")
	r.ObserveBatch(fabric.BatchEvent{})
	r.End(0)
	if r.Trace() != nil {
		t.Error("nil recorder returned a trace")
	}
	// A live recorder before Begin drops events rather than panicking.
	live := NewRecorder()
	live.Note(fabric.StageNone, 0, "early")
	live.ObserveBatch(fabric.BatchEvent{})
	if live.Trace() != nil {
		t.Error("recorder had a trace before Begin")
	}
}

func TestRecorderTimelineAndFormat(t *testing.T) {
	r := NewRecorder()
	r.Begin("get K", 100)
	r.Note(fabric.StageFilterProbe, 100, "sfc probe hit: prefix %d/%d", 3, 7)
	r.ObserveBatch(fabric.BatchEvent{
		Stage: fabric.StageHashRead, StartPs: 100, EndPs: 2_100_000,
		Verbs: 2, Bytes: 128, RoundTrips: 1,
	})
	r.ObserveBatch(fabric.BatchEvent{
		Stage: fabric.StageLeafRead, StartPs: 2_100_000, EndPs: 4_200_000,
		Verbs: 1, Bytes: 64, RoundTrips: 1,
	})
	r.End(4_200_000)
	tr := r.Trace()
	if tr.RoundTrips() != 2 || tr.Verbs() != 3 || tr.Bytes() != 192 {
		t.Fatalf("totals rt=%d verbs=%d bytes=%d", tr.RoundTrips(), tr.Verbs(), tr.Bytes())
	}
	if len(tr.Events) != 3 || tr.Events[0].Batch || !tr.Events[1].Batch {
		t.Fatalf("events = %+v", tr.Events)
	}
	out := tr.Format()
	for _, want := range []string{"get K: 2 round trips, 3 verbs, 192 B", "sfc probe hit: prefix 3/7", "hash-read", "leaf-read"} {
		if !strings.Contains(out, want) {
			t.Errorf("format output missing %q:\n%s", want, out)
		}
	}
	if got := Explain(tr); !strings.Contains(got, "sfc probe hit: prefix 3/7") {
		t.Errorf("Explain = %q, missing the note with its numbers", got)
	}
	// A note's numbers are formatted when the trace is read, not recorded: an
	// always-armed recorder builds nothing per operation.
	if allocs := testing.AllocsPerRun(100, func() {
		r.BeginReuse("get K", 0)
		r.Note(fabric.StageFilterProbe, 0, "sfc probe hit: prefix %d/%d", 3, 700)
	}); allocs != 0 {
		t.Errorf("a note with numbers: %.0f allocs, want 0", allocs)
	}
}

func TestTeeFansOutAndSkipsNil(t *testing.T) {
	a, b := NewMetrics(), NewRecorder()
	b.Begin("op", 0)
	tee := Tee{A: a, B: b}
	tee.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageNodeRead, RoundTrips: 1, Verbs: 1})
	if a.StageRT(fabric.StageNodeRead).Sum != 1 {
		t.Error("metrics side missed the event")
	}
	if len(b.Trace().Events) != 1 {
		t.Error("recorder side missed the event")
	}
	Tee{}.ObserveBatch(fabric.BatchEvent{}) // both nil: no panic
}

func TestMetricsStageAndOpAccounting(t *testing.T) {
	m := NewMetrics()
	m.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageHashRead, RoundTrips: 1, Verbs: 2, Bytes: 128})
	m.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageHashRead, RoundTrips: 0, Verbs: 1, Bytes: 64})
	m.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageLeafRead, RoundTrips: 1, Verbs: 1, Bytes: 64,
		Err: fabric.ErrTransient})
	m.ObserveOp(OpGet, 4_000_000, 2)
	verbs, bytes, faults := m.StageCounters(fabric.StageHashRead)
	if verbs != 3 || bytes != 192 || faults != 0 {
		t.Errorf("hash-read counters = %d, %d, %d", verbs, bytes, faults)
	}
	if _, _, faults := m.StageCounters(fabric.StageLeafRead); faults != 1 {
		t.Errorf("leaf-read faults = %d, want 1", faults)
	}
	if got := m.StageRTTotal(); got != 2 {
		t.Errorf("stage RT total = %d, want 2", got)
	}
	if got := m.OpRTTotal(); got != 2 {
		t.Errorf("op RT total = %d, want 2", got)
	}
	if lat := m.OpLatency(OpGet); lat.Count != 1 || lat.Sum != 4_000_000 {
		t.Errorf("op latency = %+v", lat)
	}
}

func TestFieldsFlattening(t *testing.T) {
	type stats struct {
		RoundTrips uint64
		ByKind     [2]uint64
		RTTotal    uint64
		Name       string // ignored: not uint64
		small      uint64 // ignored: unexported
	}
	_ = stats{}.small
	got := Fields(&stats{RoundTrips: 7, ByKind: [2]uint64{1, 2}, RTTotal: 9})
	want := map[string]uint64{"round_trips": 7, "by_kind_0": 1, "by_kind_1": 2, "rt_total": 9}
	if len(got) != len(want) {
		t.Fatalf("fields = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if n := len(Fields((*stats)(nil))); n != 0 {
		t.Errorf("nil pointer yielded %d counters", n)
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"RoundTrips": "round_trips",
		"ByKind":     "by_kind",
		"RTTotal":    "rt_total",
		"Verbs":      "verbs",
		"BytesRead":  "bytes_read",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistrySnapshotDiffAndExport(t *testing.T) {
	var hits uint64
	m := NewMetrics()
	r := NewRegistry()
	r.AddCounters("cache", func() map[string]uint64 { return map[string]uint64{"hits": hits} })
	r.AddMetrics("sess", m)

	before := r.Snapshot()
	hits = 5
	m.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageHashRead, RoundTrips: 1, Verbs: 1, Bytes: 64})
	m.ObserveOp(OpPut, 1_000_000, 3)
	after := r.Snapshot()

	d := after.Sub(before)
	if d.Counters["cache_hits"] != 5 {
		t.Errorf("diffed cache_hits = %d, want 5", d.Counters["cache_hits"])
	}
	key := `sess_op_round_trips{op="put"}`
	if h, ok := d.Hists[key]; !ok || h.Sum != 3 {
		t.Errorf("diffed %s = %+v (present %v)", key, d.Hists[key], ok)
	}
	// Histograms with zero observations stay out of the export.
	if _, ok := after.Hists[`sess_op_round_trips{op="scan"}`]; ok {
		t.Error("empty histogram was exported")
	}

	var prom strings.Builder
	if err := after.WritePrometheus(&prom, "t"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"t_cache_hits 5",
		`t_sess_stage_verbs{stage="hash-read"} 1`,
		`t_sess_op_round_trips_bucket{op="put",le="3"} 1`,
		`t_sess_op_round_trips_bucket{op="put",le="+Inf"} 1`,
		`t_sess_op_round_trips_sum{op="put"} 3`,
		`t_sess_op_round_trips_count{op="put"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}

	var js strings.Builder
	if err := after.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters map[string]uint64          `json:"counters"`
		Hists    map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	if decoded.Counters["cache_hits"] != 5 || len(decoded.Hists) == 0 {
		t.Errorf("JSON export = %+v", decoded)
	}
}

// TestSnapshotSubReadsLikeAFreshSet diffs one long-lived metric set over a
// second interval and compares it with a set made for that interval: a
// stage or op the interval did not move is absent from both, histograms
// and the stage's verbs / bytes / faults triple alike.
func TestSnapshotSubReadsLikeAFreshSet(t *testing.T) {
	long, fresh := NewMetrics(), NewMetrics()
	rl, rf := NewRegistry(), NewRegistry()
	rl.AddMetrics("bench", long)
	rf.AddMetrics("bench", fresh)

	long.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageLock, RoundTrips: 1, Verbs: 2, Bytes: 16})
	long.ObserveOp(OpPut, 3_000_000, 2)
	start := rl.Snapshot()
	for _, m := range []*Metrics{long, fresh} {
		m.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageHashRead, RoundTrips: 1, Verbs: 1, Bytes: 64})
		m.ObserveBatch(fabric.BatchEvent{Stage: fabric.StageLeafRead, Verbs: 1, Err: fabric.ErrTransient})
		m.ObserveOp(OpGet, 1_000_000, 2)
	}
	diff, want := rl.Snapshot().Sub(start), rf.Snapshot()
	if !reflect.DeepEqual(diff, want) {
		t.Errorf("diff over the interval:\n%+v\nset made for it:\n%+v", diff, want)
	}
	if _, ok := diff.Counters[`bench_stage_verbs{stage="lock"}`]; ok {
		t.Error("the lock stage's counters survived an interval that did not move them")
	}
	if _, ok := diff.Counters[`bench_stage_faults{stage="hash-read"}`]; !ok {
		t.Error("a moved stage's zero fault counter is missing")
	}
}
