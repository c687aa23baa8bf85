package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sphinx/internal/fabric"
)

// fakeMNs is a mutable collector backing for plane tests.
type fakeMNs struct {
	mu      sync.Mutex
	samples []MNSample
}

func (f *fakeMNs) set(s ...MNSample) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.samples = append(f.samples[:0], s...)
}

func (f *fakeMNs) collect() []MNSample {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]MNSample, len(f.samples))
	copy(out, f.samples)
	return out
}

// TestPlaneWindowedDeltas checks that the plane differences cumulative
// NIC counters per tick and derives busy ratio and verb share.
func TestPlaneWindowedDeltas(t *testing.T) {
	f := &fakeMNs{}
	p, err := NewPlane(PlaneOptions{WindowPs: 1000, Windows: 8, Collect: f.collect})
	if err != nil {
		t.Fatal(err)
	}
	f.set(
		MNSample{NICStats: fabric.NICStats{Node: 0, Verbs: 100, RoundTrips: 40, BusyPs: 500}, Member: true, Health: "closed"},
		MNSample{NICStats: fabric.NICStats{Node: 1, Verbs: 100, RoundTrips: 30, BusyPs: 300}, Member: true, Health: "closed"},
	)
	p.Tick(1000)
	// Second tick: node 0 did 300 more verbs, node 1 did 100.
	f.set(
		MNSample{NICStats: fabric.NICStats{Node: 0, Verbs: 400, RoundTrips: 90, BusyPs: 1300}, Member: true, Health: "closed"},
		MNSample{NICStats: fabric.NICStats{Node: 1, Verbs: 200, RoundTrips: 50, BusyPs: 500}, Member: true, Health: "closed"},
	)
	p.Tick(2000)

	snap := p.Snapshot()
	if len(snap.Nodes) != 2 || snap.Ticks != 2 {
		t.Fatalf("snapshot nodes=%d ticks=%d", len(snap.Nodes), snap.Ticks)
	}
	n0 := snap.Nodes[0]
	if n0.Node != 0 || n0.WindowVerbs != 300 || n0.WindowRTs != 50 {
		t.Fatalf("node0 = %+v", n0)
	}
	if n0.VerbShare != 0.75 {
		t.Fatalf("node0 verb share = %v, want 0.75", n0.VerbShare)
	}
	if n0.BusyRatio != 0.8 { // 800 busy ps over dt=1000
		t.Fatalf("node0 busy ratio = %v, want 0.8", n0.BusyRatio)
	}
	if n0.Verbs != 400 || n0.RoundTrips != 90 {
		t.Fatalf("node0 cumulative = %+v", n0)
	}
	if len(n0.BusyWindows) != 2 || n0.BusyWindows[1].Last != 0.8 {
		t.Fatalf("node0 busy windows = %+v", n0.BusyWindows)
	}
	if snap.Nodes[1].VerbShare != 0.25 {
		t.Fatalf("node1 verb share = %v", snap.Nodes[1].VerbShare)
	}
}

// TestSLOBurn drives the SLO engine with scripted histograms: burn 0
// while within objective, fast burn spikes on violation, slow burn
// smooths it, attainment accumulates.
func TestSLOBurn(t *testing.T) {
	var h Histogram
	slo := SLO{Name: "read-p99", Op: OpGet, Quantile: 0.99, LatencyPs: 1 << 20}
	f := &fakeMNs{}
	f.set(MNSample{NICStats: fabric.NICStats{Node: 0}, Member: true, Health: "closed"})
	p, err := NewPlane(PlaneOptions{
		WindowPs: 1000, Windows: 8, Collect: f.collect,
		Latency: func(OpKind) HistSnapshot { return h.Snapshot() },
		SLOs:    []SLO{slo}, SlowWindows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Tick 1: 100 good ops.
	for i := 0; i < 100; i++ {
		h.Observe(1000) // well under the 1<<20 ps threshold
	}
	p.Tick(1000)
	s := p.SLOStatuses()[0]
	if s.FastBurn != 0 || s.SlowBurn != 0 || s.WindowOps != 100 || s.WindowBad != 0 {
		t.Fatalf("steady status = %+v", s)
	}
	if s.Attainment != 1 {
		t.Fatalf("attainment = %v", s.Attainment)
	}

	// Tick 2: 50 good, 50 bad → error rate 0.5, budget 0.01, burn 50.
	for i := 0; i < 50; i++ {
		h.Observe(1000)
		h.Observe(1 << 30)
	}
	p.Tick(2000)
	s = p.SLOStatuses()[0]
	if s.WindowOps != 100 || s.WindowBad != 50 {
		t.Fatalf("violation window = %+v", s)
	}
	if s.FastBurn < 49.9 || s.FastBurn > 50.1 {
		t.Fatalf("fast burn = %v, want ~50", s.FastBurn)
	}
	// Slow burn spans both ticks: 50 bad / 200 ops / 0.01 = 25.
	if s.SlowBurn < 24.9 || s.SlowBurn > 25.1 {
		t.Fatalf("slow burn = %v, want ~25", s.SlowBurn)
	}

	// Tick 3: idle window → fast burn back to 0, totals preserved.
	p.Tick(3000)
	s = p.SLOStatuses()[0]
	if s.FastBurn != 0 || s.WindowOps != 0 {
		t.Fatalf("idle status = %+v", s)
	}
	if s.TotalOps != 200 || s.TotalBad != 50 {
		t.Fatalf("totals = %+v", s)
	}
	if s.Attainment != 0.75 {
		t.Fatalf("attainment = %v, want 0.75", s.Attainment)
	}
}

// TestAlertHysteresis checks fire-after-N-ticks, resolve-after-clear
// hysteresis, transition counters, and vanished-label resolution.
func TestAlertHysteresis(t *testing.T) {
	f := &fakeMNs{}
	p, err := NewPlane(PlaneOptions{
		WindowPs: 1000, Windows: 8, Collect: f.collect,
		Rules: []Rule{{Name: "hot", Signal: "nic_busy_ratio", Over: 0.8, ForTicks: 3, ClearTicks: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	busy := func(ps int64) { // one node whose busy delta per 1000-ps tick is ps
		cur := f.collect()
		var prev MNSample
		if len(cur) > 0 {
			prev = cur[0]
		}
		prev.Node = 0
		prev.Member = true
		prev.Health = "closed"
		prev.BusyPs += ps
		f.set(prev)
	}
	now := int64(0)
	tick := func(ps int64) {
		busy(ps)
		now += 1000
		p.Tick(now)
	}

	tick(400) // ratio 0.4: inactive
	if a := p.Alerts()[0]; a.State != AlertInactive {
		t.Fatalf("state after ok tick = %v", a.State)
	}
	tick(900) // violation 1: pending
	tick(900) // violation 2: pending
	if a := p.Alerts()[0]; a.State != AlertPending || a.Fired != 0 {
		t.Fatalf("pre-fire alert = %+v", a)
	}
	tick(900) // violation 3: fires
	a := p.Alerts()[0]
	if a.State != AlertFiring || a.Fired != 1 || a.SincePs != now {
		t.Fatalf("fired alert = %+v (now=%d)", a, now)
	}
	if a.Rule != "hot" || a.Label != "0" || a.Value != 0.9 {
		t.Fatalf("alert identity = %+v", a)
	}
	tick(900) // still firing, Fired stays 1
	if a := p.Alerts()[0]; a.State != AlertFiring || a.Fired != 1 {
		t.Fatalf("refire? %+v", a)
	}
	tick(100) // ok 1: still firing (ClearTicks 2)
	if a := p.Alerts()[0]; a.State != AlertFiring || a.Resolved != 0 {
		t.Fatalf("resolved too early: %+v", a)
	}
	tick(100) // ok 2: resolves
	a = p.Alerts()[0]
	if a.State != AlertInactive || a.Resolved != 1 || a.Fired != 1 {
		t.Fatalf("post-resolve alert = %+v", a)
	}

	// Fire again, then remove the node entirely: the vanished label
	// counts as condition-false and the alert resolves.
	tick(900)
	tick(900)
	tick(900)
	if a := p.Alerts()[0]; a.State != AlertFiring || a.Fired != 2 {
		t.Fatalf("second fire = %+v", a)
	}
	f.set() // node gone
	now += 1000
	p.Tick(now)
	now += 1000
	p.Tick(now)
	if a := p.Alerts()[0]; a.State != AlertInactive || a.Resolved != 2 {
		t.Fatalf("vanished-label resolve = %+v", a)
	}
}

// TestAlertOrderIsDeterministic feeds identical engines the same
// 8-label signal map: /alerts, Cluster.Alerts() and the bench reports
// list alerts in first-seen order, so that order must not depend on Go's
// map iteration.
func TestAlertOrderIsDeterministic(t *testing.T) {
	signals := map[string]map[string]float64{"nic_busy_ratio": {}}
	for n := 0; n < 8; n++ {
		signals["nic_busy_ratio"][fmt.Sprint(n)] = 0.1 * float64(n)
	}
	labelsOf := func() string {
		e := newAlertEngine([]Rule{{Name: "hot", Signal: "nic_busy_ratio", Over: 0.8}})
		e.tick(1000, signals)
		var labels []string
		for _, a := range e.alerts() {
			labels = append(labels, a.Label)
		}
		return strings.Join(labels, ",")
	}
	want := labelsOf()
	if want != "0,1,2,3,4,5,6,7" {
		t.Errorf("alert order = %s, want the labels sorted", want)
	}
	for run := 1; run < 20; run++ {
		if got := labelsOf(); got != want {
			t.Fatalf("run %d listed alerts as %s, run 0 as %s", run, got, want)
		}
	}
}

// TestPlaneRegisterFamilies checks the mn_* / slo_* / alert_* exports
// land in the registry snapshot and render as labeled Prometheus
// families.
func TestPlaneRegisterFamilies(t *testing.T) {
	var h Histogram
	f := &fakeMNs{}
	f.set(MNSample{NICStats: fabric.NICStats{Node: 0, Verbs: 10, RoundTrips: 5}, Member: true, Health: "closed",
		ArenaUsed: 256, ArenaCap: 1024, HashLoad: 0.5})
	p, err := NewPlane(PlaneOptions{
		WindowPs: 1000, Windows: 4, Collect: f.collect,
		Latency: func(OpKind) HistSnapshot { return h.Snapshot() },
		SLOs:    []SLO{{Name: "read-p99", Op: OpGet, Quantile: 0.99, LatencyPs: 1 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Tick(1000)

	r := NewRegistry()
	p.Register(r)
	snap := r.Snapshot()
	for _, k := range []string{
		`mn_busy_ratio{node="0"}`,
		`mn_arena_occupancy{node="0"}`,
		`slo_fast_burn{slo="read-p99"}`,
		`alert_firing`,
	} {
		if _, ok := snap.Gauges[k]; !ok {
			t.Fatalf("gauge %q missing; have %v", k, snap.Gauges)
		}
	}
	if got := snap.Counters[`mn_verbs_total{node="0"}`]; got != 10 {
		t.Fatalf("mn_verbs_total = %d", got)
	}
	if snap.Gauges[`mn_arena_occupancy{node="0"}`] != 0.25 {
		t.Fatalf("arena occupancy = %v", snap.Gauges[`mn_arena_occupancy{node="0"}`])
	}
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb, "sphinx"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`sphinx_mn_busy_ratio{node="0"}`,
		`sphinx_slo_attainment{slo="read-p99"} 1`,
		`sphinx_alert_firing 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	// Concurrent scrape vs tick is race-clean.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			p.Tick(int64(i+2) * 1000)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
			_ = p.Snapshot()
		}
	}()
	wg.Wait()

	// The nil plane (observability disabled) is inert.
	var np *Plane
	np.Tick(1)
	if np.Alerts() != nil || np.SLOStatuses() != nil || len(np.Snapshot().Nodes) != 0 {
		t.Fatal("nil plane not inert")
	}
}
