package fabric

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/mem"
)

// writeOps builds n single-byte writes of distinct values at consecutive
// offsets, so memory afterwards shows exactly which verbs executed.
func writeOps(id mem.NodeID, base uint64, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: Write, Addr: mem.NewAddr(id, base+uint64(i)), Data: []byte{byte(i + 1)}}
	}
	return ops
}

// executedPrefix counts how many of the n writes landed in memory.
func executedPrefix(f *Fabric, id mem.NodeID, base uint64, n int) int {
	buf := make([]byte, n)
	f.Region(id).Read(base, buf)
	for i := range buf {
		if buf[i] != byte(i+1) {
			return i
		}
	}
	return n
}

func TestTransientFaultExecutesPrefix(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 1, TransientPer64k: 65536})
	c := f.NewClient()
	err := c.Batch(writeOps(id, 0, 8))
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	st := c.Stats()
	if st.Transients != 1 {
		t.Errorf("Transients = %d, want 1", st.Transients)
	}
	// Exactly the verbs before the failing one executed, and the stats
	// agree with memory.
	if got := executedPrefix(f, id, 0, 8); uint64(got) != st.Verbs {
		t.Errorf("memory shows %d executed verbs, stats say %d", got, st.Verbs)
	}
	if st.Verbs >= 8 {
		t.Errorf("Verbs = %d, want < 8 (a verb must have failed)", st.Verbs)
	}
	if st.RoundTrips != 1 {
		t.Errorf("RoundTrips = %d, want 1 (failed batch still costs its trip)", st.RoundTrips)
	}
}

// TestExecutedNamesTheCutPrefix: a transient names the prefix of the poster's
// own batch that executed — memory shows exactly that many verbs — on a plain
// client and on each lane of a coalesced pipeline flush; every other outcome
// names none.
func TestExecutedNamesTheCutPrefix(t *testing.T) {
	sawCut := false
	for seed := uint64(1); seed <= 16; seed++ {
		f, id := newTestFabric(InstantConfig())
		f.SetFaultPlan(&FaultPlan{Seed: seed, TransientPer64k: 1 << 15})
		c := f.NewClient()
		err := c.Batch(writeOps(id, 0, 8))
		got, want := Executed(err), executedPrefix(f, id, 0, 8)
		if err == nil && want != 8 || err != nil && got != want {
			t.Errorf("seed %d: Executed(%v) = %d, memory shows %d", seed, err, got, want)
		}
		sawCut = sawCut || got > 0
	}
	if !sawCut {
		t.Error("no seed cut a batch after its first verb")
	}
	if Executed(nil) != 0 || Executed(ErrTimeout) != 0 || Executed(ErrTransient) != 0 {
		t.Error("Executed names verbs for an error that is no cut transient")
	}

	// Pipeline lanes: three lanes of four writes each share one flush; the lane
	// the cut falls inside sees its own share, the lanes before it no error.
	f := New(DefaultConfig())
	id := f.AddNode(1 << 20)
	f.SetFaultPlan(&FaultPlan{Seed: 5, TransientPer64k: 1 << 16})
	p := NewPipe(f.NewClient())
	lanes := []*Client{p.NewLane(), p.NewLane(), p.NewLane()}
	errs := make([]error, len(lanes))
	runLanes(p, lanes, func(i int, lane *Client) { errs[i] = lane.Batch(writeOps(id, uint64(64*i), 4)) })
	for i, err := range errs {
		if got, want := Executed(err), executedPrefix(f, id, uint64(64*i), 4); err == nil && want != 4 || err != nil && got != want {
			t.Errorf("lane %d: Executed(%v) = %d, memory shows %d", i, err, got, want)
		}
	}
}

func TestTimeoutExecutesFully(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 2, TimeoutPer64k: 65536, TimeoutPs: 5_000_000})
	c := f.NewClient()
	before := c.Clock()
	err := c.Batch(writeOps(id, 0, 4))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := executedPrefix(f, id, 0, 4); got != 4 {
		t.Errorf("%d/4 verbs executed; a timeout loses the completion, not the batch", got)
	}
	if st := c.Stats(); st.Timeouts != 1 || st.Verbs != 4 {
		t.Errorf("stats = %+v, want Timeouts=1 Verbs=4", st)
	}
	if waited := c.Clock() - before; waited < 5_000_000 {
		t.Errorf("clock advanced %d ps, want >= the 5ms timeout", waited)
	}
}

func TestDelayCompletesLate(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 3, DelayPer64k: 65536, DelayPs: 7_000_000})
	c := f.NewClient()
	before := c.Clock()
	if err := c.Batch(writeOps(id, 0, 2)); err != nil {
		t.Fatalf("a delay is not an error: %v", err)
	}
	if st := c.Stats(); st.Delays != 1 {
		t.Errorf("Delays = %d, want 1", st.Delays)
	}
	if waited := c.Clock() - before; waited < 7_000_000 {
		t.Errorf("clock advanced %d ps, want >= the 7ms spike", waited)
	}
}

func TestNodeDownWindow(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 4, Down: []DownWindow{{Node: id, FromPs: 0, ToPs: 1_000_000_000}}})
	c := f.NewClient()
	err := c.Batch(writeOps(id, 0, 3))
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if got := executedPrefix(f, id, 0, 3); got != 0 {
		t.Errorf("%d verbs executed against a down node", got)
	}
	if st := c.Stats(); st.NodeDownRejects != 1 || st.Verbs != 0 {
		t.Errorf("stats = %+v, want NodeDownRejects=1 Verbs=0", st)
	}
	// A retry loop's backoff advances the clock past the window, after
	// which the node is reachable again.
	c.AdvanceClock(1_000_000_000 - c.Clock())
	if err := c.Batch(writeOps(id, 0, 3)); err != nil {
		t.Fatalf("after the window: %v", err)
	}
	if got := executedPrefix(f, id, 0, 3); got != 3 {
		t.Errorf("%d/3 verbs executed after the window", got)
	}
}

// spanOps is n writes on node a and n on node b: one batch over two MNs.
// spanPrefix counts how many of them landed, in posting order.
func spanOps(a, b mem.NodeID, base uint64, n int) []Op {
	return append(writeOps(a, base, n), writeOps(b, base, n)...)
}

func spanPrefix(f *Fabric, a, b mem.NodeID, base uint64, n int) int {
	if got := executedPrefix(f, a, base, n); got < n {
		return got
	}
	return n + executedPrefix(f, b, base, n)
}

// TestAimedFault aims each kind of fault at each verb of a batch that spans
// two MNs, and past it into the next batch, with and without a plan. Verbs
// count from the batch after the aim. The verbs ahead of the aimed one run
// and Executed names them; a transient and a crash run no more; a timeout runs
// the whole batch and waits the timeout; a crash kills the client and charges
// no round trip; the shot fires once. Aimed from inside Trace, a shot counts
// from the batch after the one executing.
func TestAimedFault(t *testing.T) {
	const half = 3 // a batch is half verbs on each MN
	for _, plan := range []*FaultPlan{nil, {Seed: 3, TimeoutPs: 5_000_000}} {
		for _, kind := range []error{ErrTransient, ErrClientCrashed, ErrTimeout} {
			for at := 0; at < 4*half; at++ {
				name := fmt.Sprintf("plan %v, %v at verb %d", plan != nil, kind, at)
				f := New(InstantConfig())
				f.SetFaultPlan(plan)
				a, b := f.AddNode(1<<20), f.AddNode(1<<20)
				c := f.NewClient()
				if err := c.Batch(spanOps(a, b, 0, 1)); err != nil { // ahead of the aim: not counted
					t.Fatal(err)
				}
				c.FailAt(uint64(at), kind)
				base := uint64(64)
				if at >= 2*half { // aimed into the second batch: the first runs clean
					if err := c.Batch(spanOps(a, b, base, half)); err != nil || spanPrefix(f, a, b, base, half) != 2*half {
						t.Fatalf("%s: the batch ahead of the aimed one = %v", name, err)
					}
					base += 64
				}
				rt, clock := c.Stats().RoundTrips, c.Clock()
				err := c.Batch(spanOps(a, b, base, half))
				ran, executed, wantRT, wait := at%(2*half), at%(2*half), rt+1, int64(0)
				switch kind {
				case ErrClientCrashed:
					wantRT = rt
				case ErrTimeout:
					ran, executed, wait = 2*half, 0, plan.timeoutPs()
				}
				if got := spanPrefix(f, a, b, base, half); !errors.Is(err, kind) || got != ran || Executed(err) != executed {
					t.Errorf("%s: %v, %d verbs ran, Executed %d; want %d ran, Executed %d", name, err, got, Executed(err), ran, executed)
				}
				if st := c.Stats(); st.RoundTrips != wantRT || c.Clock()-clock != wait {
					t.Errorf("%s: %d round trips, %d ps waited; want %d, %d", name, st.RoundTrips-rt, c.Clock()-clock, wantRT-rt, wait)
				}
				err = c.Batch(spanOps(a, b, 512, half))
				if crashed := kind == ErrClientCrashed; crashed != errors.Is(err, ErrClientCrashed) || crashed != (err != nil) {
					t.Errorf("%s: the next batch = %v", name, err)
				} else if f.ClientCrashed(c.ID()) != crashed {
					t.Errorf("%s: the fabric's crash record says %v", name, !crashed)
				}
			}
		}
	}

	f, id := newTestFabric(InstantConfig())
	c := f.NewClient()
	f.Trace = func(cl *Client, _ *Op) {
		f.Trace = nil
		cl.FailAt(1, ErrTransient)
	}
	err1, err2 := c.Batch(writeOps(id, 0, 4)), c.Batch(writeOps(id, 64, 4))
	if err1 != nil || !errors.Is(err2, ErrTransient) || Executed(err2) != 1 || executedPrefix(f, id, 64, 4) != 1 {
		t.Errorf("aimed from Trace: %v, then %v; want the next batch cut after 1 verb", err1, err2)
	}
}

// TestAimedFaultLeavesTheRollsAlone: a client with a shot and a seeded plan
// meets the same rolled faults as its twin without one, on every batch but
// the one the shot took.
func TestAimedFaultLeavesTheRollsAlone(t *testing.T) {
	run := func(aim bool) (outcomes []string) {
		f, id := newTestFabric(InstantConfig())
		f.SetFaultPlan(&FaultPlan{Seed: 42, TransientPer64k: 1 << 14, DelayPer64k: 1 << 13})
		c := f.NewClient()
		if aim {
			c.FailAt(100, ErrTimeout)
		}
		for i := 0; i < 60; i++ {
			delays := c.Stats().Delays
			err := c.Batch(writeOps(id, uint64(8*i), 8))
			outcomes = append(outcomes, fmt.Sprint(err, Executed(err), c.Stats().Delays-delays))
		}
		return outcomes
	}
	twin, aimed, shots := run(false), run(true), 0
	for i := range twin {
		if strings.Contains(aimed[i], ErrTimeout.Error()) {
			shots++ // the plan rolls no timeouts: this batch is the shot's
		} else if aimed[i] != twin[i] {
			t.Errorf("batch %d: %s with the shot, %s without", i, aimed[i], twin[i])
		}
	}
	if shots != 1 {
		t.Errorf("the shot fired %d times, want once", shots)
	}
}

// TestFaultDeterminism: same plan seed, same workload → the same sequence
// of fault outcomes and the same final memory image.
func TestFaultDeterminism(t *testing.T) {
	run := func() ([]error, []byte, Stats) {
		f, id := newTestFabric(InstantConfig())
		f.SetFaultPlan(&FaultPlan{Seed: 42, TransientPer64k: 8192, TimeoutPer64k: 4096, DelayPer64k: 4096})
		c := f.NewClient()
		var errs []error
		for i := 0; i < 200; i++ {
			errs = append(errs, c.Batch(writeOps(id, uint64(8*i), 8)))
		}
		img := make([]byte, 8*200)
		f.Region(id).Read(0, img)
		return errs, img, c.Stats()
	}
	e1, m1, s1 := run()
	e2, m2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Transients == 0 || s1.Timeouts == 0 || s1.Delays == 0 {
		t.Fatalf("workload too small to exercise all fault classes: %+v", s1)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) ||
			(e1[i] != nil && e1[i].Error() != e2[i].Error()) {
			t.Fatalf("batch %d outcome diverged: %v vs %v", i, e1[i], e2[i])
		}
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("memory diverged at byte %d", i)
		}
	}
}

// TestZeroPlanIsFree: installing an all-zero plan changes no accounting
// relative to no plan at all — same round trips, verbs and virtual time.
func TestZeroPlanIsFree(t *testing.T) {
	run := func(install bool) (Stats, int64) {
		f, id := newTestFabric(DefaultConfig())
		if install {
			f.SetFaultPlan(&FaultPlan{Seed: 9})
		}
		c := f.NewClient()
		for i := 0; i < 50; i++ {
			if err := c.Batch(writeOps(id, uint64(8*i), 8)); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats(), c.Clock()
	}
	sNone, clkNone := run(false)
	sZero, clkZero := run(true)
	if sNone != sZero {
		t.Errorf("stats with zero plan %+v != without plan %+v", sZero, sNone)
	}
	if clkNone != clkZero {
		t.Errorf("clock with zero plan %d != without plan %d", clkZero, clkNone)
	}
}

// TestNICFaultCounters: injected faults are charged to the target NIC.
func TestNICFaultCounters(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 10, TransientPer64k: 65536})
	c := f.NewClient()
	for i := 0; i < 5; i++ {
		_ = c.Batch(writeOps(id, 0, 4))
	}
	stats := f.NICStats()
	if stats[0].Faults != 5 {
		t.Errorf("NIC faults = %d, want 5", stats[0].Faults)
	}
}

// TestBackoffDeterministicAndCapped: the shared backoff policy draws its
// jitter from the client's seeded stream and never exceeds its cap.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	seq := func() []int64 {
		f, _ := newTestFabric(InstantConfig())
		f.SetFaultPlan(&FaultPlan{Seed: 11})
		c := f.NewClient()
		bo := BackoffPolicy{BasePs: 1000, CapPs: 64_000, Budget: 20}.Start(c)
		var waits []int64
		prev := c.Clock()
		for bo.Wait() {
			waits = append(waits, c.Clock()-prev)
			prev = c.Clock()
		}
		return waits
	}
	w1, w2 := seq(), seq()
	if len(w1) != 20 {
		t.Fatalf("budget of 20 yielded %d waits", len(w1))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("wait %d diverged: %d vs %d", i, w1[i], w2[i])
		}
		if w1[i] <= 0 || w1[i] > 64_000 {
			t.Errorf("wait %d = %d ps outside (0, cap]", i, w1[i])
		}
	}
	// Exponential growth up to the cap: later waits dominate early ones.
	if w1[10] < w1[0] {
		t.Errorf("backoff not growing: wait[10]=%d < wait[0]=%d", w1[10], w1[0])
	}
}
