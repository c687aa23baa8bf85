package fabric

import (
	"errors"
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
// client, on one that posts verb by verb (the batching ablation) and on each
// lane of a coalesced pipeline flush; every other outcome names none.
func TestExecutedNamesTheCutPrefix(t *testing.T) {
	sawCut := false
	for seed := uint64(1); seed <= 16; seed++ {
		for _, noBatch := range []bool{false, true} {
			f, id := newTestFabric(InstantConfig())
			f.SetFaultPlan(&FaultPlan{Seed: seed, TransientPer64k: 1 << 15})
			c := f.NewClient()
			c.SetNoBatch(noBatch)
			err := c.Batch(writeOps(id, 0, 8))
			got, want := Executed(err), executedPrefix(f, id, 0, 8)
			if err == nil && want != 8 || err != nil && got != want {
				t.Errorf("seed %d, no batch %v: Executed(%v) = %d, memory shows %d", seed, noBatch, err, got, want)
			}
			sawCut = sawCut || got > 0
		}
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

func TestCrashAfterVerbs(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 5, CrashAfterVerbs: map[int]uint64{0: 3}})
	c := f.NewClient()
	if c.ID() != 0 {
		t.Fatalf("first client ID = %d, want 0", c.ID())
	}
	if err := c.Batch(writeOps(id, 0, 2)); err != nil {
		t.Fatalf("verbs 1-2 are before the crash point: %v", err)
	}
	err := c.Batch(writeOps(id, 2, 2))
	if !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("err = %v, want ErrClientCrashed", err)
	}
	if !c.Crashed() {
		t.Error("client not marked crashed")
	}
	// Verb 3 (the first of the second batch) executed; verb 4 did not.
	if got := executedPrefix(f, id, 2, 2); got != 1 {
		t.Errorf("second batch executed %d verbs, want 1", got)
	}
	// The client is dead for good.
	if err := c.Batch(writeOps(id, 8, 1)); !errors.Is(err, ErrClientCrashed) {
		t.Errorf("post-crash batch err = %v, want ErrClientCrashed", err)
	}
}

// TestNoBatchStopsAtFailingVerb pins SetNoBatch's error propagation: when
// batching is disabled, each verb is its own batch, and the first failing
// verb must stop the remaining ones.
func TestNoBatchStopsAtFailingVerb(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 6, CrashAfterVerbs: map[int]uint64{0: 2}})
	c := f.NewClient()
	c.SetNoBatch(true)
	err := c.Batch(writeOps(id, 0, 6))
	if !errors.Is(err, ErrClientCrashed) {
		t.Fatalf("err = %v, want ErrClientCrashed", err)
	}
	if got := executedPrefix(f, id, 0, 6); got != 2 {
		t.Errorf("%d verbs executed, want exactly 2 (verbs after the failure must not run)", got)
	}
	if st := c.Stats(); st.Verbs != 2 {
		t.Errorf("Verbs = %d, want 2", st.Verbs)
	}
}

// TestNoBatchTransientStopsRemaining is the same property under a
// probabilistic fault: once a sub-batch fails transiently, no later verb
// of the original batch may execute.
func TestNoBatchTransientStopsRemaining(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 7, TransientPer64k: 65536})
	c := f.NewClient()
	c.SetNoBatch(true)
	err := c.Batch(writeOps(id, 0, 5))
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	// Always-transient single-verb batches execute nothing at all.
	if got := executedPrefix(f, id, 0, 5); got != 0 {
		t.Errorf("%d verbs executed, want 0", got)
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
