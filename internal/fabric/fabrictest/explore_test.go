package fabrictest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// The explorer's tests share one memory node: a counter word, and behind it
// a log of the counter's takers.
const counterOff, logOff = 4096, 4104

func exploreFabric() (*fabric.Fabric, mem.NodeID) {
	f := fabric.New(fabric.InstantConfig())
	return f, f.AddNode(1 << 16)
}

// replay runs p's schedule of three takers — each takes the counter six
// times, a batch per FAA, and writes its name into the log slot the FAA handed
// it, a batch more — with a crash aimed at the first taker's k-th verb when
// k ≥ 0. It returns the parks as text, the first taker's last park and error,
// and the log: the order the schedule let the takers through.
func replay(p Picker, k int) (parks string, last Step, err error, log string) {
	f, n := exploreFabric()
	errs := make([]error, 3)
	var procs []Proc
	for i := range errs {
		c := f.NewClient()
		procs = append(procs, Proc{C: c, Fn: func() {
			for r := 0; r < 6 && errs[i] == nil; r++ {
				var old uint64
				if old, errs[i] = c.FetchAdd(mem.NewAddr(n, counterOff), 1); errs[i] == nil {
					errs[i] = c.Write(mem.NewAddr(n, logOff+old), []byte{"abc"[i]})
				}
			}
		}})
	}
	if k >= 0 {
		procs[0].C.FailAt(uint64(k), fabric.ErrClientCrashed)
	}
	for _, s := range Run(f, p, procs...) {
		parks += fmt.Sprintf("%d:%d:%v:%v:%v ", s.Proc, s.K, s.Op.Kind, s.Op.Addr, s.Done)
		if s.Proc == 0 {
			last = s
		}
	}
	buf := make([]byte, 18)
	f.Region(n).Read(logOff, buf)
	return parks, last, errs[0], string(buf)
}

// TestSeededScheduleRepeats: one seed is one schedule — the same parks, verb
// for verb, and the same memory — and the seed picks it.
func TestSeededScheduleRepeats(t *testing.T) {
	logs := map[string]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		p1, last, _, l1 := replay(NewSeeded(seed), -1)
		if p2, _, _, l2 := replay(NewSeeded(seed), -1); p1 != p2 || l1 != l2 {
			t.Fatalf("seed %d ran two schedules:\n%s %q\n%s %q", seed, p1, l1, p2, l2)
		}
		if !last.Done || last.K != 12 {
			t.Errorf("seed %d: the first taker's last park %+v; want its end, after 12 parked verbs", seed, last)
		}
		logs[l1] = true
	}
	if len(logs) < 4 {
		t.Errorf("8 seeds let the takers through in %d orders; want the seed to pick the schedule", len(logs))
	}
}

// TestHoldScheduleRepeats: the hold picker is one schedule per seed and stay
// too, and it keeps a proc for stretches: at stay 16 the takers change hands
// far less often than under a uniform pick.
func TestHoldScheduleRepeats(t *testing.T) {
	switches := func(parks string) (n int) {
		prev := ""
		for _, p := range strings.Fields(parks) {
			if proc, _, _ := strings.Cut(p, ":"); proc != prev {
				n, prev = n+1, proc
			}
		}
		return n
	}
	held, uniform := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		p1, last, _, l1 := replay(NewHold(seed, 16), -1)
		if p2, _, _, l2 := replay(NewHold(seed, 16), -1); p1 != p2 || l1 != l2 {
			t.Fatalf("seed %d ran two schedules:\n%s %q\n%s %q", seed, p1, l1, p2, l2)
		}
		if !last.Done || last.K != 12 {
			t.Errorf("seed %d: the first taker's last park %+v; want its end, after 12 parked verbs", seed, last)
		}
		p3, _, _, _ := replay(NewSeeded(seed), -1)
		held, uniform = held+switches(p1), uniform+switches(p3)
	}
	if 3*held > uniform {
		t.Errorf("8 seeds changed hands %d times under hold(16), %d under a uniform pick; want stretches", held, uniform)
	}
}

// TestAimedCrashReplays: a crash aimed at a proc's k-th verb under a seeded
// schedule replays bit for bit, and the proc ends at park k — the point
// FailAt(k) names.
func TestAimedCrashReplays(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for k := 0; k < 12; k += 3 {
			p1, last, err, l1 := replay(NewSeeded(seed), k)
			if p2, _, _, l2 := replay(NewSeeded(seed), k); p1 != p2 || l1 != l2 {
				t.Fatalf("seed %d, crash at verb %d replayed differently:\n%s\n%s", seed, k, p1, p2)
			}
			if !errors.Is(err, fabric.ErrClientCrashed) || !last.Done || last.K != uint64(k) {
				t.Errorf("seed %d, crash at verb %d: %v, last park %+v; want the crash, ending at park %d", seed, k, err, last, k)
			}
		}
	}
}

// TestSwitchesEndPastTheOp: a switch at every batch boundary of a 3-batch
// operation lands 4 times — before the first batch, between each two, behind
// the last verb — and the fifth falls past the operation; at every park, 7
// times. A cut of each kind lands at each of its 6 verbs, and the seventh
// falls past it. At each landing the rival sees exactly the verbs ahead of
// it. A verb the client posted before the run is not one of the run's parks.
func TestSwitchesEndPastTheOp(t *testing.T) {
	// op runs the operation under p with a rival that reads the counter at
	// the switch, and returns what the rival saw and the operation's error.
	op := func(p Picker) (seen uint64, err error) {
		f, n := exploreFabric()
		c, rc := f.NewClient(), f.NewClient()
		counter := mem.NewAddr(n, counterOff)
		if err := c.Write(mem.NewAddr(n, logOff), []byte{1}); err != nil {
			t.Fatal(err)
		}
		var rerr error
		Run(f, p, Proc{C: c, Fn: func() {
			for i := 0; i < 3 && err == nil; i++ {
				err = c.Batch([]fabric.Op{{Kind: fabric.FAA, Addr: counter, Delta: 1}, {Kind: fabric.FAA, Addr: counter, Delta: 1}})
			}
		}}, Proc{C: rc, Fn: func() { seen, rerr = rc.ReadUint64(counter) }})
		if rerr != nil {
			t.Fatal(rerr)
		}
		return seen, err
	}
	for _, tc := range []struct {
		match func(Step) bool
		want  string
	}{{nil, "[0 1 2 3 4 5 6]"}, {AtBatchEnd, "[0 2 4 6]"}} {
		var at []uint64
		landed := Switches(tc.match, func(k int, sw *Script) {
			seen, err := op(sw)
			if err != nil {
				t.Fatal(err)
			}
			if sw.Turns[0].At == nil && seen != 6 || sw.Turns[0].At != nil && (sw.Turns[0].At.Proc != 0 || seen != sw.Turns[0].At.K) {
				t.Errorf("switch %d at %+v: the rival saw %d verbs", k, sw.Turns[0].At, seen)
			}
			if sw.Turns[0].At != nil {
				at = append(at, sw.Turns[0].At.K)
			}
		})
		if got := fmt.Sprint(at); got != tc.want || landed != len(at) {
			t.Errorf("%d switches landed, at %v; want %v", landed, at, tc.want)
		}
	}
	for _, kind := range []error{fabric.ErrClientCrashed, fabric.ErrTransient, fabric.ErrTimeout} {
		landed := Cuts(kind, func(cut *Cut) {
			seen, err := op(cut)
			switch {
			case cut.At == nil && (err != nil || seen != 6):
				t.Errorf("%v past the operation: %v, the rival saw %d verbs; want a clean run", kind, err, seen)
			case cut.At != nil && (!errors.Is(err, kind) || cut.At.Proc != 0 || cut.At.K != uint64(cut.K) || seen != cut.At.K):
				t.Errorf("%v at verb %d: %v, landed at %+v, the rival saw %d verbs", kind, cut.K, err, cut.At, seen)
			case cut.At != nil && (cut.Batch.Verbs != map[bool]int{false: cut.K % 2, true: 2}[kind == fabric.ErrTimeout]):
				t.Errorf("%v at verb %d cut a batch after %d of its verbs", kind, cut.K, cut.Batch.Verbs)
			}
		})
		if landed != 6 {
			t.Errorf("%d %v cuts landed; want one at each of the 6 verbs", landed, kind)
		}
	}
}

// TestLineParksTearAWrite: a proc marked for them parks between the lines of
// its multi-line WRITEs — two parks in a 3-line WRITE, none in a one-line one
// — at the K of the verbs ahead of the WRITE; an unmarked proc's WRITEs park
// only behind their verbs. (What a rival reads there, the torn image:
// mem.TestRegionMultiLineWritesCanTear.)
func TestLineParksTearAWrite(t *testing.T) {
	for lines, want := range map[bool]string{true: "[0/0 1/0 1/1 1/2 2/0]", false: "[0/0 1/0 2/0]"} {
		f, n := exploreFabric()
		c, at := f.NewClient(), mem.NewAddr(n, 2*mem.LineSize)
		var parks []string
		for _, s := range Run(f, &Script{}, Proc{C: c, Lines: lines, Fn: func() {
			for _, img := range [][]byte{{9}, make([]byte, 3*mem.LineSize)} {
				if err := c.Write(at, img); err != nil {
					t.Error(err)
				}
			}
		}}) {
			if !s.Done {
				parks = append(parks, fmt.Sprintf("%d/%d", s.K, s.Line))
			}
		}
		if got := fmt.Sprint(parks); got != want {
			t.Errorf("lines %v: parked at K/Line %s; want %s", lines, got, want)
		}
	}
}

// TestProcWithoutVerbs: procs that post nothing — a node's kill, a fault-plan
// edit — run whole where the schedule puts them, and the proc that posts meets
// their effect from its next batch on.
func TestProcWithoutVerbs(t *testing.T) {
	f, n := exploreFabric()
	plan := &fabric.FaultPlan{Seed: 1}
	f.SetFaultPlan(plan)
	c := f.NewClient()
	f.SetFaultPlan(nil)
	other := f.AddNode(1 << 16)
	var errs []error
	sw := Switch(2, AtBatchEnd)
	steps := Run(f, sw, Proc{C: c, Fn: func() {
		for _, node := range []mem.NodeID{n, n, other, n} {
			errs = append(errs, c.Write(mem.NewAddr(node, counterOff), []byte{1}))
		}
	}}, Proc{Fn: func() { f.KillNode(other) }}, Proc{Fn: func() { plan.TransientPer64k = 1 << 16 }})
	if sw.Turns[0].At == nil || sw.Turns[0].At.K != 2 {
		t.Fatalf("switch at %+v; want behind the second WRITE", sw.Turns[0].At)
	}
	if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], fabric.ErrNodeKilled) || !errors.Is(errs[3], fabric.ErrTransient) {
		t.Errorf("the WRITEs returned %v; want two landed, then the kill, then the plan's transient", errs)
	}
	if end := steps[len(steps)-1]; !end.Done || end.Proc != 0 || end.K != 2 {
		t.Errorf("last park %+v; want proc 0's end after its 2 executed verbs", end)
	}
}

// TestScriptTakesTurns: a script runs each turn's proc alone until its Until
// holds, passes over a turn whose proc ended first, and then runs what is
// left in order. Here taker b takes twice, a once, c all six times, then a
// and b finish.
func TestScriptTakesTurns(t *testing.T) {
	at := func(k uint64) func(Step) bool { return func(s Step) bool { return s.K == k } }
	s := &Script{Turns: []Turn{{Proc: 1, Until: at(4)}, {Proc: 0, Until: at(2)}, {Proc: 2, Until: at(99)}}}
	_, _, err, log := replay(s, -1)
	if err != nil {
		t.Fatal(err)
	}
	if want := "bbaccccccaaaaabbbb"; log != want {
		t.Errorf("takers went through as %q, want %q", log, want)
	}
	if a, b := s.Turns[0].At, s.Turns[1].At; a == nil || a.Proc != 1 || a.K != 4 || b == nil || b.Proc != 0 || b.K != 2 || s.Turns[2].At != nil {
		t.Errorf("turns ended at %+v, %+v, %+v; want b's 4th park, a's 2nd, none (c ended first)", a, b, s.Turns[2].At)
	}
}

// TestWaitParkHandsTheTurnOn: a lock waiter's poll is a park. The seeded and
// the hold picker hand the turn on there to another ready proc — under a hold
// that would otherwise keep the waiter for a million parks, it polls once and
// the proc it waits for runs — while a script keeps its turn as written, and
// the waiter spends its budget of 4 polls there.
func TestWaitParkHandsTheTurnOn(t *testing.T) {
	for name, tc := range map[string]struct {
		p     Picker
		polls int
	}{"hold": {NewHold(1, 1<<20), 1}, "seeded": {NewSeeded(2), 1}, "script": {&Script{Turns: []Turn{{Proc: 0}}}, 4}} {
		f, n := exploreFabric()
		w, h := f.NewClient(), f.NewClient()
		flag, ok := mem.NewAddr(n, counterOff), false
		steps := Run(f, tc.p, Proc{C: w, Fn: func() {
			b := fabric.BackoffPolicy{Budget: 4}.Start(w)
			for v, err := w.ReadUint64(flag); err == nil && !ok; v, err = w.ReadUint64(flag) {
				if ok = v == 1; !ok && !b.WaitHolder() {
					return
				}
			}
		}}, Proc{C: h, Fn: func() {
			if err := h.WriteUint64(flag, 1); err != nil {
				t.Error(err)
			}
		}})
		polls := 0
		for i, s := range steps {
			if s.Wait {
				if polls++; tc.polls == 1 && steps[i+1].Proc != 1 {
					t.Errorf("%s: the wait at %+v handed the turn to proc %d; want the writer", name, s, steps[i+1].Proc)
				}
			}
		}
		if polls != tc.polls || ok != (tc.polls == 1) {
			t.Errorf("%s: the waiter parked at %d waits and saw the flag: %v; want %d waits", name, polls, ok, tc.polls)
		}
	}
}
