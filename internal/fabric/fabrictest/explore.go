package fabrictest

import (
	"errors"
	"slices"

	"sphinx/internal/fabric"
)

// The schedule explorer. Procs — a client and the function that drives it —
// run one at a time, each on a goroutine of its own, and a proc's client
// parks after every verb it executes, on Fabric.Trace's call site. After
// every park a Picker names the proc that runs next, so a run is one
// interleaving of the procs' verbs, and a pure function of the fault plan's
// seed, the faults aimed with FailAt (Cut) and the picker. Two more kinds of
// park are not verbs: a lock waiter parks at each poll (Fabric.Wait), and a
// proc marked for them between the 64-byte lines of a multi-line WRITE
// (Fabric.Line), where memory holds a half-landed image.

// Proc is one thread of a schedule. Fn runs on a goroutine of its own, so it
// reports failures with t.Error; C's verbs park it. A proc with a nil C parks
// nowhere — a KillNode, a fault-plan edit, a rival run whole — and runs to
// its end where it is picked. Lines parks C between the lines of its WRITEs.
type Proc struct {
	C     *fabric.Client
	Fn    func()
	Lines bool
}

// Step is one park of a run.
type Step struct {
	Proc int // index into Run's procs
	// K is the verbs the proc's client has executed since the run began, so
	// park K is the point FailAt(K, …), aimed at the run's start, cuts at.
	K        uint64
	Op       fabric.Op    // the verb executed last, its result filled in; zero at K 0 and at a wait
	Stage    fabric.Stage // the client's stage at that verb
	BatchEnd bool         // Op was the last verb of its batch to execute; true at K 0
	// Line is, at a line park, how many lines of Op — the WRITE in flight,
	// not yet among the K — have landed; the rest have not.
	Line int
	Wait bool // a lock waiter's poll (Backoff.WaitHolder), between two batches
	Done bool // Fn returned
}

// atVerb says s is a verb's park or the run's opening one: neither a line
// nor a wait park.
func (s Step) atVerb() bool { return s.Line == 0 && !s.Wait }

// Verbs is proc's verb parks among a run's steps, in the order its verbs
// executed: at each, what executed so far.
func Verbs(steps []Step, proc int) []Step {
	var vs []Step
	for _, s := range steps {
		if s.Proc == proc && s.K > 0 && s.atVerb() && !s.Done {
			vs = append(vs, s)
		}
	}
	return vs
}

// AtBatchEnd accepts the parks between two batches.
func AtBatchEnd(s Step) bool { return s.BatchEnd }

// A Picker names, after every park, the proc that runs next: an element of
// ready, the unfinished procs in ascending order; last is the park just taken.
type Picker interface {
	Pick(last Step, ready []int) int
}

// Run runs procs to their ends under p, one at a time, and returns the parks
// in the order they were taken. The run opens parked at proc 0's start (K 0,
// not a verb); the others start where p first picks them. Under a Cut, proc
// 0's client meets the cut's fault.
func Run(f *fabric.Fabric, p Picker, procs ...Proc) []Step {
	type proc struct {
		k, base uint64
		lines   bool
		resume  chan struct{}
	}
	parked := make(chan Step)
	byClient := make(map[*fabric.Client]int, len(procs))
	ps := make([]proc, len(procs))
	ready := make([]int, len(procs))
	for i, pr := range procs {
		ps[i].resume, ps[i].lines, ready[i] = make(chan struct{}), pr.Lines, i
		if pr.C != nil {
			ps[i].base, byClient[pr.C] = pr.C.Posted(), i
		}
		go func() {
			<-ps[i].resume
			defer func() { parked <- Step{Proc: i, K: ps[i].k, Done: true} }()
			pr.Fn()
		}()
	}
	if cut, ok := p.(*Cut); ok {
		defer cut.aim(procs[0].C)()
	}
	park := func(c *fabric.Client, s Step) {
		if i, ok := byClient[c]; ok && (s.Line == 0 || ps[i].lines) {
			s.Proc, s.K, s.Stage = i, ps[i].k, c.Stage()
			parked <- s
			<-ps[i].resume
		}
	}
	prev := f.Trace
	defer func() { f.Trace, f.Line, f.Wait, f.Scheduled = prev, nil, nil, false }()
	f.Trace = func(c *fabric.Client, op *fabric.Op) {
		if prev != nil {
			prev(c, op)
		}
		if i, ok := byClient[c]; ok {
			ps[i].k++
			park(c, Step{Op: *op, BatchEnd: c.Posted()-ps[i].base == ps[i].k})
		}
	}
	f.Line = func(c *fabric.Client, op *fabric.Op, line int) { park(c, Step{Op: *op, Line: line}) }
	f.Wait = func(c *fabric.Client) { park(c, Step{Wait: true}) }
	f.Scheduled = true
	steps := []Step{{BatchEnd: true}}
	for len(ready) > 0 {
		ps[p.Pick(steps[len(steps)-1], ready)].resume <- struct{}{}
		s := <-parked
		if steps = append(steps, s); s.Done {
			ready = slices.DeleteFunc(ready, func(i int) bool { return i == s.Proc })
		}
	}
	return steps
}

// Seeded picks uniformly among the ready procs from a splitmix64 stream:
// one seed, one schedule. A waiter's park hands the turn to another ready
// proc, where there is one: a lock's holder runs when a waiter waits.
type Seeded struct{ rng uint64 }

// NewSeeded returns the picker of seed's schedule.
func NewSeeded(seed uint64) *Seeded { return &Seeded{rng: seed} }

// Pick draws the next proc.
func (s *Seeded) Pick(last Step, ready []int) int {
	if !last.Wait || len(ready) == 1 {
		return ready[s.next()%uint64(len(ready))]
	}
	i, _ := slices.BinarySearch(ready, last.Proc)
	return ready[(i+1+int(s.next()%uint64(len(ready)-1)))%len(ready)]
}

// next draws from the stream.
func (s *Seeded) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := (s.rng ^ s.rng>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Hold is Seeded with stretches: after each park it keeps the proc that just
// parked unless a draw from the stream says to pick again (one in stay), then
// picks uniformly. A proc runs for stay parks on average, far ahead of the
// others — mid-protocol while they are parked for long, the interleavings of
// a descheduled lock holder that a uniform pick almost never draws.
type Hold struct {
	Seeded
	stay uint64
}

// NewHold returns the picker of seed's schedule with stretches of stay parks.
func NewHold(seed, stay uint64) *Hold { return &Hold{Seeded{seed}, stay} }

// Pick keeps the last proc or draws the next; a waiter's turn is handed on.
func (h *Hold) Pick(last Step, ready []int) int {
	if !last.Done && !last.Wait && h.next()%h.stay != 0 && slices.Contains(ready, last.Proc) {
		return last.Proc
	}
	return h.Seeded.Pick(last, ready)
}

// Script runs its procs by turns: a turn runs its proc alone until a park of
// it that Until accepts — the park the proc stands at when the turn begins
// counts, so a turn can end before its proc runs — or, with a nil Until, to
// its end; then the next turn begins. A turn whose proc has ended is passed
// over. Once the turns are used up, the unfinished procs run to their ends in
// order, from the one after the last turn's proc round to the front. The park
// a turn ended at is its At; nil means the proc ended first, or the turn
// never came.
type Script struct {
	Turns []Turn
	turn  int
}

// Turn is one turn of a Script.
type Turn struct {
	Proc  int
	Until func(Step) bool
	At    *Step
}

// Pick keeps to the current turn's proc until its Until holds.
func (s *Script) Pick(last Step, ready []int) int {
	for ; s.turn < len(s.Turns); s.turn++ {
		t := &s.Turns[s.turn]
		if !slices.Contains(ready, t.Proc) {
			continue
		}
		if last.Proc == t.Proc && t.Until != nil && t.Until(last) {
			t.At = &last
			continue
		}
		return t.Proc
	}
	i := 0
	if len(s.Turns) > 0 {
		i, _ = slices.BinarySearch(ready, s.Turns[len(s.Turns)-1].Proc+1)
	}
	return ready[i%len(ready)]
}

// Switch is the script that runs proc 0 alone up to the k-th of its verb
// parks that match accepts (from 0, the run's opening park included; a nil
// match accepts every verb park), switches there to the others once and runs
// them to their ends, then proc 0 to its end. Turns[0].At is the park the
// switch was taken at; nil means it fell past proc 0's operation, and the
// others ran behind it.
func Switch(k int, match func(Step) bool) *Script {
	return &Script{Turns: []Turn{{Proc: 0, Until: func(s Step) bool {
		if !s.atVerb() || match != nil && !match(s) {
			return false
		}
		k--
		return k < 0
	}}}}
}

// Switches hands run k and a Switch at k, for k = 0, 1, … of the parks match
// accepts — run calls Run with it — until one falls past the operation, and
// returns how many landed.
func Switches(match func(Step) bool, run func(int, *Script)) int {
	for k := 0; ; k++ {
		sw := Switch(k, match)
		if run(k, sw); sw.Turns[0].At == nil {
			return k
		}
	}
}

// Cut is the schedule of one cut point: a fault of kind Kind aimed at proc
// 0's K-th verb (Client.FailAt, from the run's start), and the Switch at the
// park it cuts at — park K — so the others run where the fault cut. After the
// run At is that park, the verb that executed last ahead of the fault (the
// run's opening park at K 0), and Batch the batch the fault cut: its stage,
// and in Verbs how many of its verbs executed — 0 where the cut fell at its
// first verb, all of them at a timeout. A nil At means the fault fell past the
// operation: proc 0 ended without meeting it, and the run was clean. (During
// the run, the others read the park they were switched in at off
// Turns[0].At.) The cut
// is told by the first batch of proc 0's to end in a fault of the kind (Run
// watches its client's batches beside the observer it has), so its fault
// plan, if any, must roll none.
type Cut struct {
	K     int
	Kind  error
	At    *Step
	Batch fabric.BatchEvent
	Script
}

// cutWatch is a Cut's batch observer, in front of the client's own.
type cutWatch struct {
	prev fabric.BatchObserver
	cut  *Cut
}

// ObserveBatch keeps the first batch the cut's fault ended.
func (w *cutWatch) ObserveBatch(ev fabric.BatchEvent) {
	if w.prev != nil {
		w.prev.ObserveBatch(ev)
	}
	if w.cut.Batch.Err == nil && errors.Is(ev.Err, w.cut.Kind) {
		w.cut.Batch = ev
	}
}

// aim aims the cut's fault at c and returns what settles At after the run.
func (cut *Cut) aim(c *fabric.Client) func() {
	w := &cutWatch{prev: c.Observer(), cut: cut}
	c.SetObserver(w)
	c.FailAt(uint64(cut.K), cut.Kind)
	return func() {
		if c.SetObserver(w.prev); cut.Batch.Err != nil {
			cut.At = cut.Turns[0].At
		}
	}
}

// CutAt is the cut of a fault of kind at proc 0's k-th verb.
func CutAt(k int, kind error) *Cut { return &Cut{K: k, Kind: kind, Script: *Switch(k, nil)} }

// Cuts hands run a Cut of kind at k, for k = 0, 1, … — run calls Run with it
// — until one falls past the operation, and returns how many landed: every
// cut point of the operation, each found by its own run, none counted ahead.
func Cuts(kind error, run func(*Cut)) int {
	for k := 0; ; k++ {
		cut := CutAt(k, kind)
		if run(cut); cut.At == nil {
			return k
		}
	}
}
