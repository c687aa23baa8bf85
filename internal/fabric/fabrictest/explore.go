package fabrictest

import (
	"slices"

	"sphinx/internal/fabric"
)

// The schedule explorer. Procs — a client and the function that drives it —
// run one at a time, each on a goroutine of its own, and a proc's client
// parks after every verb it executes, on Fabric.Trace's call site. After
// every park a Picker names the proc that runs next, so a run is one
// interleaving of the procs' verbs, and a pure function of the fault plan's
// seed, the faults aimed with FailAt and the picker.

// Proc is one thread of a schedule. Fn runs on a goroutine of its own, so it
// reports failures with t.Error; C's verbs park it. A proc with a nil C parks
// nowhere — a KillNode, a fault-plan edit, a rival run whole — and runs to
// its end where it is picked.
type Proc struct {
	C  *fabric.Client
	Fn func()
}

// Step is one park of a run.
type Step struct {
	Proc int // index into Run's procs
	// K is the verbs the proc's client has executed since the run began, so
	// park K is the point FailAt(K, …), aimed at the run's start, cuts at.
	K        uint64
	Op       fabric.Op    // the verb executed last, its result filled in; zero at K 0
	Stage    fabric.Stage // the client's stage at that verb
	BatchEnd bool         // Op was the last verb of its batch to execute; true at K 0
	Done     bool         // Fn returned
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
// not a verb); the others start where p first picks them.
func Run(f *fabric.Fabric, p Picker, procs ...Proc) []Step {
	type proc struct {
		k, base uint64
		resume  chan struct{}
	}
	parked := make(chan Step)
	byClient := make(map[*fabric.Client]int, len(procs))
	ps := make([]proc, len(procs))
	ready := make([]int, len(procs))
	for i, pr := range procs {
		ps[i].resume, ready[i] = make(chan struct{}), i
		if pr.C != nil {
			ps[i].base, byClient[pr.C] = pr.C.Posted(), i
		}
		go func() {
			<-ps[i].resume
			defer func() { parked <- Step{Proc: i, K: ps[i].k, Done: true} }()
			pr.Fn()
		}()
	}
	prev := f.Trace
	defer func() { f.Trace = prev }()
	f.Trace = func(c *fabric.Client, op *fabric.Op) {
		if prev != nil {
			prev(c, op)
		}
		if i, ok := byClient[c]; ok {
			p := &ps[i]
			p.k++
			parked <- Step{Proc: i, K: p.k, Op: *op, Stage: c.Stage(), BatchEnd: c.Posted()-p.base == p.k}
			<-p.resume
		}
	}
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
// one seed, one schedule.
type Seeded struct{ rng uint64 }

// NewSeeded returns the picker of seed's schedule.
func NewSeeded(seed uint64) *Seeded { return &Seeded{rng: seed} }

// Pick draws the next proc.
func (s *Seeded) Pick(_ Step, ready []int) int { return ready[s.next()%uint64(len(ready))] }

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

// Pick keeps the last proc or draws the next.
func (h *Hold) Pick(last Step, ready []int) int {
	if !last.Done && h.next()%h.stay != 0 && slices.Contains(ready, last.Proc) {
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

// Switch is the script that runs proc 0 alone up to the k-th of its parks
// that match accepts (from 0, the run's opening park included; a nil match
// accepts every park), switches there to the others once and runs them to
// their ends, then proc 0 to its end. Turns[0].At is the park the switch was
// taken at; nil means it fell past proc 0's operation, and the others ran
// behind it.
func Switch(k int, match func(Step) bool) *Script {
	return &Script{Turns: []Turn{{Proc: 0, Until: func(s Step) bool {
		if match != nil && !match(s) {
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
