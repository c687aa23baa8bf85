package fabric

import (
	"errors"
	"sort"
	"sync"
)

// Pipe coalesces the doorbell batches of several concurrent in-flight
// operations into shared flushes, filling the RTT window that a strictly
// sequential client leaves idle (§III's three-round-trip path becomes
// three *shared* round trips for a whole window of operations).
//
// Each in-flight operation runs on its own lane: a full fabric client
// with its own ID (so lock leases name the true owner), its own
// deterministic jitter stream and its own virtual clock. A lane's Batch
// calls block in submit until every other runnable lane has also posted
// its next batch; the pipe then merges all pending batches — ordered by
// lane ID, so the merged verb sequence is independent of goroutine
// scheduling — and executes them as ONE doorbell batch on the main
// client. One flush, one round trip, one set of fault rolls.
//
// Accounting invariants:
//   - All network statistics (round trips, verbs, bytes, fault counters)
//     accrue on the main client only; lanes stay at zero. A session's
//     Stats therefore remain exact whether its ops ran sequentially or
//     pipelined, and RoundTrips counts flushes — the quantity the paper's
//     per-op analysis is phrased in.
//   - Virtual time: a flush departs when its last participant has posted
//     (max over lane clocks) and every participant resumes at the shared
//     completion time, exactly as if each had posted the merged batch.
//
// Fault demultiplexing: a transient fault truncates the merged batch at
// one verb; lanes whose verbs all executed before the truncation point
// observed complete successful completions and proceed, while the rest
// see ErrTransient — naming the prefix of their own batch that executed
// (Executed) — and retry independently (per-lane backoff, per-lane
// jitter). Timeouts, node-down rejections and client crashes are
// batch-wide: every participant sees the error, as it would have
// sequentially.
type Pipe struct {
	main *Client

	mu      sync.Mutex
	active  int
	waiting []*pipeCall

	flushes   uint64
	merged    uint64 // flushes that carried more than one lane's batch
	coalesced uint64 // verbs that rode a shared flush
}

// pipeCall is one lane's pending doorbell batch; done carries the lane's
// demultiplexed completion status. The lane's stage annotation and clock
// are captured at submit time so the observer event reflects what the
// lane was doing when it posted, not the merged flush.
type pipeCall struct {
	lane     *Client
	ops      []Op
	done     chan error
	executed int // the lane's verbs that executed, set before done is sent
	stage    Stage
	startPs  int64
}

// NewPipe creates a coalescer that flushes on the given client. The main
// client must not itself be a lane. Flushes carry verbs from mixed
// stages, so the main client's batches are annotated StageFlush; per-
// stage attribution comes from the lanes' own observer events.
func NewPipe(main *Client) *Pipe {
	if main.pipe != nil {
		panic("fabric: NewPipe on a pipeline lane")
	}
	main.SetStage(StageFlush)
	return &Pipe{main: main}
}

// NewLane creates a lane client: a full fabric client whose doorbell
// batches are redirected into the pipe's shared flushes. The lane starts
// at the main client's current virtual time.
func (p *Pipe) NewLane() *Client {
	lane := p.main.f.NewClient()
	lane.pipe = p
	lane.clock = p.main.clock
	return lane
}

// BeginLanes opens a pipelined run: the given lanes are declared
// runnable, and no flush fires until each of them has either posted a
// batch (submit) or retired (Done). Lanes are synced forward to the main
// clock so a reused lane does not reach back in virtual time.
func (p *Pipe) BeginLanes(lanes []*Client) {
	p.mu.Lock()
	for _, l := range lanes {
		if l.pipe != p {
			p.mu.Unlock()
			panic("fabric: BeginLanes with a foreign lane")
		}
		if l.clock < p.main.clock {
			l.clock = p.main.clock
		}
	}
	p.active += len(lanes)
	p.mu.Unlock()
}

// Done retires one lane from the current run. Its virtual time folds
// into the main clock (the run lasts until its slowest lane finishes),
// and if every remaining runnable lane is already waiting, the flush the
// retiree was holding back fires now.
func (p *Pipe) Done(lane *Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active <= 0 {
		panic("fabric: Pipe.Done without matching BeginLanes")
	}
	if lane.clock > p.main.clock {
		p.main.clock = lane.clock
	}
	p.active--
	if p.active > 0 && len(p.waiting) >= p.active {
		p.flushLocked()
	}
}

// Flushes returns how many doorbell flushes the pipe has executed; each
// cost exactly one round trip on the main client.
func (p *Pipe) Flushes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushes
}

// Coalesced returns how many flushes merged more than one lane's batch
// and how many verbs rode those shared flushes — the savings the
// round-trip accounting tests assert on.
func (p *Pipe) Coalesced() (flushes, verbs uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.merged, p.coalesced
}

// submit hands one lane's doorbell batch to the pipe and blocks the
// lane's goroutine until the flush carrying it completes. The last
// runnable lane to arrive triggers the flush. Outside a BeginLanes/Done
// window a batch flushes immediately, so a lone lane behaves exactly
// like a sequential client. It reports how many of the lane's own verbs
// executed.
func (p *Pipe) submit(lane *Client, ops []Op) (int, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	call := &pipeCall{
		lane: lane, ops: ops, done: make(chan error, 1),
		stage: lane.stage, startPs: lane.clock,
	}
	p.mu.Lock()
	p.waiting = append(p.waiting, call)
	if len(p.waiting) >= p.active {
		p.flushLocked()
	}
	p.mu.Unlock()
	err := <-call.done
	return call.executed, err
}

// flushLocked merges every pending batch into one doorbell batch on the
// main client and demultiplexes the completion. Caller holds p.mu.
func (p *Pipe) flushLocked() {
	calls := p.waiting
	p.waiting = nil
	if len(calls) == 0 {
		return
	}
	// Lane-ID order makes the merged verb sequence (and therefore NIC
	// timing, fault rolls and CAS outcomes) a pure function of the lanes'
	// batch streams, never of goroutine scheduling.
	sort.Slice(calls, func(i, j int) bool { return calls[i].lane.id < calls[j].lane.id })

	// The doorbell rings when the last participant posts.
	total := 0
	for _, cl := range calls {
		if cl.lane.clock > p.main.clock {
			p.main.clock = cl.lane.clock
		}
		total += len(cl.ops)
	}

	merged := calls[0].ops
	if len(calls) > 1 {
		merged = make([]Op, 0, total)
		for _, cl := range calls {
			merged = append(merged, cl.ops...)
		}
	}

	executed, err := p.main.run(merged)

	p.flushes++
	if len(calls) > 1 {
		p.merged++
		p.coalesced += uint64(total)
		// Copy CAS/FAA pre-images back into the callers' op slices (READ
		// destinations alias the callers' buffers already).
		off := 0
		for _, cl := range calls {
			for i := range cl.ops {
				cl.ops[i].Old = merged[off+i].Old
			}
			off += len(cl.ops)
		}
	}

	off := 0
	for _, cl := range calls {
		end := off + len(cl.ops)
		executedHere := len(cl.ops)
		if end > executed {
			executedHere = max(executed-off, 0)
		}
		cerr := err
		if err != nil && errors.Is(err, ErrTransient) && executedHere == len(cl.ops) {
			// Every verb this lane contributed executed before the batch
			// died: the lane observed a complete successful completion. Else
			// the lane sees the cut at its own share of the batch. (Timeouts,
			// node-down windows and crashes stay batch-wide: those lose or
			// reject the whole completion.)
			cerr = nil
		}
		cl.executed = executedHere
		cl.lane.clock = p.main.clock
		// Notify the lane's observer before releasing the lane goroutine:
		// the send on done is the happens-before edge that lets a
		// non-concurrency-safe observer (a trace recorder) be read by the
		// resuming lane. RoundTrips is 0 — the flush accounted its single
		// round trip on the main client's own event.
		if o := cl.lane.obs; o != nil {
			var bytes uint64
			for i := 0; i < executedHere; i++ {
				bytes += opBytes(&cl.ops[i])
			}
			o.ObserveBatch(BatchEvent{
				Stage:   cl.stage,
				StartPs: cl.startPs,
				EndPs:   p.main.clock,
				Verbs:   executedHere,
				Bytes:   bytes,
				Err:     cerr,
			})
		}
		cl.done <- cerr
		off = end
	}
}
