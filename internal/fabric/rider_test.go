package fabric

import (
	"errors"
	"testing"

	"sphinx/internal/mem"
)

// The rider suite pins a client's rider slot (rider.go): the rider's verbs go
// out behind the caller's in one doorbell batch, the caller gets exactly its
// own outcome back, and a rider share that did not fully execute rides the
// next batch again.

// shareRider rides its verbs behind every batch until one carried all of them
// with their results standing, and records what each batch reported.
type shareRider struct {
	ops  []Op
	got  []int   // executed, per batch ridden
	errs []error // the batch's error, per batch ridden
	done bool
}

func (r *shareRider) Ride(ops []Op) []Op {
	if r.done {
		return ops
	}
	return append(ops, r.ops...)
}

func (r *shareRider) Rode(share []Op, executed int, err error) {
	r.got, r.errs = append(r.got, executed), append(r.errs, err)
	r.done = executed == len(share)
}

// eventCount counts the batch events an observed client emits.
type eventCount struct {
	n     int
	verbs []int
}

func (e *eventCount) ObserveBatch(ev BatchEvent) {
	e.n++
	e.verbs = append(e.verbs, ev.Verbs)
}

// TestRiderRidesBehindCaller: on a clean fabric the rider's verbs are one
// batch with the caller's — one round trip, one batch event — and the caller
// reads its own CAS pre-image; the next batch, the rider done, is the caller's
// alone.
func TestRiderRidesBehindCaller(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	c := f.NewClient()
	obs := &eventCount{}
	c.SetObserver(obs)
	word := mem.NewAddr(id, 1024)
	f.Region(id).Write(word.Offset(), []byte{7, 0, 0, 0, 0, 0, 0, 0})
	r := &shareRider{ops: writeOps(id, 512, 3)}
	c.SetRider(r)

	ops := append([]Op{{Kind: CAS, Addr: word, Expect: 7, Desired: 9}}, writeOps(id, 0, 2)...)
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if ops[0].Old != 7 {
		t.Errorf("caller's CAS pre-image %d, want 7", ops[0].Old)
	}
	if got := executedPrefix(f, id, 512, 3); got != 3 || !r.done || len(r.got) != 1 || r.got[0] != 3 || r.errs[0] != nil {
		t.Errorf("rider: memory shows %d/3, reported %v %v, done %v", got, r.got, r.errs, r.done)
	}
	if err := c.Write(mem.NewAddr(id, 64), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RoundTrips != 2 || st.Verbs != 3+3+1 || obs.n != 2 || obs.verbs[0] != 6 || obs.verbs[1] != 1 {
		t.Errorf("%d round trips, %d verbs, events %v; want 2, 7, [6 1]", st.RoundTrips, st.Verbs, obs.verbs)
	}
}

// TestRiderTransientCut: a transient that cuts the merged batch inside the
// caller's share names the caller's own executed prefix (Executed) and leaves
// the rider's share unexecuted; one that cuts inside the rider's share is a
// success for the caller. Either way the rider reports what memory shows, and
// an unfinished share rides the next batch — the caller re-issuing from its
// first unexecuted verb, as rart's completeBatch does, included — until one
// carries all of it. Every physical batch is one batch event.
func TestRiderTransientCut(t *testing.T) {
	inCaller, inRider := false, false
	for seed := uint64(1); seed <= 48; seed++ {
		f, id := newTestFabric(InstantConfig())
		f.SetFaultPlan(&FaultPlan{Seed: seed, TransientPer64k: 1 << 15})
		c := f.NewClient()
		obs := &eventCount{}
		c.SetObserver(obs)
		r := &shareRider{ops: writeOps(id, 512, 4)}
		c.SetRider(r)

		ops := writeOps(id, 0, 4)
		err := c.Batch(ops)
		callerRan, riderRan := executedPrefix(f, id, 0, 4), executedPrefix(f, id, 512, 4)
		switch {
		case err != nil:
			inCaller = true
			if Executed(err) != callerRan || callerRan == 4 || riderRan != 0 || r.got[0] != 0 {
				t.Errorf("seed %d: cut in the caller's share: Executed %d, memory %d/4 and rider %d/4, rider reported %d",
					seed, Executed(err), callerRan, riderRan, r.got[0])
			}
		case !r.done:
			inRider = true
			if callerRan != 4 || r.got[0] != riderRan || !errors.Is(r.errs[0], ErrTransient) {
				t.Errorf("seed %d: cut in the rider's share: caller %d/4, rider memory %d/4, reported %d (%v)",
					seed, callerRan, riderRan, r.got[0], r.errs[0])
			}
		}
		// The caller finishes its batch; further batches carry the rider until
		// its share is whole.
		for tries := 0; err != nil || !r.done; tries++ {
			if tries == 64 {
				t.Fatalf("seed %d: rider never finished: %v", seed, r.got)
			}
			if err != nil {
				ops = ops[Executed(err):]
			} else {
				ops = writeOps(id, 256, 1)
			}
			err = c.Batch(ops)
		}
		if executedPrefix(f, id, 0, 4) != 4 || executedPrefix(f, id, 512, 4) != 4 {
			t.Errorf("seed %d: caller %d/4, rider %d/4 executed in the end", seed, executedPrefix(f, id, 0, 4), executedPrefix(f, id, 512, 4))
		}
		if st := c.Stats(); uint64(obs.n) != st.RoundTrips {
			t.Errorf("seed %d: %d batch events for %d round trips", seed, obs.n, st.RoundTrips)
		}
	}
	if !inCaller || !inRider {
		t.Errorf("cut seen in the caller's share %v, in the rider's %v; want both", inCaller, inRider)
	}
}

// TestRiderTimeoutNotTrusted: a lost completion fails the caller's batch as it
// would alone, and the rider's share — executed, outcome unseen — counts as not
// executed: its data is not trusted, and it rides the next batch again.
func TestRiderTimeoutNotTrusted(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	f.SetFaultPlan(&FaultPlan{Seed: 3, TimeoutPer64k: 1 << 16})
	c := f.NewClient()
	r := &shareRider{ops: writeOps(id, 512, 2)}
	c.SetRider(r)
	if err := c.Batch(writeOps(id, 0, 2)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("caller's batch = %v, want the timeout", err)
	}
	if r.done || r.got[0] != 0 || !errors.Is(r.errs[0], ErrTimeout) {
		t.Errorf("rider after a timeout: reported %v %v, done %v; want 0 executed, not done", r.got, r.errs, r.done)
	}
	c.plan = nil
	if err := c.Batch(writeOps(id, 0, 2)); err != nil || !r.done || len(r.got) != 2 {
		t.Errorf("next batch = %v, rider reported %v, done %v; want it carried again and done", err, r.got, r.done)
	}
}

// TestRiderCrashCountsRiderVerbs: the crash point counts every verb the client
// posted, the rider's included. A crash inside the rider's share leaves the
// caller's verbs executed — a success, as alone — and the next batch dead; one
// inside the caller's share is the caller's crash.
func TestRiderCrashCountsRiderVerbs(t *testing.T) {
	for _, tc := range []struct {
		limit      uint64
		callerErr  bool
		riderRan   int
		callerRan  int
		postedWant uint64
	}{
		{limit: 3, callerErr: false, riderRan: 1, callerRan: 2, postedWant: 3},
		{limit: 1, callerErr: true, riderRan: 0, callerRan: 1, postedWant: 1},
	} {
		f, id := newTestFabric(InstantConfig())
		c := f.NewClient()
		c.FailAt(tc.limit, ErrClientCrashed)
		r := &shareRider{ops: writeOps(id, 512, 2)}
		c.SetRider(r)
		err := c.Batch(writeOps(id, 0, 2))
		if (err != nil) != tc.callerErr || tc.callerErr && !errors.Is(err, ErrClientCrashed) {
			t.Errorf("crash after %d: caller's batch = %v, want error %v", tc.limit, err, tc.callerErr)
		}
		if executedPrefix(f, id, 0, 2) != tc.callerRan || executedPrefix(f, id, 512, 2) != tc.riderRan || r.got[0] != tc.riderRan || c.posted != tc.postedWant {
			t.Errorf("crash after %d: caller %d, rider %d executed (reported %d), %d posted",
				tc.limit, executedPrefix(f, id, 0, 2), executedPrefix(f, id, 512, 2), r.got[0], c.posted)
		}
		if err := c.Batch(writeOps(id, 0, 1)); !errors.Is(err, ErrClientCrashed) {
			t.Errorf("crash after %d: next batch = %v, want the crash", tc.limit, err)
		}
	}
}

// TestRiderRejectedBatch: a batch refused before any verb ran by a node only
// the rider's verbs target — here killed — is posted again without them, so
// the caller sees what it would have alone: two physical batches, two batch
// events. One refused by the caller's own node — here in a down window — is
// the caller's rejection, as alone: one round trip of waiting, one rejection,
// one failure reported to the breaker. Either way the rider learns of the
// rejection, nothing of its share executed, and it stays registered.
func TestRiderRejectedBatch(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		riderKilled            bool
		wantErr                error
		wantEvents             int
		wantRTTs               int64 // round trips of virtual time the caller waited
		wantRejects, wantFails uint64
	}{
		{name: "rider's node killed", riderKilled: true, wantEvents: 2,
			wantRTTs: 2, wantRejects: 1},
		{name: "caller's node down", wantErr: ErrNodeDown, wantEvents: 1,
			wantRTTs: 1, wantRejects: 1, wantFails: 1},
	} {
		f := New(DefaultConfig())
		id, other := f.AddNode(1<<20), f.AddNode(1<<20)
		if tc.riderKilled {
			f.KillNode(other)
		} else {
			f.SetFaultPlan(&FaultPlan{Seed: 1, Down: []DownWindow{{Node: id, FromPs: 0, ToPs: 1 << 60}}})
		}
		c := f.NewClient()
		obs := &eventCount{}
		c.SetObserver(obs)
		r := &shareRider{ops: writeOps(other, 512, 2)}
		c.SetRider(r)
		err := c.Batch(writeOps(id, 0, 2))
		if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: caller's batch = %v, want %v", tc.name, err, tc.wantErr)
		}
		if r.done || len(r.got) != 1 || r.got[0] != 0 || !errors.Is(r.errs[0], ErrNodeDown) || obs.n != tc.wantEvents {
			t.Errorf("%s: rider reported %v %v, done %v; %d batch events; want the rejection, nothing executed, %d events",
				tc.name, r.got, r.errs, r.done, obs.n, tc.wantEvents)
		}
		st, rtt := c.Stats(), DefaultConfig().RTTPs
		if c.clock/rtt != tc.wantRTTs || st.NodeDownRejects != tc.wantRejects || f.health.fails[id] != uint32(tc.wantFails) {
			t.Errorf("%s: clock %d ps, %d rejections, %d failures reported; want %d round trips, %d, %d",
				tc.name, c.clock, st.NodeDownRejects, f.health.fails[id], tc.wantRTTs, tc.wantRejects, tc.wantFails)
		}
	}
}

// TestRiderPipeLane: a lane's rider rides the lane's share of the coalesced
// flush; the flush is one round trip carrying every lane's verbs and the
// rider's.
func TestRiderPipeLane(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	main := f.NewClient()
	p := NewPipe(main)
	lanes := []*Client{p.NewLane(), p.NewLane()}
	r := &shareRider{ops: writeOps(id, 512, 3)}
	lanes[0].SetRider(r)
	errs := make([]error, len(lanes))
	runLanes(p, lanes, func(i int, lane *Client) { errs[i] = lane.Batch(writeOps(id, uint64(64*i), 2)) })
	for i, err := range errs {
		if err != nil || executedPrefix(f, id, uint64(64*i), 2) != 2 {
			t.Errorf("lane %d: %v, %d/2 executed", i, err, executedPrefix(f, id, uint64(64*i), 2))
		}
	}
	if !r.done || executedPrefix(f, id, 512, 3) != 3 {
		t.Errorf("lane rider reported %v, done %v", r.got, r.done)
	}
	if st := main.Stats(); st.RoundTrips != 1 || st.Verbs != 2+2+3 {
		t.Errorf("%d round trips, %d verbs; want one flush of 7", st.RoundTrips, st.Verbs)
	}
}

// loopRider rides the same verbs behind every batch, forever.
type loopRider struct {
	ops  []Op
	rode int
}

func (r *loopRider) Ride(ops []Op) []Op              { return append(ops, r.ops...) }
func (r *loopRider) Rode(share []Op, n int, _ error) { r.rode += n }

// TestRiderCleanPathAllocatesNothing: once the merged batch's scratch has
// grown, riding costs no heap allocation.
func TestRiderCleanPathAllocatesNothing(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	c := f.NewClient()
	buf := make([]byte, 16)
	c.SetRider(&loopRider{ops: []Op{{Kind: Read, Addr: mem.NewAddr(id, 512), Data: buf}}})
	ops := []Op{{Kind: CAS, Addr: mem.NewAddr(id, 1024)}, {Kind: Read, Addr: mem.NewAddr(id, 0), Data: make([]byte, 64)}}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _ = c.Batch(ops) }); n != 0 {
		t.Errorf("%.1f allocations per ridden batch, want 0", n)
	}
}
