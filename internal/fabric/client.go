package fabric

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"sphinx/internal/counters"
	"sphinx/internal/mem"
)

// Stats accumulates one client's network accounting. Round trips and bytes
// are the quantities the paper's analysis is phrased in (§III), so the
// index implementations are validated against them directly in tests. The
// fault counters record what the installed FaultPlan injected against this
// client; they stay zero on a fault-free fabric.
//
// The client increments these fields atomically and Client.Stats loads
// them atomically, so a live metrics scrape can snapshot a client while
// pipeline flushes drive it from another goroutine. A snapshot is a set
// of monotone counters, not an atomic cut across fields.
type Stats struct {
	RoundTrips uint64
	Verbs      uint64
	BytesRead  uint64
	BytesWrite uint64
	ByKind     [4]uint64

	Transients      uint64 // batches failed with ErrTransient
	Timeouts        uint64 // batches whose completion was lost (ErrTimeout)
	NodeDownRejects uint64 // batches rejected by a node-down window or a killed node
	HealthRejects   uint64 // batches rejected locally by an open/dead breaker (zero cost)
	Delays          uint64 // latency spikes injected
}

func init() { counters.Check[Stats]() }

// Sub returns s - t, field-wise; used to measure a single index operation.
func (s Stats) Sub(t Stats) Stats {
	counters.Sub(&s, &t)
	return s
}

// Add returns s + t, field-wise; used to aggregate workers.
func (s Stats) Add(t Stats) Stats {
	counters.Add(&s, &t)
	return s
}

// Client is one compute-node worker's endpoint on the fabric. Each client
// has a private virtual clock; clients are not safe for concurrent use
// (each worker goroutine owns one, mirroring per-coroutine QPs in the
// paper's systems).
type Client struct {
	f     *Fabric
	id    int
	clock int64 // picoseconds of virtual time
	stats Stats

	// pipe, when non-nil, marks this client as a pipeline lane: its
	// doorbell batches are handed to the pipe, which coalesces the
	// batches of all runnable lanes into one flush on the pipe's main
	// client. See pipe.go.
	pipe *Pipe

	// Observability state: the stage label the index layer has annotated
	// on this client (see stage.go) and an optional per-batch observer.
	stage Stage
	obs   BatchObserver

	// Fault-injection state: the plan snapshot taken at creation, the
	// private deterministic random stream, the count of verbs actually
	// posted, the aimed fault (FailAt; a nil shotErr aims none) with the
	// count of posted verbs ahead of its verb, and whether the client has
	// crashed.
	plan           *FaultPlan
	rng            uint64
	posted, shotAt uint64
	shotErr        error
	crashed        bool

	// one backs the single-verb calls (Read, Write, CompareSwap, FetchAdd)
	// and FetchAddPair: a slice literal per call would escape into Batch. A
	// client runs one call at a time — a pipeline lane blocks in submit — so
	// one array does.
	one [2]Op

	// rider, when set, posts its verbs behind the caller's in every batch
	// (rider.go); rideOps is the merged batch's scratch.
	rider   Rider
	rideOps []Op
}

// NewClient creates a client with clock zero. Client IDs are assigned in
// creation order; together with the fault plan's seed they determine the
// client's private fault and jitter stream.
func (f *Fabric) NewClient() *Client {
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	plan := f.plan
	f.mu.Unlock()
	var seed uint64
	if plan != nil {
		seed = plan.Seed
	}
	return &Client{
		f: f, id: id, plan: plan,
		rng: mix64(seed + 0x9e3779b97f4a7c15*(uint64(id)+1)),
	}
}

// ID returns the client's fabric-unique ID (also its lock-lease owner ID).
func (c *Client) ID() int { return c.id }

// Rand64 draws from the client's private deterministic stream; retry
// policies use it for jitter so backoff sequences are reproducible.
func (c *Client) Rand64() uint64 { return splitmix64(&c.rng) }

// FailAt aims one fault at the client's n-th verb, counted from 0 at its next
// batch: the batch carrying that verb faults, and the n verbs ahead of it
// execute. err is the fault's kind:
//
//   - ErrTransient: the verb and the verbs after it in its batch do not run,
//     and Executed names the executed prefix.
//   - ErrClientCrashed: the same, and then the client is dead; the batch
//     charges no round trip.
//   - ErrTimeout: the whole batch runs and its completion is lost; the clock
//     waits the plan's TimeoutPs, or DefaultTimeoutPs without a plan.
//
// The shot fires once. It is decided at batch start, with the plan's faults,
// and neither draws from nor shifts the plan's seeded rolls; aimed from
// inside Fabric.Trace, it falls on a later batch. A pipeline lane's batches
// run on its pipe's main client, so a shot is aimed there.
func (c *Client) FailAt(n uint64, err error) {
	if err != ErrTransient && err != ErrTimeout && err != ErrClientCrashed {
		panic(fmt.Sprintf("fabric: FailAt(%d, %v): not an aimable fault", n, err))
	}
	c.shotAt, c.shotErr = c.posted+n, err
}

// Posted returns how many verbs the client has posted, counted as FailAt
// counts them: the batch in flight whole, as far as it executes.
func (c *Client) Posted() uint64 { return c.posted }

// Clock returns the client's virtual time in picoseconds.
func (c *Client) Clock() int64 { return c.clock }

// AdvanceClock adds local (CN-side) compute time to the client's clock.
// Index code uses it to charge non-network work such as hashing.
func (c *Client) AdvanceClock(ps int64) { c.clock += ps }

// Stats returns a snapshot of the client's accounting. The fields are
// loaded atomically so a metrics scrape may call this concurrently with
// the goroutine driving the client.
func (c *Client) Stats() Stats { return counters.Load(&c.stats) }

// RoundTrips returns the client's round-trip count without copying the
// whole Stats struct; per-op metric deltas read it on the hot path.
func (c *Client) RoundTrips() uint64 { return atomic.LoadUint64(&c.stats.RoundTrips) }

// SetStage annotates the client with the stage its next batches serve and
// returns the previous stage, enabling the save/restore idiom
//
//	defer c.SetStage(c.SetStage(fabric.StageLeafRead))
//
// without any allocation.
func (c *Client) SetStage(s Stage) Stage {
	prev := c.stage
	c.stage = s
	return prev
}

// Stage returns the client's current stage annotation.
func (c *Client) Stage() Stage { return c.stage }

// SetObserver installs a per-batch observer (nil uninstalls). On a
// pipeline lane the observer sees the lane's share of each coalesced
// flush with RoundTrips == 0; on the flushing main client it sees the
// whole flush under StageFlush.
func (c *Client) SetObserver(o BatchObserver) { c.obs = o }

// Observer returns the installed per-batch observer, if any.
func (c *Client) Observer() BatchObserver { return c.obs }

// Fabric returns the fabric the client is attached to.
func (c *Client) Fabric() *Fabric { return c.f }

// Batch posts the given verbs as one doorbell batch: a single round trip,
// regardless of how many verbs or how many memory nodes it spans (verbs to
// different nodes are issued in parallel). Results for CAS/FAA are written
// into each Op's Old field; Read destinations are filled in place.
//
// This is the primitive behind the paper's "reading all these hash entries
// can be performed in a single round trip" (§III-A) and its piggybacked
// lock acquisition/release (§IV). A transient that cut the batch names the
// prefix that executed (Executed). A registered rider's verbs go out behind
// ops (SetRider).
func (c *Client) Batch(ops []Op) error {
	if c.rider != nil && len(ops) > 0 {
		return c.ride(ops)
	}
	return cut(c.exec(ops))
}

// exec posts ops as one doorbell batch — through the pipe, on a lane —
// reporting how many leading verbs executed.
func (c *Client) exec(ops []Op) (int, error) {
	if c.pipe != nil {
		return c.pipe.submit(c, ops)
	}
	return c.run(ops)
}

// nodeShare accumulates one target NIC's slice of a batch.
type nodeShare struct {
	node  mem.NodeID
	cost  int64
	verbs int
	bytes uint64
}

// run executes ops on this client, reporting how many leading verbs
// actually moved data. The count is what a coalescing pipe needs to
// demultiplex a partial (transient) failure back onto the in-flight
// operations that contributed verbs to the batch; Batch callers only see
// the error. The observer notification lives here, so each physical
// doorbell batch (one runBatch call) produces exactly one BatchEvent.
func (c *Client) run(ops []Op) (int, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if c.obs == nil {
		return c.runBatch(ops)
	}
	startPs := c.clock
	rt0 := atomic.LoadUint64(&c.stats.RoundTrips)
	n, err := c.runBatch(ops)
	var bytes uint64
	for i := 0; i < n; i++ {
		bytes += opBytes(&ops[i])
	}
	c.obs.ObserveBatch(BatchEvent{
		Stage:      c.stage,
		StartPs:    startPs,
		EndPs:      c.clock,
		Verbs:      n,
		Bytes:      bytes,
		RoundTrips: atomic.LoadUint64(&c.stats.RoundTrips) - rt0,
		Err:        err,
	})
	return n, err
}

// runBatch executes ops as one physical doorbell batch.
func (c *Client) runBatch(ops []Op) (int, error) {
	if c.crashed {
		return 0, faultErr(ErrClientCrashed, "client %d", c.id)
	}
	cfg := c.f.cfg
	start := c.clock + cfg.ClientVerbPs*int64(len(ops))

	// Charge each target NIC once per batch with that node's share. A
	// batch rarely spans more than a few nodes, so a small linear table
	// (stack-allocated, unlike a map) holds the shares; it is kept sorted
	// by node ID so the reservation order is deterministic.
	var shareBuf [4]nodeShare
	shares := shareBuf[:0]
	for i := range ops {
		op := &ops[i]
		b := opBytes(op)
		node := op.Addr.Node()
		var sh *nodeShare
		for j := range shares {
			if shares[j].node == node {
				sh = &shares[j]
				break
			}
		}
		if sh == nil {
			shares = append(shares, nodeShare{node: node})
			sh = &shares[len(shares)-1]
		}
		sh.cost += cfg.PerVerbPs + (cfg.PerByteFs*int64(b)+999)/1000
		sh.verbs++
		sh.bytes += b
	}
	for i := 1; i < len(shares); i++ {
		for j := i; j > 0 && shares[j].node < shares[j-1].node; j-- {
			shares[j], shares[j-1] = shares[j-1], shares[j]
		}
	}

	// Permanent-kill and breaker checks come first: they are independent
	// of the fault plan (KillNode works on a plan-free fabric) and, when
	// gating is on, reject locally before any virtual time is spent.
	h := c.f.health
	for _, sh := range shares {
		if c.f.NodeKilled(sh.node) {
			if h.Gated() && h.State(sh.node) == HealthDead {
				// Known dead: the CN-side breaker rejects before posting,
				// costing nothing — the fail-fast path failover relies on.
				atomic.AddUint64(&c.stats.HealthRejects, 1)
				return 0, reject(sh.node, ErrNodeKilled, "node %d (breaker dead)", sh.node)
			}
			// Discovery: contacting the dead node costs one round trip of
			// waiting, then the shared breaker learns the death.
			atomic.AddUint64(&c.stats.NodeDownRejects, 1)
			c.f.chargeFault(sh.node)
			c.clock += cfg.RTTPs
			h.MarkDead(sh.node)
			return 0, reject(sh.node, ErrNodeKilled, "node %d", sh.node)
		}
		if h.Gated() {
			if ok, dead := h.admit(sh.node); !ok {
				atomic.AddUint64(&c.stats.HealthRejects, 1)
				if dead {
					return 0, reject(sh.node, ErrNodeKilled, "node %d (breaker dead)", sh.node)
				}
				return 0, reject(sh.node, ErrBreakerOpen, "node %d", sh.node)
			}
		}
	}

	// Fault decisions happen before any byte moves, in a fixed order, so
	// the injected sequence is a pure function of (plan seed, client ID,
	// batch sequence, aimed fault) and never of goroutine scheduling.
	plan := c.plan
	if plan != nil {
		for _, sh := range shares {
			if w, down := plan.downNode(sh.node, c.clock); down {
				atomic.AddUint64(&c.stats.NodeDownRejects, 1)
				c.f.chargeFault(sh.node)
				// The rejected attempt still costs a round trip of waiting.
				c.clock += cfg.RTTPs
				h.ReportFailure(sh.node)
				return 0, reject(sh.node, ErrNodeDown, "node %d down [%dps,%dps)", sh.node, w.FromPs, w.ToPs)
			}
		}
	}
	var fault error
	var cutAt int
	if c.shotErr != nil && c.posted+uint64(len(ops)) > c.shotAt {
		fault, cutAt, c.shotErr = c.shotErr, int(c.shotAt-c.posted), nil
	}
	var extraPs int64
	if plan != nil {
		// Seeded rolls, always three per batch and always in this order,
		// so one roll's outcome never shifts the stream of the others. An
		// aimed fault takes the batch's place in the stream, its rolls drawn
		// and unused.
		rT, rTo, rD := splitmix64(&c.rng), splitmix64(&c.rng), splitmix64(&c.rng)
		switch {
		case fault != nil:
		case uint32(rT&0xffff) < plan.TransientPer64k:
			fault, cutAt = ErrTransient, int((rT>>16)%uint64(len(ops)))
		case uint32(rTo&0xffff) < plan.TimeoutPer64k:
			fault = ErrTimeout
		case uint32(rD&0xffff) < plan.DelayPer64k:
			atomic.AddUint64(&c.stats.Delays, 1)
			extraPs = plan.delayPs()
		}
	}
	execUpTo := len(ops)
	switch fault {
	case ErrClientCrashed:
		// The batch carrying the aimed verb executes only the verbs ahead of
		// it, uncharged; the client is dead from here on, and the fabric's
		// record of it lets others take over the locks it holds. The record
		// is made once the prefix has run: until then a verb of the dead
		// client may still land over a taker's write.
		c.crashed = true
		defer c.f.crashed.Store(c.id, true)
		c.posted += uint64(cutAt)
		for i := 0; i < cutAt; i++ {
			if err := c.execute(&ops[i]); err != nil {
				return i, err
			}
		}
		return cutAt, faultErr(ErrClientCrashed, "client %d crashed at verb %d/%d", c.id, cutAt, len(ops))
	case ErrTransient:
		execUpTo = cutAt
		atomic.AddUint64(&c.stats.Transients, 1)
		fault = faultErr(ErrTransient, "verb %d/%d %v", execUpTo, len(ops), ops[execUpTo].Kind)
	case ErrTimeout:
		atomic.AddUint64(&c.stats.Timeouts, 1)
		extraPs = plan.timeoutPs()
		for _, sh := range shares {
			h.ReportFailure(sh.node)
		}
		fault = faultErr(ErrTimeout, "batch of %d verbs", len(ops))
	}
	if fault != nil {
		for _, sh := range shares {
			c.f.chargeFault(sh.node)
		}
	}

	// The batch's one round trip is attributed to the NIC that gates its
	// completion: the share with the latest reservation finish (ties
	// break to the lowest node ID, since shares are sorted). Every path
	// that returns before this loop charges neither the client round
	// trip nor any NIC, so Σ per-NIC rts == Σ client RoundTrips holds
	// unconditionally, faults included.
	completion := start
	var gate *nic
	for i := range shares {
		sh := &shares[i]
		n, err := c.f.node(sh.node)
		if err != nil {
			return 0, err
		}
		s := n.nic.reserve(start, sh.cost, sh.verbs, sh.bytes)
		if gate == nil {
			gate = &n.nic
		}
		if fin := s + sh.cost + cfg.RTTPs; fin > completion {
			completion = fin
			gate = &n.nic
		}
	}
	if gate != nil {
		gate.chargeRT()
	}

	// Execute the data movement. Within a batch, verbs execute in posting
	// order (RDMA guarantees ordering within one QP). A transient fault
	// truncates execution at the failing verb; a timeout executes fully
	// but the client never learns the outcome.
	c.posted += uint64(execUpTo) // ahead of Trace: a shot aimed from it counts from the next batch
	for i := 0; i < execUpTo; i++ {
		if err := c.execute(&ops[i]); err != nil {
			return i, err
		}
	}

	c.clock = completion + extraPs
	atomic.AddUint64(&c.stats.RoundTrips, 1)
	atomic.AddUint64(&c.stats.Verbs, uint64(execUpTo))
	if fault == nil {
		for _, sh := range shares {
			h.ReportSuccess(sh.node)
		}
	}
	return execUpTo, fault
}

func (c *Client) execute(op *Op) error {
	n, err := c.f.node(op.Addr.Node())
	if err != nil {
		return err
	}
	r := n.region
	off := op.Addr.Offset()
	switch op.Kind {
	case Read:
		r.Read(off, op.Data)
		atomic.AddUint64(&c.stats.BytesRead, uint64(len(op.Data)))
	case Write:
		if c.f.Line == nil {
			r.Write(off, op.Data)
		} else {
			r.WriteLines(off, op.Data, func(lines int) { c.f.Line(c, op, lines) })
		}
		atomic.AddUint64(&c.stats.BytesWrite, uint64(len(op.Data)))
	case CAS:
		op.Old = r.CompareSwap(off, op.Expect, op.Desired)
		atomic.AddUint64(&c.stats.BytesWrite, 8)
	case FAA:
		op.Old = r.FetchAdd(off, op.Delta)
		atomic.AddUint64(&c.stats.BytesWrite, 8)
	default:
		return fmt.Errorf("fabric: unknown verb %d", op.Kind)
	}
	atomic.AddUint64(&c.stats.ByKind[op.Kind], 1)
	if c.f.Trace != nil {
		c.f.Trace(c, op)
	}
	return nil
}

// post runs op as a doorbell batch of its own out of the client's one-verb
// array, returning a CAS or FAA pre-image; the array keeps no reference to
// the caller's buffer afterwards.
func (c *Client) post(op Op) (uint64, error) {
	c.one[0] = op
	err := c.Batch(c.one[:1])
	old := c.one[0].Old
	c.one[0].Data = nil
	if err != nil {
		return 0, err
	}
	return old, nil
}

// Read fetches len(dst) bytes at addr in one round trip.
func (c *Client) Read(addr mem.Addr, dst []byte) error {
	_, err := c.post(Op{Kind: Read, Addr: addr, Data: dst})
	return err
}

// Write stores src at addr in one round trip.
func (c *Client) Write(addr mem.Addr, src []byte) error {
	_, err := c.post(Op{Kind: Write, Addr: addr, Data: src})
	return err
}

// ReadUint64 fetches the 8-byte word at addr.
func (c *Client) ReadUint64(addr mem.Addr) (uint64, error) {
	var buf [8]byte
	if err := c.Read(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteUint64 stores an 8-byte word at addr. The store is atomic because it
// fits in one line (RDMA writes up to 8 B are atomic on Mellanox NICs).
func (c *Client) WriteUint64(addr mem.Addr, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return c.Write(addr, buf[:])
}

// CompareSwap executes an RDMA CAS and returns the pre-image. The swap
// succeeded iff the returned value equals expect.
func (c *Client) CompareSwap(addr mem.Addr, expect, desired uint64) (uint64, error) {
	return c.post(Op{Kind: CAS, Addr: addr, Expect: expect, Desired: desired})
}

// FetchAdd executes an RDMA FAA and returns the pre-image. Together with
// ReadUint64 it satisfies mem.RemoteOps, so a mem.Allocator can run over a
// client and pay real round trips.
func (c *Client) FetchAdd(addr mem.Addr, delta uint64) (uint64, error) {
	return c.post(Op{Kind: FAA, Addr: addr, Delta: delta})
}

// FetchAddPair executes an FAA of delta on the words at a and b in one
// doorbell batch and returns a's pre-image, meaningless with an error
// (mem.RemoteOps: an allocator's slab refill moves the bump pointer and the
// class counter in one round trip).
func (c *Client) FetchAddPair(a, b mem.Addr, delta uint64) (uint64, error) {
	c.one = [2]Op{{Kind: FAA, Addr: a, Delta: delta}, {Kind: FAA, Addr: b, Delta: delta}}
	err := c.Batch(c.one[:])
	return c.one[0].Old, err
}
