// Package fabric simulates an RDMA network connecting compute-node clients
// to memory nodes, replacing the ConnectX-6 testbed of the paper.
//
// The simulation is exact in data and virtual in time. Every verb really
// moves bytes between the client and a mem.Region, with the same atomicity
// guarantees as one-sided RDMA (8-byte atomics, torn multi-line transfers).
// Time, however, is tracked on a per-client virtual clock, advanced by a
// configurable cost model:
//
//	completion = max(clock, nicQueue) + RTT + Σ per-op NIC cost
//
// where nicQueue is a per-memory-node NIC timeline shared by all clients.
// When aggregate demand exceeds a NIC's processing rate, the queue start
// time runs ahead of client clocks and both latency inflation and
// throughput saturation emerge — the phenomena behind the paper's Fig. 5.
//
// Doorbell batching (paper §III-A, [23]) is modelled by Batch: any number
// of verbs posted together costs a single round-trip latency, while each
// verb still pays its NIC processing and byte costs.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sphinx/internal/mem"
)

// Config is the network cost model. All costs are in picoseconds so that
// sub-nanosecond per-byte costs stay exact in integer arithmetic.
type Config struct {
	// RTTPs is the base round-trip latency for any verb or batch.
	RTTPs int64
	// PerVerbPs is the NIC processing cost per verb (per posted work
	// request), charged on the target memory node's NIC timeline.
	PerVerbPs int64
	// PerBytePs is the NIC cost per payload byte, charged likewise.
	// 40 fs/B ≈ 25 GB/s is stored as 0.04 ps via PerKBPs below; to keep
	// integers exact we charge per byte in femtoseconds.
	PerByteFs int64
	// ClientVerbPs is the CN-side cost of posting one verb (doorbell
	// write, WQE build, completion poll). It bounds the op rate a single
	// worker can sustain even on an idle network.
	ClientVerbPs int64
}

// DefaultConfig models the paper's testbed: ~2 µs RTT, 100 Gbps-class NIC.
//
//   - RTT 2 µs.
//   - Per-verb NIC cost 8 ns → ≈125 M verbs/s per MN NIC.
//   - Per-byte cost 40 fs → 25 GB/s per MN NIC.
//   - Client verb cost 150 ns (WQE post + CQ poll share).
func DefaultConfig() Config {
	return Config{
		RTTPs:        2_000_000,
		PerVerbPs:    8_000,
		PerByteFs:    40_000,
		ClientVerbPs: 150_000,
	}
}

// InstantConfig is a zero-cost model for functional tests and examples
// where timing is irrelevant.
func InstantConfig() Config { return Config{} }

// Kind enumerates the one-sided verbs.
type Kind uint8

// The verb set available to clients (paper §II-A).
const (
	Read Kind = iota
	Write
	CAS
	FAA
)

// kindNames names the verbs, by Kind.
var kindNames = [...]string{Read: "READ", Write: "WRITE", CAS: "CAS", FAA: "FAA"}

// String names the verb.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("verb(%d)", uint8(k))
}

// Op is one verb within a doorbell batch. For Read, Data is the destination
// buffer; for Write, the source. For CAS, Expect/Desired are the compare
// and swap operands; for FAA, Delta is the addend. After execution, Old
// holds the pre-image for CAS and FAA.
type Op struct {
	Kind    Kind
	Addr    mem.Addr
	Data    []byte
	Expect  uint64
	Desired uint64
	Delta   uint64
	Old     uint64
}

// nicSlotPs is the granularity of the NIC capacity timeline: each slot of
// virtual time offers nicSlotPs of processing capacity. One microsecond is
// fine enough that queueing delays resolve well below a round trip.
const nicSlotPs = 1_000_000

// nicPage is the number of slots in one page of a NIC's timeline.
const nicPage = 4096

// nicPages is the number of pages a NIC's timeline remembers: a ring of the
// latest 256 pages, 1.05 s of virtual time (4 MiB per NIC). It must cover
// the largest virtual-clock skew between one fabric's clients, since a
// booking behind the ring finds its history forgotten (nic.used).
const nicPages = 256

// nic is one memory node's NIC processing timeline, modelled as capacity
// per virtual-time slot. Unlike a single free-pointer queue, this lets a
// request whose issue time (virtual clock) lies in the past consume the
// capacity that was genuinely idle then — necessary because worker
// goroutines reach the simulated NIC in real-scheduling order, not
// virtual-time order. Saturation still emerges: when aggregate demand
// around an instant exceeds slot capacity, requests spill into later
// slots and completion times stretch.
type nic struct {
	mu sync.Mutex
	// ring holds the timeline's pages — the capacity already consumed (ps, at
	// most nicSlotPs) of each slot of nicPage slots — page p at
	// ring[p%nicPages] with p in pageOf, each allocated on first touch and
	// taken over in place by a newer page.
	ring   [nicPages]*[nicPage]int32
	pageOf [nicPages]int64
	// forgotten is the slot a booking behind the ring consumes: zeroed
	// before each use, so such a booking finds the NIC idle.
	forgotten int32
	// cumulative demand counters, for utilization reports
	busyPs int64
	waitPs int64 // queueing delay: reservations pushed past their ready time
	verbs  uint64
	bytes  uint64
	rts    uint64 // completed batches whose completion this NIC gated
	faults uint64 // injected faults charged to batches targeting this NIC
	late   uint64 // bookings behind the ring, booked as idle (NICStats.LateBookings)
}

// chargeFault counts one injected fault against the NIC of node id.
func (f *Fabric) chargeFault(id mem.NodeID) {
	if n, err := f.node(id); err == nil {
		n.nic.mu.Lock()
		n.nic.faults++
		n.nic.mu.Unlock()
	}
}

// chargeRT attributes one completed doorbell batch to this NIC. Each
// batch is charged to exactly one NIC — the one whose reservation
// finish time gated the batch's completion — so summing rts across
// nodes always equals the clients' RoundTrips total, giving per-MN
// round-trip accounting that reconciles exactly.
func (n *nic) chargeRT() {
	n.mu.Lock()
	n.rts++
	n.mu.Unlock()
}

// reserve books cost picoseconds of NIC time no earlier than notBefore and
// returns the start time of the reservation.
func (n *nic) reserve(notBefore, cost int64, verbs int, bytes uint64) int64 {
	n.mu.Lock()
	slot := notBefore / nicSlotPs
	start := int64(-1)
	rem := cost
	late := false
	for rem > 0 {
		used, kept := n.used(slot)
		late = late || !kept
		if avail := nicSlotPs - int64(*used); avail > 0 {
			if start < 0 {
				start = slot * nicSlotPs
				if notBefore > start {
					start = notBefore
				}
			}
			take := min(avail, rem)
			*used += int32(take)
			rem -= take
		}
		slot++
	}
	if late {
		n.late++
	}
	if start < 0 {
		start = notBefore
	}
	if start > notBefore {
		// The NIC was saturated when this batch arrived: the gap is pure
		// queueing delay, the per-MN hotspot signal load balancing watches.
		n.waitPs += start - notBefore
	}
	n.busyPs += cost
	n.verbs += uint64(verbs)
	n.bytes += bytes
	n.mu.Unlock()
	return start
}

// used returns the consumed capacity of a slot. A page newer than the one
// its ring position holds clears that page in place and takes it over; a
// page older than it lies behind the ring, its history forgotten: kept is
// false and the slot returned is an idle one nothing remembers.
func (n *nic) used(slot int64) (used *int32, kept bool) {
	p := slot / nicPage
	i := p % nicPages
	switch {
	case n.ring[i] == nil:
		n.ring[i], n.pageOf[i] = new([nicPage]int32), p
	case n.pageOf[i] < p:
		clear(n.ring[i][:])
		n.pageOf[i] = p
	case n.pageOf[i] > p:
		n.forgotten = 0
		return &n.forgotten, false
	}
	return &n.ring[i][slot%nicPage], true
}

type node struct {
	region *mem.Region
	nic    nic
}

// Fabric is the simulated cluster interconnect plus the set of attached
// memory nodes. Construct it once, attach memory nodes, then create one
// Client per worker.
type Fabric struct {
	cfg    Config
	mu     sync.Mutex
	nodes  []*node
	plan   *FaultPlan
	nextID int

	// health is the shared per-MN breaker table; always allocated, gating
	// off by default. killed flags permanently lost nodes (KillNode) — the
	// injected ground truth, distinct from the observed breaker state.
	health *Health
	killed [mem.MaxNodes]uint32
	// crashed holds the IDs of the clients an aimed crash ended
	// (ClientCrashed).
	crashed sync.Map

	// Trace, if set before any client runs, is invoked after every verb
	// executes (under no locks). Test-only: it records event orders, aims a
	// fault, and is where the schedule explorer (fabrictest.Run) parks a
	// client between its verbs.
	Trace func(client *Client, op *Op)
	// Scheduled, set by the schedule explorer for the length of a run, says
	// one client runs at a time: a waiter's host park only stalls the run.
	Scheduled bool
}

// New creates a fabric with the given cost model.
func New(cfg Config) *Fabric { return &Fabric{cfg: cfg, health: NewHealth()} }

// Health returns the fabric's shared per-MN health tracker.
func (f *Fabric) Health() *Health { return f.health }

// KillNode permanently kills a memory node: unlike a DownWindow, the node
// never comes back. Every subsequent verb targeting it fails with
// ErrNodeKilled; the node's data is treated as lost (reads against its
// region are no longer served). The health tracker learns of the death on
// first contact (one charged round trip), after which gated clients reject
// locally at zero cost.
func (f *Fabric) KillNode(id mem.NodeID) {
	atomic.StoreUint32(&f.killed[id], 1)
}

// NodeKilled reports whether the node has been permanently killed.
func (f *Fabric) NodeKilled(id mem.NodeID) bool {
	return atomic.LoadUint32(&f.killed[id]) != 0
}

// ClientCrashed reports whether the client with this ID crashed (an aimed
// crash, Client.FailAt). It stands for a membership service that declares a
// compute node dead and revokes its queue pairs: the answer turns true once
// the verbs its last batch ran ahead of the crash have executed, and the
// client posts nothing ever again, so a lock it held is fenced and may
// change hands.
func (f *Fabric) ClientCrashed(id int) bool {
	_, ok := f.crashed.Load(id)
	return ok
}

// Config returns the fabric's cost model.
func (f *Fabric) Config() Config { return f.cfg }

// SetFaultPlan installs the seeded, probabilistic faults and the down
// windows every client created afterwards observes: each derives its
// deterministic fault stream from the plan's seed at creation time. A nil
// plan (the default) injects nothing and adds no per-verb overhead. A fault
// aimed at one verb belongs to a client, not to the plan (Client.FailAt).
func (f *Fabric) SetFaultPlan(p *FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = p
}

// AddNode attaches a memory node with a region of the given size and
// returns its ID. The region's allocator header is initialized.
func (f *Fabric) AddNode(size uint64) mem.NodeID {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.nodes) >= mem.MaxNodes {
		panic("fabric: too many memory nodes")
	}
	id := mem.NodeID(len(f.nodes))
	r := mem.NewRegion(id, size)
	mem.InitRegionHeader(r)
	f.nodes = append(f.nodes, &node{region: r})
	return id
}

// Region exposes a node's region for bootstrap-time direct access
// (mem.DirectOps) and white-box tests. Index code must not use it.
func (f *Fabric) Region(id mem.NodeID) *mem.Region {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[id].region
}

// Regions returns a DirectOps view over all attached regions for
// bootstrap-time allocation.
func (f *Fabric) Regions() mem.DirectOps {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := make(map[mem.NodeID]*mem.Region, len(f.nodes))
	for i, n := range f.nodes {
		m[mem.NodeID(i)] = n.region
	}
	return mem.DirectOps{Regions: m}
}

func (f *Fabric) node(id mem.NodeID) (*node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) >= len(f.nodes) {
		return nil, fmt.Errorf("fabric: unknown memory node %d", id)
	}
	return f.nodes[id], nil
}

// RegionSize returns the size of a node's region, so clients can clamp
// speculative over-reads (e.g., of variable-size leaves) at the region
// boundary, as a real RDMA client would clamp at its registered MR length.
func (f *Fabric) RegionSize(id mem.NodeID) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) >= len(f.nodes) {
		return 0
	}
	return f.nodes[id].region.Size()
}

// ResetTimelines zeroes every NIC's queue timeline so a new measurement
// phase starts from an idle network, the way a real experiment separates
// its load and run phases. The ring keeps its pages: each is marked older
// than any page and cleared when a booking next takes it over. Cumulative
// NIC counters are preserved. Callers must ensure no client is
// mid-operation.
func (f *Fabric) ResetTimelines() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		n.nic.mu.Lock()
		for i := range n.nic.pageOf {
			n.nic.pageOf[i] = -1
		}
		n.nic.mu.Unlock()
	}
}

// NICStats is a snapshot of one memory node's NIC counters.
type NICStats struct {
	Node   mem.NodeID `json:"node"`
	BusyPs int64      `json:"busy_ps"`
	// WaitPs is cumulative queueing delay: how long arriving batches had
	// to wait for a saturated NIC. A node whose WaitPs grows much faster
	// than its peers' is a placement hotspot — the signal the elastic
	// rebalancing experiment tracks before and after a membership change.
	WaitPs int64  `json:"wait_ps"`
	Verbs  uint64 `json:"verbs"`
	Bytes  uint64 `json:"bytes"`
	// RoundTrips counts completed doorbell batches attributed to this
	// node: each batch is charged to the single NIC whose reservation
	// gated its completion (ties break to the lowest node ID), so the
	// sum over all nodes equals the clients' RoundTrips total exactly.
	RoundTrips uint64 `json:"round_trips"`
	Faults     uint64 `json:"faults"` // injected faults on batches targeting this NIC
	// LateBookings counts the reservations whose virtual time lay behind
	// the NIC timeline's window (nicPages): booked as if the NIC had been
	// idle then. Nonzero means clients' clocks drifted apart by more than
	// the window and queueing was under-counted.
	LateBookings uint64 `json:"late_bookings,omitempty"`
}

// NICStats returns the NIC counters of every node.
func (f *Fabric) NICStats() []NICStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]NICStats, len(f.nodes))
	for i, n := range f.nodes {
		n.nic.mu.Lock()
		out[i] = NICStats{Node: mem.NodeID(i), BusyPs: n.nic.busyPs, WaitPs: n.nic.waitPs, Verbs: n.nic.verbs, Bytes: n.nic.bytes, RoundTrips: n.nic.rts, Faults: n.nic.faults, LateBookings: n.nic.late}
		n.nic.mu.Unlock()
	}
	return out
}

func opBytes(op *Op) uint64 {
	switch op.Kind {
	case Read, Write:
		return uint64(len(op.Data))
	default:
		return 8
	}
}
