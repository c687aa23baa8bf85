// The replicated record store: the one protocol behind both replica layers.
//
// Anchors (replica.go, durability) and hot replicas (hotreplica.go, read
// spreading) keep the same thing on the memory nodes: immutable versioned
// records — (status, key, value, version) — in a dedicated RACE-style table
// per MN, placed on ring successors of the key, published to completion
// before the write that produced them is acknowledged, last-writer-wins per
// node on the table entry CAS, and unioned with the previous epoch's
// replica set while a membership transition is in flight. A recordStore is
// one client's handle on one such layer; find, publish, remove and sweep
// are written here once, and each of the first three is ONE fan-out over the
// key's whole target list (fanout): every target advances together, one
// doorbell batch per dependency level, instead of one target after another.
// A write's acknowledgement begins the anchors' fan-out before its tree write,
// whose own batches carry the read rounds (ride), and advances the fan-outs of
// both layers in the same batches once it has committed (arm, run). What stays
// with each layer is its placement predicate and its callers' per-node error
// policy.
//
// Publication takes no serialising lock, so two publishers that both
// observe "absent" on a node both insert and the table briefly holds two
// entries for one key (the CAS-publish duplicate class of "Hash Table
// Design for RDMA", arXiv:2606.24073). The store therefore never trusts
// the first match: a fan-out reads the head of every record of the key,
// readers and publishers pick the highest version, and every publish removes
// the losers it saw.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/wire"
)

// Record layout (immutable once written, except the status word):
//
//	word 0: wire.NodeHeader — Status (Idle: servable; Locked: a promotion
//	        placeholder; Invalid: retired), Type Node4, Depth = len(key),
//	        PrefixHash = the key's 42-bit hash. The hash table's segment
//	        split recovers entry placement by reading this word, so records
//	        must carry it exactly like inner nodes do.
//	word 1: version (LWW order: cluster-wide counter ‖ writer ID)
//	word 2: len(key) | len(value)<<16
//	24..  : key bytes, then value bytes
const (
	recordVersionOff = 8
	recordLensOff    = 16
	recordDataOff    = 24
	// recordSpecRead is the speculative first-read size for records of
	// unknown length: header plus a typical small-key/64-byte-value payload
	// in one round trip.
	recordSpecRead = 256
	// publishMaxRaces bounds how many lost same-key swap races one publish
	// absorbs before giving up (each loss means another writer landed a
	// version in the meantime, so starvation needs a pathological
	// single-key write storm).
	publishMaxRaces = 16
)

// record is one record's content: what publish writes and read decodes.
type record struct {
	status  wire.Status
	key     []byte
	value   []byte
	version uint64
}

func recordHeader(st wire.Status, key []byte) uint64 {
	return wire.NodeHeader{
		Status:     st,
		Type:       wire.Node4,
		Depth:      uint16(len(key)),
		PrefixHash: wire.PrefixHash42(key),
	}.Encode()
}

// appendRecord appends r's image to dst.
func appendRecord(dst []byte, r record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, recordHeader(r.status, r.key))
	dst = binary.LittleEndian.AppendUint64(dst, r.version)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(r.key))|uint64(len(r.value))<<16)
	return append(append(dst, r.key...), r.value...)
}

// decodeRecordWords parses the three fixed words of a record image.
func decodeRecordWords(buf []byte) (st wire.Status, version uint64, keyLen, valLen int) {
	st = wire.DecodeNodeHeader(binary.LittleEndian.Uint64(buf[0:])).Status
	version = binary.LittleEndian.Uint64(buf[recordVersionOff:])
	lens := binary.LittleEndian.Uint64(buf[recordLensOff:])
	return st, version, int(lens & 0xffff), int(lens >> 16)
}

// head is one table entry of a key with the fixed words of its record —
// everything the store decides on. The value is read only by whoever returns
// it (read).
type head struct {
	entry   wire.HashEntry
	status  wire.Status
	version uint64
	size    int // the whole image: fixed words, key, value
}

// newest returns the index of the highest-version head, -1 for none.
func newest(heads []head) int {
	best := -1
	for i := range heads {
		if best < 0 || heads[i].version > heads[best].version {
			best = i
		}
	}
	return best
}

// recordTables is the cluster-wide half of a record layer, shared by every
// client: the per-MN tables (copy-on-write; grows when elastic scale-out
// gives a joining node a table) and the version counter.
type recordTables struct {
	byNode atomic.Pointer[map[mem.NodeID]racehash.Table]
	// ver issues LWW versions. Shared across clients (modelling a CN-side
	// timestamp oracle) so versions are totally ordered cluster-wide: a
	// fresh client's write must outrank records written earlier by
	// longer-lived clients.
	ver atomic.Uint64
}

// bootstrapTables creates one racehash table sized for perNode entries on
// each of nodes. Runs at cluster-setup time with direct region access.
func bootstrapTables(f *fabric.Fabric, alloc *mem.Allocator, nodes []mem.NodeID, perNode int) (map[mem.NodeID]racehash.Table, error) {
	tables := make(map[mem.NodeID]racehash.Table, len(nodes))
	for _, node := range nodes {
		t, err := racehash.Bootstrap(f.Region(node), alloc, node, perNode)
		if err != nil {
			return nil, fmt.Errorf("table on node %d: %w", node, err)
		}
		tables[node] = t
	}
	return tables, nil
}

func newRecordTables(tables map[mem.NodeID]racehash.Table) *recordTables {
	rt := &recordTables{}
	rt.byNode.Store(&tables)
	return rt
}

// hosts reports whether node holds a table of this layer.
func (rt *recordTables) hosts(node mem.NodeID) bool {
	_, ok := (*rt.byNode.Load())[node]
	return ok
}

// extend registers a joining node's table.
func (rt *recordTables) extend(node mem.NodeID, t racehash.Table) {
	for {
		old := rt.byNode.Load()
		next := extendTables(*old, node, t)
		if rt.byNode.CompareAndSwap(old, &next) {
			return
		}
	}
}

// unionNodes appends to dst every node of more that dst does not hold yet.
func unionNodes(dst, more []mem.NodeID) []mem.NodeID {
	for _, n := range more {
		if !slices.Contains(dst, n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// recordStore is one client's handle on one record layer. Like the Client
// that owns it, it is single-goroutine.
type recordStore struct {
	fc     *fabric.Client
	alloc  *mem.Allocator
	tables *recordTables
	// r and eligible are the layer's placement: a key's replica set is the
	// first r distinct ring successors that are eligible — the one thing the
	// layers genuinely disagree on (anchors: healthy nodes, so writes route
	// around dead ones; hot: nodes hosting a table, health-blind, so writers
	// provably cover every record a reader could reach).
	r        int
	eligible func(mem.NodeID) bool
	// routed says readers cache record addresses (the hot route caches), so
	// an image that leaves the table must be retired — its status word
	// overwritten — or a cached address would keep serving it.
	routed bool
	// stage annotates the store's verbs (StageNone: anchors are unstaged).
	stage fabric.Stage
	// skip is the layer's error policy: a target whose leg failed with it is
	// passed over, any other error fails the operation (reached). Anchors skip
	// every unreachable node, and count; the hot layer only killed ones, whose
	// records no reader can fetch either.
	skip error

	views map[mem.NodeID]*racehash.View // grown lazily, one per node touched
	nodes []mem.NodeID                  // target-resolution scratch
	cands []racehash.Candidate          // bucket-lookup scratch
	stats *Stats                        // the owning client's counters (Replica*)

	// The fan-out in progress and its scratch, reused across operations: the
	// operation, the legs (valid until the next fan-out), the round's batch,
	// the record image — encoded once, written to every target — and the
	// status word that retires an image of the key.
	op   fanOp
	legs []leg
	ops  []fabric.Op
	img  []byte
	dead [8]byte
	// The last fan-out's batches, for its trace note: all that carried its
	// verbs, and those of them another batch carried (ride).
	batchN, ridden int
	// pending: the fan-out was begun, under placement at, for a write that has
	// not committed yet, and rides its client's batches (ride); a leg that
	// reaches the version gate parks there until arm.
	pending bool
	at      *Placement
}

// nextVersion returns a fresh LWW version from the layer's cluster-wide
// counter, tagged with the client ID for debuggability. Totally ordered
// across clients — exact when each key has a single writer at a time,
// last-writer-wins under concurrent writers to the same key.
func (s *recordStore) nextVersion() uint64 {
	return s.tables.ver.Add(1)<<8 | uint64(s.fc.ID())&0xff
}

// targets resolves key's replica set under placement p into the store's
// scratch (valid until the next call). withPrev unions in the previous
// epoch's set while a transition is in flight: records published against
// the old ring must stay covered until cutover. curN is how many leading
// entries come from p's own ring.
func (s *recordStore) targets(p *Placement, key []byte, withPrev bool) (ts []mem.NodeID, curN int) {
	ts = s.place(s.nodes[:0], p.Ring, key)
	curN = len(ts)
	if withPrev && p.Prev != nil {
		ts = unionNodes(ts, s.place(nil, p.Prev.Ring, key))
	}
	s.nodes = ts
	return ts, curN
}

// place appends key's replica set on ring to dst (fewer than r nodes when
// fewer are eligible).
func (s *recordStore) place(dst []mem.NodeID, ring *consistenthash.Ring, key []byte) []mem.NodeID {
	start := len(dst)
	for _, o := range ring.OwnersKey(key, len(ring.Nodes())) {
		if len(dst)-start == s.r {
			break
		}
		if s.eligible(o) {
			dst = append(dst, o)
		}
	}
	return dst
}

func (s *recordStore) viewOf(node mem.NodeID) (*racehash.View, error) {
	if v, ok := s.views[node]; ok {
		return v, nil
	}
	t, ok := (*s.tables.byNode.Load())[node]
	if !ok {
		return nil, fmt.Errorf("core: no record table on node %d", node)
	}
	v := racehash.NewView(t, s.fc)
	s.views[node] = v
	return v, nil
}

func entryOfRecord(key []byte, addr mem.Addr) wire.HashEntry {
	return wire.HashEntry{Valid: true, FP: wire.FP12(key), Type: wire.Node4, Addr: addr}
}

// room returns how many bytes lie between addr and the end of its region:
// the clamp every read of a record of unknown or remembered size applies.
func (s *recordStore) room(addr mem.Addr) uint64 {
	size := s.fc.Fabric().RegionSize(addr.Node())
	return max(size, addr.Offset()) - addr.Offset()
}

// read fetches and decodes the record at addr: a first read of size bytes —
// the image's exact size where a head gave it, recordSpecRead where nothing is
// known — with a follow-up when the record outgrows it. Reads are clamped at
// the region boundary. The returned key and value alias the read buffer.
func (s *recordStore) read(addr mem.Addr, size int) (record, error) {
	room := s.room(addr)
	if room < recordDataOff {
		return record{}, fmt.Errorf("core: record at %v truncated by region boundary", addr)
	}
	buf := make([]byte, min(uint64(size), room))
	if err := s.fc.Read(addr, buf); err != nil {
		return record{}, err
	}
	st, version, keyLen, valLen := decodeRecordWords(buf)
	total := recordDataOff + keyLen + valLen
	if keyLen == 0 || keyLen > wire.MaxDepth || uint64(total) > room {
		return record{}, fmt.Errorf("core: malformed record at %v (keyLen=%d valLen=%d)", addr, keyLen, valLen)
	}
	if total > len(buf) {
		buf = make([]byte, total)
		if err := s.fc.Read(addr, buf); err != nil {
			return record{}, err
		}
	}
	valOff := recordDataOff + keyLen
	return record{status: st, key: buf[recordDataOff:valOff:valOff], value: buf[valOff:total:total], version: version}, nil
}

// publishMode is what a publish may do to a node's table.
type publishMode int

const (
	// publishUpsert inserts the record or swaps it over an older one:
	// anchor writes, repair, migration.
	publishUpsert publishMode = iota
	// publishSwapOnly only ever replaces an existing record (hot refresh,
	// the promoter's final publish): absence means the key is not, or no
	// longer, kept on the node, and inserting could resurrect a
	// concurrently deleted key.
	publishSwapOnly
	// publishIfAbsent inserts only onto a node that holds nothing for the
	// key (the promoter's Locked placeholder): it must never displace a
	// live record.
	publishIfAbsent
)

// published is the outcome of a publish on one node.
type published struct {
	// addr and size locate the record now live for the key on the node —
	// ours, or the winner's that outranked it; servable says it is Idle.
	// Zero when the node holds nothing for the key.
	addr     mem.Addr
	size     int
	servable bool
	wrote    bool // our image went live
}

// fanOp is the operation a fan-out carries to every target: the key, and what
// to do on a node once the heads of the key's records there are known —
// nothing (find), drop them (remove), or publish a record over them.
type fanOp struct {
	key     []byte
	h42     uint64
	fp      uint16
	remove  bool
	only    func(head) bool // remove: which records go; nil takes all
	publish bool
	rec     record
	mode    publishMode
	stamp   bool // rec takes a fresh version when the fan-out is armed
}

// legStep is where a leg stands: the doorbell batch it posts next.
type legStep uint8

const (
	stepBuckets legStep = iota // R1: READ the key's bucket pair
	stepHeads                  // R2: READ the head of every fingerprint match
	stepGate                   // parked at the version gate until the fan-out is armed
	stepSwap                   // R3: WRITE our image, CAS its entry in, re-check the bucket header
	stepDrops                  // R4: retire a superseded image; drop an entry (CAS→0, re-check, retire)
	stepDone
)

// leg is one target node's way through a fan-out. Callers read node, err,
// heads and pub; the rest is the fan-out's own.
type leg struct {
	node  mem.NodeID
	err   error     // the target's terminal error; what it means is the caller's policy
	heads []head    // the key's records on the node, as last read
	pub   published // publish: the outcome on this node

	view     *racehash.View
	read     racehash.PreparedRead // the bucket pair: R1 fetches it, every later entry CAS is planned from it
	step     legStep
	races    int              // re-entries into R1: lost swaps, stale directories
	stale    bool             // the directory cache failed R1: refresh before the next one
	from, to int              // the leg's verbs in the round's batch
	bufs     []byte           // the head reads of R2, back to back
	own      wire.HashEntry   // our image's entry, once allocated
	over     int              // which head our entry replaces; -1: none, insert
	retire   mem.Addr         // an image the next drop round retires: the superseded one, or ours abandoned
	drops    []wire.HashEntry // entries to take out of the table, one per round
	must     bool             // a failed drop round fails the leg; else it is best effort
}

// find reads the heads of key's records on every node.
func (s *recordStore) find(nodes []mem.NodeID, key []byte) []leg {
	return s.fanout(nodes, fanOp{key: key})
}

// newestOf returns the highest-version head across the legs that answered,
// with its leg; nil when none of them holds a record.
func newestOf(legs []leg) (at *leg, pick head) {
	for i := range legs {
		l := &legs[i]
		if b := newest(l.heads); l.err == nil && b >= 0 && (at == nil || l.heads[b].version > pick.version) {
			at, pick = l, l.heads[b]
		}
	}
	return at, pick
}

// remove deletes every record of key on every node — or, with only, every
// one only accepts. No tombstones: see docs/failure-model.md.
func (s *recordStore) remove(nodes []mem.NodeID, key []byte, only func(head) bool) []leg {
	return s.fanout(nodes, fanOp{key: key, remove: true, only: only})
}

// publish makes rec each node's record of its key unless a record of equal
// or higher version is already there. Per node: pick the highest-version head,
// keep it if it outranks rec, else write rec's image (once — it is immutable,
// so one allocation serves every retry) and CAS its entry in, over the pick
// or into an empty slot. No lock serialises publishers: a lost swap race means
// another writer landed a version in between, so the loser re-reads and
// re-decides by version. The winner retires the superseded image if the store
// is routed (a publish whose retire failed is an error, like one whose entry
// CAS failed) and drops every other head it saw.
//
// An exit that provably never published a written image — a newer winner
// adopted after a lost race, the record vanished, the race budget ran out —
// retires it, so no live-looking Idle orphan floats in dead memory. An
// entry CAS that failed with an error is not such an exit: the completion
// may have been lost after the CAS landed, and the image may be live.
func (s *recordStore) publish(nodes []mem.NodeID, rec record, mode publishMode) []leg {
	return s.fanout(nodes, fanOp{key: rec.key, publish: true, rec: rec, mode: mode})
}

// writeOp is what a write does to the store's records of key once it has
// committed: drop every one (remove), or publish value over them at a version
// drawn then (arm) under mode.
func (s *recordStore) writeOp(key, value []byte, remove bool, mode publishMode) fanOp {
	if remove {
		return fanOp{key: key, remove: true}
	}
	return fanOp{key: key, publish: true, rec: record{wire.StatusIdle, key, value, 0}, mode: mode, stamp: true}
}

// fanout carries op to every node at once: begin, arm, then run alone. The
// returned legs are store scratch, valid until the next fan-out.
func (s *recordStore) fanout(nodes []mem.NodeID, op fanOp) []leg {
	run(s.begin(nodes, op).arm())
	return s.legs
}

// begin readies one leg per node for op and returns s: each leg's bucket pair
// is prepared here, so any directory fetch is posted here, outside every batch
// the fan-out may ride (ride). A leg whose view or directory failed is done.
func (s *recordStore) begin(nodes []mem.NodeID, op fanOp) *recordStore {
	s.unride()
	defer s.fc.SetStage(s.fc.SetStage(s.stage))
	op.h42, op.fp = racehash.PlacementHash(op.key), wire.FP12(op.key)
	s.op = op
	binary.LittleEndian.PutUint64(s.dead[:], recordHeader(wire.StatusInvalid, op.key))
	s.legs = slices.Grow(s.legs[:0], len(nodes))[:len(nodes)]
	for i := range s.legs {
		l := &s.legs[i]
		*l = leg{node: nodes[i], heads: l.heads[:0], bufs: l.bufs[:0], drops: l.drops[:0]}
		if l.view, l.err = s.viewOf(l.node); l.err == nil {
			l.err = l.view.PrepareInto(&l.read, op.h42)
		}
		if l.err != nil {
			l.step = stepDone
		}
	}
	s.batchN, s.ridden = 0, 0
	atomic.AddUint64(&s.stats.ReplicaFanouts, 1)
	atomic.AddUint64(&s.stats.ReplicaLegs, uint64(len(nodes)))
	return s
}

// ride registers the fan-out, begun on targets resolved under p, as its
// client's rider: its read rounds — bucket pairs, then heads — go out behind
// the verbs of the client's next batches, the tree write's, and each leg parks
// at the version gate (arm).
func (s *recordStore) ride(p *Placement) {
	s.pending, s.at = true, p
	s.fc.SetRider(s)
}

// unride ends a pending fan-out's ride: off its client's rider slot, and no
// longer parking legs at the version gate.
func (s *recordStore) unride() {
	if s.pending {
		s.pending = false
		s.fc.SetRider(nil)
	}
}

// begunUnder reports whether the riding fan-out still has the targets a write
// resolved under p would: the same placement, and every target still eligible.
// Eligibility only ever shrinks (a breaker's dead verdict is terminal), so
// that is the same target list without resolving it again. A write whose
// targets moved since it began (an epoch change, a target found dead) begins
// again instead.
func (s *recordStore) begunUnder(p *Placement) bool {
	if !s.pending || s.at != p {
		return false
	}
	for i := range s.legs {
		if !s.eligible(s.legs[i].node) {
			return false
		}
	}
	return true
}

// arm readies the begun fan-out for run, once the write it acknowledges has
// committed: the rider slot is given back, a write's version is drawn — after
// the commit, as LWW order wants — and the image encoded, once for every
// target; then every leg parked at the version gate passes it.
func (s *recordStore) arm() *recordStore {
	s.unride()
	if s.op.stamp {
		s.op.rec.version = s.nextVersion()
	}
	if s.op.publish {
		s.img = appendRecord(s.img[:0], s.op.rec)
	}
	for i := range s.legs {
		if l := &s.legs[i]; l.step == stepGate {
			s.decide(l)
		}
	}
	return s
}

// Ride implements fabric.Rider: the read round every riding leg posts next —
// its bucket pair, or the heads behind it — goes behind the client's verbs.
func (s *recordStore) Ride(ops []fabric.Op) []fabric.Op {
	base := len(ops)
	for i := range s.legs {
		l := &s.legs[i]
		l.from = len(ops) - base
		switch {
		case l.step == stepBuckets && !l.stale:
			ops = l.read.AppendOps(ops) // prepared by begin: nothing to fetch
		case l.step == stepHeads:
			ops = s.post(l, ops)
		}
		l.to = len(ops) - base
	}
	return ops
}

// Rode implements fabric.Rider: every leg whose share executed settles, which
// parks it at the version gate once its heads are known; the rest ride the
// next batch again. A rejected batch may have named a node the tree write does
// not touch, so the ride ends there: run carries what is left, leg by leg.
func (s *recordStore) Rode(share []fabric.Op, executed int, err error) {
	s.batchN++
	s.ridden++
	atomic.AddUint64(&s.stats.ReplicaRounds, 1)
	atomic.AddUint64(&s.stats.ReplicaRidden, 1)
	if executed == 0 && errors.Is(err, fabric.ErrNodeDown) {
		s.fc.SetRider(nil)
		return
	}
	for i := range s.legs {
		if l := &s.legs[i]; l.to > l.from && l.to <= executed {
			s.settle(l, share)
		}
	}
}

// run carries the begun fan-outs of stores (nil ones skipped; all share their
// owning client's fabric client and Stats) to their end together: each round
// posts ONE doorbell batch holding whatever every unfinished leg of every
// store does next, so the targets pay a dependency level together — bucket
// pairs, heads, image WRITE + entry CAS, retires and drops — not one after
// another, nor one layer after the other. One MN executes a batch in posting
// order, so an image is whole before the entry CAS behind it names it. A leg
// whose swap lost, or whose directory was stale, goes back to the bucket read
// alone. A batch that failed says nothing about which node failed it, so each
// leg's share is posted again by itself and the error, if it repeats, is that
// leg's: every verb here is idempotent, or concluded by a racehash Finish…
// that is. A round is charged to the stage of the last store with verbs in it
// (hot-pub, when a write's round carries a hot-record verb); what a store's
// legs post on their own — a directory fetch, a re-posted share, the table's
// own loop — to the store's stage.
func run(stores ...*recordStore) {
	if stores = slices.DeleteFunc(stores, func(s *recordStore) bool { return s == nil }); len(stores) == 0 {
		return
	}
	fc, stats := stores[0].fc, stores[0].stats
	defer fc.SetStage(fc.Stage())
	for {
		ops, stage := stores[0].ops[:0], fc.Stage()
		for _, s := range stores {
			fc.SetStage(s.stage)
			from := len(ops)
			for i := range s.legs {
				l := &s.legs[i]
				l.from = len(ops)
				ops = s.post(l, ops)
				l.to = len(ops)
			}
			if len(ops) > from {
				s.batchN++
				stage = s.stage
			}
		}
		if stores[0].ops = ops[:0]; len(ops) == 0 {
			return // every leg is done: an unfinished one always has a verb to post
		}
		fc.SetStage(stage)
		atomic.AddUint64(&stats.ReplicaRounds, 1)
		err, split := fc.Batch(ops), false
		for _, s := range stores {
			fc.SetStage(s.stage)
			for i := range s.legs {
				l := &s.legs[i]
				if l.step == stepDone {
					continue
				}
				lerr := err
				if err != nil && l.to-l.from < len(ops) {
					split = true
					s.batchN++
					atomic.AddUint64(&stats.ReplicaRounds, 1)
					lerr = fc.Batch(ops[l.from:l.to])
				}
				if lerr != nil {
					l.fail(lerr)
				} else {
					s.settle(l, ops)
				}
			}
		}
		if split {
			atomic.AddUint64(&stats.ReplicaSplits, 1)
		}
	}
}

// reached applies the layer's error policy to a fan-out's legs: how many
// targets it reached, and the first error the layer does not skip.
func (s *recordStore) reached(legs []leg) (n int, err error) {
	for i := range legs {
		switch err := legs[i].err; {
		case err == nil:
			n++
		case !errors.Is(err, s.skip):
			return n, err
		}
	}
	return n, nil
}

// post appends the verbs of l's next round to ops: none once l is done.
func (s *recordStore) post(l *leg, ops []fabric.Op) []fabric.Op {
	switch l.step {
	case stepBuckets:
		if l.stale {
			if err := l.view.Refresh(); err != nil {
				l.fail(err)
				return ops
			}
			l.stale = false
		}
		if err := l.view.PrepareInto(&l.read, s.op.h42); err != nil {
			l.fail(err)
			return ops
		}
		return l.read.AppendOps(ops)
	case stepHeads:
		// Status, version, lengths and key: all a decision reads. The value
		// stays where it is.
		n := recordDataOff + len(s.op.key)
		l.bufs = slices.Grow(l.bufs[:0], n*len(l.heads))[:n*len(l.heads)]
		for i, h := range l.heads {
			ops = append(ops, fabric.Op{Kind: fabric.Read, Addr: h.entry.Addr, Data: l.bufs[i*n : (i+1)*n]})
		}
	case stepSwap:
		// The image is immutable, so a retry after a lost race posts the same
		// bytes to the same address again.
		ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: l.own.Addr, Data: s.img})
		// A read that cannot carry the CAS (split-locked, full) plans nothing:
		// settle's Finish… then takes the table's own loop.
		if l.over < 0 {
			ops, _ = l.read.AppendInsert(ops, l.own)
		} else {
			ops, _ = l.read.AppendReplace(ops, l.heads[l.over].entry, l.own)
		}
	case stepDrops:
		if l.retire != 0 {
			ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: l.retire, Data: s.dead[:]})
		}
		if n := len(l.drops); n > 0 {
			// In a routed store the entry's image is retired whether or not the
			// remove lands: an unservable record is the safe direction for a cache.
			ops, _ = l.read.AppendRemove(ops, l.drops[n-1])
			if s.routed {
				ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: l.drops[n-1].Addr, Data: s.dead[:]})
			}
		}
	}
	return ops
}

// settle consumes the results of l's round from the executed batch and moves
// the leg on.
func (s *recordStore) settle(l *leg, ops []fabric.Op) {
	switch l.step {
	case stepBuckets:
		if !l.read.Valid() {
			// Refreshed where the leg posts next (post): a ridden round settles
			// inside another's batch, which must not post one of its own.
			l.stale = true
			s.again(l)
			return
		}
		// A match with no room behind it for the key's head is not the key's.
		l.heads, s.cands = l.heads[:0], l.read.AppendCandidates(s.cands[:0], s.op.fp)
		for _, m := range s.cands {
			if s.room(m.Entry.Addr) >= uint64(recordDataOff+len(s.op.key)) {
				l.heads = append(l.heads, head{entry: m.Entry})
			}
		}
		if len(l.heads) > 0 {
			l.step = stepHeads
			return
		}
		s.decide(l)
	case stepHeads:
		n, matches := recordDataOff+len(s.op.key), l.heads
		l.heads = l.heads[:0]
		for i, h := range matches {
			buf := l.bufs[i*n : (i+1)*n]
			if st, version, keyLen, valLen := decodeRecordWords(buf); keyLen == len(s.op.key) && bytes.Equal(buf[recordDataOff:], s.op.key) {
				l.heads = append(l.heads, head{h.entry, st, version, n + valLen})
			}
		}
		s.decide(l)
	case stepSwap:
		var err error
		won := true
		if l.over < 0 {
			err = l.view.FinishInsert(&l.read, ops, l.own, s.alloc)
		} else {
			won, err = l.view.FinishSwapIfPresent(&l.read, ops, l.heads[l.over].entry, l.own)
		}
		switch {
		case err != nil:
			l.fail(err)
		case !won:
			s.again(l)
		default:
			l.pub = published{addr: l.own.Addr, size: len(s.img), servable: s.op.rec.status == wire.StatusIdle, wrote: true}
			if l.over >= 0 && s.routed {
				// Our image is live, but until the superseded one is retired
				// another CN's route still serves it: no ack without this.
				l.retire, l.must = l.heads[l.over].entry.Addr, true
			}
			l.dedup(l.over)
			l.drain()
		}
	case stepDrops:
		l.retire = 0
		if n := len(l.drops); n > 0 {
			if err := l.view.FinishRemove(&l.read, ops, l.drops[n-1]); err != nil && l.must {
				l.fail(err)
				return
			}
			l.drops = l.drops[:n-1]
		}
		l.drain()
	}
}

// decide is the version gate: what the operation does on l's node, now that
// the heads of the key's records there are known. While the fan-out is
// pending the leg parks here: what it does waits for the write to commit.
func (s *recordStore) decide(l *leg) {
	if s.pending {
		l.step = stepGate
		return
	}
	best := newest(l.heads)
	switch {
	case !s.op.publish:
		for _, h := range l.heads {
			if s.op.remove && (s.op.only == nil || s.op.only(h)) {
				l.drops = append(l.drops, h.entry)
			}
		}
		l.must = true
		l.drain()
	case best < 0 && s.op.mode == publishSwapOnly:
		l.abandon()
	case best >= 0 && (s.op.mode == publishIfAbsent || l.heads[best].version >= s.op.rec.version):
		w := l.heads[best]
		l.pub = published{addr: w.entry.Addr, size: w.size, servable: w.status == wire.StatusIdle}
		if s.op.mode != publishIfAbsent {
			l.dedup(best)
		}
		l.abandon()
	default:
		if !l.own.Valid {
			addr, err := s.alloc.Alloc(l.node, mem.ClassLeaf, uint64(len(s.img)))
			if err != nil {
				l.fail(err)
				return
			}
			l.own = entryOfRecord(s.op.key, addr)
		}
		l.over, l.step = best, stepSwap
	}
}

// dedup queues every head but keep for dropping: losers of racing publishes.
// Best effort — a survivor is dropped by the next publish that sees it.
func (l *leg) dedup(keep int) {
	for i, h := range l.heads {
		if i != keep {
			l.drops = append(l.drops, h.entry)
		}
	}
}

// abandon ends a publish that leaves our image, if it wrote one, unpublished:
// retired, best effort — no table entry and no route ever named it.
func (l *leg) abandon() {
	l.retire = l.own.Addr
	l.drain()
}

// drain sends l to its next drop round, or ends it when nothing is queued.
func (l *leg) drain() {
	l.step = stepDone
	if l.retire != 0 || len(l.drops) > 0 {
		l.step = stepDrops
	}
}

// again sends l back to the bucket read — a lost swap, a stale directory —
// within the race budget.
func (s *recordStore) again(l *leg) {
	atomic.AddUint64(&s.stats.ReplicaRequeues, 1)
	l.step = stepBuckets
	if l.races++; l.races == publishMaxRaces {
		l.err = fmt.Errorf("core: publish of %q on node %d lost %d consecutive swap races", s.op.key, l.node, publishMaxRaces)
		l.abandon()
	}
}

// fail ends l with err, where it stands. An image it wrote stays as it is:
// the entry CAS behind it may have landed although its batch failed.
func (l *leg) fail(err error) { l.err, l.step = err, stepDone }

// sweepTally counts what one table sweep saw and did.
type sweepTally struct {
	scanned uint64 // records read
	copied  uint64 // replicas republished onto a target that lacked the version
	removed uint64 // records retired from a node that left their replica set
	failed  uint64 // publishes or removes that errored; left for the next sweep
	unread  uint64 // records that could not be read; left for the next sweep
}

// sweep walks src's table and LWW-republishes every record onto the other
// members of its key's replica set under p — idempotent, and safe against
// concurrent writers by versioning, so serving never stops. With moveOut,
// a record whose replica set no longer includes src is removed from src
// once every target confirmed the copy (remove-after-copy: the replica
// count never dips mid-transition). The walk is a best-effort snapshot
// under concurrent splits, so callers judge convergence across sweeps.
func (s *recordStore) sweep(p *Placement, src mem.NodeID, moveOut bool) (sweepTally, error) {
	var t sweepTally
	view, err := s.viewOf(src)
	if err != nil {
		return t, err
	}
	defer s.fc.SetStage(s.fc.SetStage(s.stage))
	err = view.Walk(func(e wire.HashEntry) error {
		rec, err := s.read(e.Addr, recordSpecRead)
		if err != nil {
			t.unread++
			return nil
		}
		t.scanned++
		// src is among the targets while the record is at home: there the
		// publish finds this very version and leaves it, losers deduplicated.
		targets, _ := s.targets(p, rec.key, false)
		home, settled := slices.Contains(targets, src), true
		legs := s.publish(targets, rec, publishUpsert)
		for i := range legs {
			if legs[i].err != nil {
				settled = false
				t.failed++
			} else if legs[i].pub.wrote {
				t.copied++
			}
		}
		if moveOut && !home && settled {
			if s.remove(append(targets[:0], src), rec.key, func(h head) bool { return h.entry == e })[0].err != nil {
				t.failed++
			} else {
				t.removed++
			}
		}
		return nil
	})
	return t, err
}
