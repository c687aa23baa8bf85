package rart

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/counters"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// Errors surfaced to the index layers. ErrNodeInvalid and ErrRestart are
// retry signals: the descent raced with a structural change and must be
// redone (paper §III-C: "If the status field is marked Invalid, the reader
// retries the index operation").
var (
	ErrNodeInvalid = errors.New("rart: node invalidated by a type switch")
	ErrRestart     = errors.New("rart: operation must restart")
	// ErrNeedParent is returned when a compressed-path split is required
	// at the node an operation started from, whose parent is unknown
	// (possible only after a prefix-hash collision in Sphinx's hash-table
	// jump). The caller restarts the operation from the root path.
	ErrNeedParent = errors.New("rart: split required above the start node")

	// ErrRetriesExhausted is the terminal error of every bounded retry
	// loop in the engine; callers test it with errors.Is.
	ErrRetriesExhausted = errors.New("rart: retries exhausted")
)

// Config tunes the engine per system.
type Config struct {
	// Prealloc256 gives every inner node the footprint of a Node256 and
	// performs type switches in place, never moving a node — SMART's
	// design, trading the paper's reported 2.1–3.0× MN memory overhead
	// for cache-friendly stable addresses.
	Prealloc256 bool
	// Backoff tunes the shared capped-exponential-backoff-with-jitter
	// policy used by the engine's retry loops. Zero fields select the
	// fabric defaults.
	Backoff fabric.BackoffPolicy
	// Place, if set, overrides ring placement for new allocations
	// (NodeHome/LeafHome). Replica-aware layers install it to steer
	// allocations away from memory nodes known dead; nil keeps pure ring
	// ownership.
	Place func(key []byte) mem.NodeID
}

const (
	// defaultLeafSpecRead is the speculative first-READ size for leaves
	// of unknown length: 128 covers a 64-byte value with a ≤40-byte key
	// in one round trip.
	defaultLeafSpecRead = 128
)

// Engine bundles one client's access to the remote tree: verbs, allocator
// and node placement. Engines are per-worker, like the client they wrap.
type Engine struct {
	C     *fabric.Client
	Alloc *mem.Allocator
	Ring  *consistenthash.Ring
	Cfg   Config

	// Note, when set, receives the constant notes of the lease bets below (the
	// index layer forwards them to an armed trace recorder).
	Note func(stage fabric.Stage, note string)

	// hand is what the operation in flight carries from one batch to a later
	// one: images and the leases won with them (see hand).
	hand hand

	regionSizes map[mem.NodeID]uint64
	stats       EngineStats
	// arena holds every image of the operation in flight (see arena).
	arena arena
	// stagedOps and pubs back the write paths' fused lock batch and its
	// publication plan (see staged); per-worker and reused.
	stagedOps []fabric.Op
	pubs      []Publication
	// commitOps backs the commit batches behind it (slotWrite), commitWords
	// the words they WRITE — [0] a slot, [1] the header retiring a leaf or a
	// node — and commitIdx a Node48 index byte.
	commitOps   []fabric.Op
	commitWords [2][8]byte
	commitIdx   [1]byte
	// leafOps backs the in-place leaf update (LeafLock).
	leafOps [2]fabric.Op
	// scan is the range scan in progress, kept for its frontier and op list
	// (ScanFrom).
	scan scanner
}

// EngineStats counts the engine's lock-recovery events and the cost of its
// range scans.
type EngineStats struct {
	// Restarts is the number of attempts Retry ran again: the baselines'
	// operation-level re-descents (Sphinx drives its operations itself and
	// counts them in core.Stats.Restarts).
	Restarts uint64
	// LockSteals is the number of node leases this client took over from a
	// crashed holder (including reclaiming its own lease, left behind by a
	// release that gave up).
	LockSteals uint64
	// LeafLockBreaks is the number of leaf locks this client broke because
	// their holder crashed.
	LeafLockBreaks uint64
	// PublishRetries is the number of faulted steps re-driven while
	// publishing a node type switch (grow) to completion.
	PublishRetries uint64
	// AbandonedObjects and AbandonedBytes count speculative write-ahead
	// waste: fresh leaves and inner nodes reserved (and usually written)
	// ahead of an operation's lock whose operation then did not commit — the
	// lock batch faulted, the locked image refuted the unlocked one, or the
	// edge was claimed first. Nothing references them and the bump
	// allocator never frees, so they are the leak cost of fusing writes
	// before the lock. Zero without write contention or faults.
	AbandonedObjects uint64
	AbandonedBytes   uint64
	// LeaseBets is the number of jump starts that posted the landing node's
	// lease CAS with its READ (LeaseRead). LeaseBetsLost of them lost the CAS
	// — the node was leased — and went on with the unlocked image, exactly as
	// if no bet had been made; LeaseBetsReturned won it and gave the lease back
	// unused, in a round trip of its own (Release). The rest became the
	// lock of the put's write.
	LeaseBets         uint64
	LeaseBetsLost     uint64
	LeaseBetsReturned uint64
	// The cost of range scans (ScanFrom): ScanRounds doorbell batches posted
	// by scan frontiers; ScanReads tree objects those fetched, ScanNodeReads
	// the inner nodes among them; ScanEmitted keys returned. ScanReresolved
	// counts frontier entries that met a retired object (a node after a type
	// switch, a leaf after an out-of-place update or a delete) or a child
	// whose partial a split had shortened, and followed the parent's slot
	// word again.
	ScanRounds     uint64
	ScanReads      uint64
	ScanNodeReads  uint64
	ScanEmitted    uint64
	ScanReresolved uint64
}

func init() { counters.Check[EngineStats]() }

// Add returns s + t, field-wise; used to aggregate workers.
func (s EngineStats) Add(t EngineStats) EngineStats {
	counters.Add(&s, &t)
	return s
}

// Stats returns a snapshot of the engine's recovery counters, loaded
// atomically so a live metrics scrape may call it concurrently with the
// worker driving the engine.
func (e *Engine) Stats() EngineStats { return counters.Load(&e.stats) }

// Abandoned returns the speculative write-ahead waste counters alone
// (EngineStats.AbandonedObjects, AbandonedBytes); the put path samples them
// around every traced operation.
func (e *Engine) Abandoned() (objects, bytes uint64) {
	return atomic.LoadUint64(&e.stats.AbandonedObjects), atomic.LoadUint64(&e.stats.AbandonedBytes)
}

// Backoff starts one retry sequence under the engine's policy; the
// index layers above use it for their operation-level restart loops so
// every retry in the stack follows one schedule.
func (e *Engine) Backoff() *fabric.Backoff { return e.Cfg.Backoff.Start(e.C) }

// NewEngine creates an engine over the given client.
func NewEngine(c *fabric.Client, alloc *mem.Allocator, ring *consistenthash.Ring, cfg Config) *Engine {
	return &Engine{C: c, Alloc: alloc, Ring: ring, Cfg: cfg, regionSizes: make(map[mem.NodeID]uint64)}
}

// NodeHome returns the memory node that owns the inner node for a prefix
// (consistent hashing, paper §III).
func (e *Engine) NodeHome(prefix []byte) mem.NodeID {
	if e.Cfg.Place != nil {
		return e.Cfg.Place(prefix)
	}
	return e.Ring.OwnerKey(prefix)
}

// LeafHome returns the memory node that owns the leaf for a key.
func (e *Engine) LeafHome(key []byte) mem.NodeID {
	if e.Cfg.Place != nil {
		return e.Cfg.Place(key)
	}
	return e.Ring.OwnerKey(key)
}

// nodeSize returns how many bytes a node of type t occupies — to READ it and
// to allocate it: a Node256's in Prealloc256 mode.
func (e *Engine) nodeSize(t wire.NodeType) uint64 {
	if e.Cfg.Prealloc256 {
		return wire.NodeSize(wire.Node256)
	}
	return wire.NodeSize(t)
}

func (e *Engine) clampRead(addr mem.Addr, want uint64) uint64 {
	size, ok := e.regionSizes[addr.Node()]
	if !ok {
		size = e.C.Fabric().RegionSize(addr.Node())
		e.regionSizes[addr.Node()] = size
	}
	if rem := size - addr.Offset(); want > rem {
		return rem
	}
	return want
}

// ReadNode fetches and decodes the inner node at addr, whose type is known
// from the slot or hash entry that referenced it (one round trip). If the
// node grew in place (Prealloc256 mode) or the hint is stale, the read is
// retried once at the decoded size.
// ReadNode stage-annotates its batches StageNodeRead, as every engine
// batch primitive does for its own stage; callers running mixed phases
// (scan descents, publication chains) set a coarser stage around whole
// call sequences and these fine annotations override it per batch.
func (e *Engine) ReadNode(addr mem.Addr, hint wire.NodeType) (*Node, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageNodeRead))
	want := e.nodeSize(hint)
	for attempt := 0; attempt < 2; attempt++ {
		buf := e.arena.buf(want)
		if err := e.C.Read(addr, buf); err != nil {
			return nil, err
		}
		hdr := wire.DecodeNodeHeader(binary.LittleEndian.Uint64(buf))
		if need := wire.NodeSize(hdr.Type); need > want {
			want = need
			continue
		}
		return e.arena.decode(addr, buf)
	}
	return nil, fmt.Errorf("%w: node at %v kept growing", ErrRetriesExhausted, addr)
}

// AppendNodeRead appends the READ fetching the node at addr to ops, for
// merging into a larger doorbell batch; its buffer, the op's Data, is cut from
// the arena and decoded with Decode once the batch completed.
func (e *Engine) AppendNodeRead(ops []fabric.Op, addr mem.Addr, hint wire.NodeType) []fabric.Op {
	return append(ops, fabric.Op{Kind: fabric.Read, Addr: addr, Data: e.arena.buf(e.nodeSize(hint))})
}

// Decode parses a node image read from addr (see arena.decode).
func (e *Engine) Decode(addr mem.Addr, buf []byte) (*Node, error) { return e.arena.decode(addr, buf) }

// Leaf is a decoded leaf image. Units is the leaf's allocated footprint in
// 64-byte units, which bounds what an in-place update may fit.
type Leaf struct {
	Addr   mem.Addr
	Status wire.Status
	Units  uint8
	Key    []byte
	Value  []byte
}

// leafSight is what one READ of a leaf saw (sightOf).
type leafSight uint8

const (
	// leafRetired: the header says Invalid. A retired leaf's content may
	// legitimately disagree with its header (a racing in-place update), so
	// nothing else of the image is looked at.
	leafRetired leafSight = iota
	// leafLonger: the leaf's units outrun the bytes read.
	leafLonger
	// leafUnsettled: torn (the checksum disagrees) or locked — an in-place
	// update is in flight and finishes with a single WRITE.
	leafUnsettled
	leafWhole
)

// sightOf classifies the image one READ of a leaf returned; key and value
// alias buf and are set for leafWhole only.
func sightOf(buf []byte) (sight leafSight, word uint64, hdr wire.LeafHeader, key, value []byte) {
	word = binary.LittleEndian.Uint64(buf)
	hdr = wire.DecodeLeafHeader(word)
	if hdr.Status == wire.StatusInvalid {
		return leafRetired, word, hdr, nil, nil
	}
	if uint64(hdr.Units)*wire.LeafUnit > uint64(len(buf)) {
		return leafLonger, word, hdr, nil, nil
	}
	key, value, st, ok := wire.DecodeLeaf(buf)
	if !ok || st != wire.StatusIdle {
		return leafUnsettled, word, hdr, nil, nil
	}
	return leafWhole, word, hdr, key, value
}

// leafAt is the leaf a retired or whole image at addr decodes to, its key and
// value (none for a retired image) left in the read buffer, which the arena
// keeps as long as the leaf.
func leafAt(addr mem.Addr, hdr wire.LeafHeader, key, value []byte) Leaf {
	return Leaf{Addr: addr, Status: hdr.Status, Units: hdr.Units, Key: slices.Clip(key), Value: slices.Clip(value)}
}

// Via is where a walk found a leaf's address: the node it read the slot word
// in, and the address of that word.
type Via struct{ Node, Slot mem.Addr }

// Via is the place of n's EOL edge (eol), or of its child edge for byte b.
func (n *Node) Via(eol bool, b byte) Via { return Via{n.Addr, n.edge(eol, b).addr} }

// ReadLeaf fetches the leaf at addr, which a walk found at via, retrying torn
// or locked images. Usually one round trip (speculative over-read); leaves
// longer than the speculative size cost one more. A lock whose holder crashed
// is broken when via still names the leaf (breakLeafLock); otherwise the leaf
// is off the tree, and is reported retired (Status Invalid).
func (e *Engine) ReadLeaf(addr mem.Addr, via Via) (*Leaf, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafRead))
	want := e.clampRead(addr, defaultLeafSpecRead)
	bo := e.Backoff()
	for {
		buf := e.arena.buf(want)
		if err := e.C.Read(addr, buf); err != nil {
			return nil, err
		}
		sight, word, hdr, key, value := sightOf(buf)
		if sight == leafRetired || sight == leafWhole {
			// Invalid alone is enough for the caller to restart.
			return one(&e.arena.leaves, leafAt(addr, hdr, key, value)), nil
		}
		switch {
		case sight == leafLonger:
			want = e.clampRead(addr, uint64(hdr.Units)*wire.LeafUnit)
			continue
		case hdr.Status == wire.StatusLocked && e.ownerCrashed(wire.LeafLockOwner(word)):
			on, err := e.breakLeafLock(addr, word, via)
			if err != nil {
				return nil, err
			}
			if !on {
				// Off the tree under a dead retirer's lock: as good as retired.
				return one(&e.arena.leaves, Leaf{Addr: addr, Status: wire.StatusInvalid, Units: hdr.Units}), nil
			}
			continue
		}
		// A live writer finishes with a single WRITE, so retry shortly.
		if !bo.WaitHolder() {
			return nil, fmt.Errorf("%w: leaf at %v never stabilized", ErrRetriesExhausted, addr)
		}
	}
}

// SpecReadLeaf is the speculative fast-path leaf read: exactly ONE READ of
// units*64 bytes at addr — an address supplied by a CN-side cache, not by
// a traversal — with no retry loop and no backoff. The caller owns
// verification; this primitive only reports what one round trip saw:
//
//   - a decoded image (including Status Invalid): (leaf, true, nil) — the
//     caller checks status and key;
//   - a torn or locked image, or a leaf that grew past the cached size (the
//     address was reused or the hint is stale): (_, false, nil) — nothing
//     provable in one round trip, fall back without unlearning;
//   - a fabric error: (_, false, err) — the caller maps failoverable errors
//     to unlearns.
//
// The leaf is returned by value. On the warm path — an Idle image storing
// exactly key — status and key are checked in the read buffer and the one
// allocation is the value's copy, which the caller hands back; Key is the
// caller's key. Any other decoded image (retired, another key's leaf) is the
// rare refutation, and comes back with its own key and value, in the arena,
// for the caller's verdict.
//
// Batches are stage-annotated StageLeafSpec so the speculative round trips
// reconcile separately from the 3-RT hash path (the lac_reconciled
// verdict).
func (e *Engine) SpecReadLeaf(addr mem.Addr, units uint8, key []byte) (leaf Leaf, stable bool, err error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafSpec))
	want := e.clampRead(addr, uint64(units)*wire.LeafUnit)
	if want < wire.LeafHeaderSize {
		return Leaf{}, false, nil
	}
	buf := e.arena.buf(want)
	if err = e.C.Read(addr, buf); err != nil {
		return Leaf{}, false, err
	}
	switch sight, _, hdr, k, value := sightOf(buf); {
	case sight == leafWhole && string(k) == string(key):
		return Leaf{Addr: addr, Status: hdr.Status, Units: hdr.Units, Key: key, Value: slices.Clone(value)}, true, nil
	case sight == leafRetired || sight == leafWhole:
		return leafAt(addr, hdr, k, value), true, nil
	}
	return Leaf{}, false, nil
}

// ownerCrashed is the one rule by which a lock changes hands without its
// holder's release, a node's lease (settleLock) and a leaf's Locked word
// (breakLeafLock) alike: the owner the word names crashed. A crashed client
// posts nothing ever again (fabric.Fabric.ClientCrashed), so the taker's CAS,
// expecting exactly the word it saw, races nobody but other takers, and at
// most one of them wins. A live holder is never robbed, however long it
// holds: a waiter waits, within its backoff budget.
func (e *Engine) ownerCrashed(owner uint16, named bool) bool {
	return named && e.C.Fabric().ClientCrashed(int(owner))
}

// breakLeafLock frees the leaf lock whose Locked word a waiter saw, its owner
// crashed, when the leaf is still on the tree: one batch reads the header of
// the node the walk found the leaf in and the slot word there (via), and only
// a live node whose slot still names the leaf lets the CAS back to Idle go
// out. Then the holder died between its lock CAS and the WRITE that would
// have released the leaf — an in-place update's image, or a retire whose slot
// WRITE never executed — so the content under the lock is still the old,
// checksum-valid image, and the CAS restores the leaf exactly. A retire that
// died between its slot WRITE and its Invalid WRITE left the leaf off the
// tree: the lock stays, an image no reader trusts, and the caller hears
// on = false. So does a walk whose image is stale (the node retired, the edge
// moved); a fresh walk reaches the leaf through a node that names it, if any
// does (docs/failure-model.md).
func (e *Engine) breakLeafLock(addr mem.Addr, locked uint64, via Via) (on bool, err error) {
	hdr, word := e.arena.buf(8), e.arena.buf(8)
	ops := append(e.leafOps[:0], fabric.Op{Kind: fabric.Read, Addr: via.Node, Data: hdr},
		fabric.Op{Kind: fabric.Read, Addr: via.Slot, Data: word})
	if err := e.C.Batch(ops); err != nil {
		return false, err
	}
	slot := wire.DecodeSlot(binary.LittleEndian.Uint64(word))
	if wire.DecodeNodeHeader(binary.LittleEndian.Uint64(hdr)).Status == wire.StatusInvalid ||
		!slot.Present || !slot.Leaf || slot.Addr != addr {
		return false, nil
	}
	old, err := e.C.CompareSwap(addr, locked, wire.IdleLeafWord(locked))
	if err == nil && old == locked {
		atomic.AddUint64(&e.stats.LeafLockBreaks, 1)
	}
	return true, err
}

// LeafLock is one writer's hold on a leaf: the leaf's header lock (§III-C:
// CAS the header word Idle → Locked), from the first lock attempt to the
// single WRITE that releases it — an in-place update's new image, or the
// Invalid header of a write that takes the leaf off the tree (retire). Every
// release short of that WRITE is a CAS expecting the exact Locked word, which
// names its owner (wire.LockedLeafWord), so it cannot touch a leaf that has
// since been rewritten, retired or locked by another writer.
type LeafLock struct {
	Addr  mem.Addr
	Units uint8
	// Held says this client's CAS installed the Locked word: the image is
	// stable until WriteLockedLeaf or UnlockLeaf.
	Held bool
	// Seen is the header word the last lock CAS observed: the Idle word it
	// replaced when Held, otherwise what stood in its way.
	Seen uint64
	// Key is the key field of the image SpecLockLeaf read behind its CAS, cut
	// to the key length in Seen. A leaf's key and key length never change
	// while its address lives, so the bytes are the leaf's key even when the
	// read raced a writer. In the arena.
	Key []byte
}

// lockWords returns the Idle word l's next lock CAS expects — the Idle form
// of what the last attempt saw, so a waiter adopts a changed value length —
// and its Locked counterpart, naming this client.
func (e *Engine) lockWords(l *LeafLock) (idle, locked uint64) {
	idle = wire.IdleLeafWord(l.Seen)
	return idle, wire.LockedLeafWord(idle, uint16(e.C.ID()))
}

// lockOf starts a hold on a leaf a traversal read: the first lock CAS expects
// the Idle form of that image's header.
func lockOf(leaf *Leaf) LeafLock {
	return LeafLock{Addr: leaf.Addr, Units: leaf.Units, Seen: wire.LeafHeader{
		Status: wire.StatusIdle, Units: leaf.Units,
		KeyLen: uint16(len(leaf.Key)), ValLen: uint32(len(leaf.Value)),
	}.Encode()}
}

// SpecLockLeaf is the speculative first half of an in-place update through
// an address supplied by a CN-side cache, not by a traversal: ONE batch
// carrying the header CAS Idle{units, keyLen, valLen} → Locked and a READ of
// the whole leaf. Both target one memory node, where a batch executes in
// posting order (the postLock idiom), so behind a winning CAS the read is the
// locked, stable image. keyLen is the caller's key; valLen is a guess — the
// cache does not know the stored value's length — that is right whenever the
// update keeps the length. The caller owns verification of l.Key and decides
// between WriteLockedLeaf, TryLeafLock (lost to a different value length)
// and UnlockLeaf (won on another key's leaf).
//
// On a fabric error l.Held is false; see settleLeafLock for what became of a
// lock the cut batch took.
func (e *Engine) SpecLockLeaf(addr mem.Addr, units uint8, keyLen, valLen int) (LeafLock, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	l := LeafLock{Addr: addr, Units: units}
	l.Seen = wire.LeafHeader{
		Status: wire.StatusIdle, Units: units, KeyLen: uint16(keyLen), ValLen: uint32(valLen),
	}.Encode()
	buf := e.arena.buf(e.clampRead(addr, uint64(units)*wire.LeafUnit))
	if err := e.lockLeaf(&l, buf); err != nil {
		return l, err
	}
	l.Key = buf[min(wire.LeafHeaderSize, len(buf)):]
	if n := int(wire.DecodeLeafHeader(l.Seen).KeyLen); n < len(l.Key) {
		l.Key = l.Key[:n]
	}
	return l, nil
}

// TryLeafLock is one bare lock attempt (one round trip): the header CAS,
// expecting the Idle form of l.Seen — the header a descent read, or the one
// the previous attempt observed. Same fault contract as SpecLockLeaf.
func (e *Engine) TryLeafLock(l *LeafLock) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	return e.lockLeaf(l, nil)
}

// lockLeaf posts one lock attempt in a batch of its own (postLeafLock).
func (e *Engine) lockLeaf(l *LeafLock, image []byte) error {
	ops := e.postLeafLock(e.leafOps[:0], l, image)
	err := e.C.Batch(ops)
	e.settleLeafLock(l, ops[0], err)
	return err
}

// postLeafLock appends one lock attempt on l to ops: the header CAS and, when
// image is non-nil, a READ of the leaf behind it. Both target one memory node,
// where a batch executes in posting order, so behind a winning CAS the READ is
// the locked, stable image.
func (e *Engine) postLeafLock(ops []fabric.Op, l *LeafLock, image []byte) []fabric.Op {
	idle, locked := e.lockWords(l)
	ops = append(ops, fabric.Op{Kind: fabric.CAS, Addr: l.Addr, Expect: idle, Desired: locked})
	if image != nil {
		ops = append(ops, fabric.Op{Kind: fabric.Read, Addr: l.Addr, Data: image})
	}
	return ops
}

// settleLeafLock takes in an attempt whose CAS is cas, its batch having
// returned err.
//
// A faulted attempt releases its own Locked word whenever its CAS may have
// won: after a timeout, which hides who won, and after a transient behind a
// CAS that executed and won (verbs ahead of the failing one stand,
// fabric.ErrTransient). The word names this client, so the release cannot
// free another writer's lock — or a retiring write's — and a live holder never
// leaves a lock behind for others to wait on.
func (e *Engine) settleLeafLock(l *LeafLock, cas fabric.Op, err error) {
	if err == nil {
		l.Seen, l.Held = cas.Old, cas.Old == cas.Expect
	} else if errors.Is(err, fabric.ErrTimeout) || cas.Old == cas.Expect {
		_ = e.UnlockLeaf(l) // re-issued across further faults; l.Seen is this attempt's
	}
}

// UnlockLeaf gives a held lock back without writing (unlockLeafOp).
func (e *Engine) UnlockLeaf(l *LeafLock) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	ops := e.leafOps[:1]
	ops[0] = e.unlockLeafOp(l)
	return e.completeBatch(ops)
}

// unlockLeafOp builds the CAS that gives l back: it restores the exact Idle
// header the lock replaced, leaving the leaf byte-identical.
func (e *Engine) unlockLeafOp(l *LeafLock) fabric.Op {
	idle, locked := e.lockWords(l)
	l.Held = false
	return fabric.Op{Kind: fabric.CAS, Addr: l.Addr, Expect: locked, Desired: idle}
}

// WriteLockedLeaf is the second half of every in-place update (§III-C), on
// the tree path and the speculative one alike: ONE WRITE of the leaf's whole
// footprint — new value, new checksum, Idle status — that doubles as the
// release of the held lock. The allocated unit count is preserved so later
// fit checks see the real footprint, and the whole footprint is written so
// no stale byte survives.
//
// The WRITE is past the update's commit point (the lock is ours), so it is
// driven like a publication: a transient executed nothing and is re-issued —
// abandoning it would leave the leaf locked by ourselves, and the restarted
// put would wait on its own lock, which nobody breaks while its owner lives —
// while a timeout means
// the image landed and the lock is gone, so it is never re-issued.
func (e *Engine) WriteLockedLeaf(l *LeafLock, key, value []byte) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	img := wire.EncodeLeafInto(e.arena.buf(uint64(l.Units)*wire.LeafUnit), wire.StatusIdle, l.Units, key, value)
	ops := e.leafOps[:1]
	ops[0] = fabric.Op{Kind: fabric.Write, Addr: l.Addr, Data: img}
	l.Held = false
	return e.completeBatch(ops)
}

// staged is the write-ahead half of a structural write: the fresh objects
// (leaf, inner nodes) whose addresses were reserved locally and whose WRITEs
// — together with any side-structure reads the publication wants — ride the
// operation's lock batch (lockNodes). Nothing staged is reachable until a
// later batch swings a slot at it, so the WRITEs need no ordering among
// themselves or against the lock verbs.
type staged struct {
	ops     []fabric.Op
	objects uint64
	bytes   uint64
	reads   bool // the publisher's READs are among ops: they must execute before its commit verbs are planned
	// leaf is the lock of the leaf the write takes off the tree (retiring; a
	// null address for a write that retires none), image where the READ behind
	// its CAS lands, if one is posted.
	leaf  LeafLock
	image []byte
}

// retiring arms st's lock batch with the lock of leaf, which the write takes
// off the tree (retire): its CAS rides behind the node's and expects the Idle
// form of the header the walk read, a READ of the leaf into image behind it
// when image is non-nil.
func (st *staged) retiring(leaf *Leaf, image []byte) { st.leaf, st.image = lockOf(leaf), image }

// stage starts a write-ahead set on the engine's reusable op storage.
func (e *Engine) stage() staged { return staged{ops: e.stagedOps[:0]} }

// stageLeaf reserves a fresh leaf for (key, value) on the key's home node
// and stages its WRITE, returning the reserved address.
func (e *Engine) stageLeaf(st *staged, key, value []byte) (mem.Addr, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageAlloc))
	img := e.encodeLeaf(key, value)
	addr, err := e.Alloc.Alloc(e.LeafHome(key), mem.ClassLeaf, uint64(len(img)))
	if err != nil {
		return 0, err
	}
	st.ops = append(st.ops, fabric.Op{Kind: fabric.Write, Addr: addr, Data: img})
	st.objects++
	st.bytes += uint64(len(img))
	return addr, nil
}

// reserveNode reserves space for the locally built node n on the home node
// of its prefix and sets n.Addr, so parents can link to n before any image
// is encoded.
func (e *Engine) reserveNode(st *staged, n *Node, prefix []byte) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageAlloc))
	size := e.nodeSize(n.Hdr.Type)
	addr, err := e.Alloc.Alloc(e.NodeHome(prefix), mem.ClassInner, size)
	if err != nil {
		return err
	}
	n.Addr = addr
	st.objects++
	st.bytes += size
	return nil
}

// encodeLeaf is the image of a fresh leaf for (key, value), in the arena.
func (e *Engine) encodeLeaf(key, value []byte) []byte {
	size := wire.LeafSize(len(key), len(value))
	return wire.EncodeLeafInto(e.arena.buf(size), wire.StatusIdle, uint8(size/wire.LeafUnit), key, value)
}

// stageNode stages the WRITE of a reserved node's finished image.
func (e *Engine) stageNode(st *staged, n *Node) {
	st.ops = append(st.ops, fabric.Op{Kind: fabric.Write, Addr: n.Addr, Data: e.encodeNode(n)})
}

// encodeNode is n's image, in the arena.
func (e *Engine) encodeNode(n *Node) []byte {
	return n.encodeInto(e.arena.buf(wire.NodeSize(n.Hdr.Type)))
}

// abandon books a write-ahead set whose operation will not commit.
func (e *Engine) abandon(st *staged) {
	if st == nil || st.objects == 0 {
		return
	}
	atomic.AddUint64(&e.stats.AbandonedObjects, st.objects)
	atomic.AddUint64(&e.stats.AbandonedBytes, st.bytes)
	st.objects, st.bytes = 0, 0
}

// abort is the one exit of a structural write that fails before its commit
// point: it releases every lock the operation holds (nil nodes are skipped,
// the leaf of st when held) and books the staged objects as abandoned. The
// cause, not the release, is what the caller sees.
func (e *Engine) abort(st *staged, cause error, a, b *Node) error {
	e.abandon(st)
	var arr [3]fabric.Op
	ops := arr[:0]
	for _, n := range [2]*Node{a, b} {
		if n != nil {
			ops = append(ops, e.UnlockOp(n))
		}
	}
	if st != nil && st.leaf.Held {
		ops = append(ops, e.unlockLeafOp(&st.leaf))
	}
	e.unlock(ops)
	return cause
}

// unlock drives lease-release CASes to completion (completeBatch), through a
// down window too: a live holder never leaves a lease behind, since nobody
// else may take it (ownerCrashed). Each CAS expects the exact lease word its
// lock attempt installed, so issuing it again is harmless, and it is a no-op
// on a lease that was never taken. Should the loop give up (a budget spent on
// transient faults alone; a killed node takes the lease with it), the lease
// stays until this client next locks the node and reclaims it
// (docs/failure-model.md §3).
func (e *Engine) unlock(ops []fabric.Op) {
	if len(ops) == 0 {
		return
	}
	prev := e.C.SetStage(fabric.StageUnlock)
	_ = e.completeBatch(ops)
	e.C.SetStage(prev)
}

// lockTry is the state of one node's lease acquisition across attempts.
type lockTry struct {
	addr   mem.Addr
	expect uint64 // lease word the next CAS expects
	tryCAS bool
	buf    []byte // every attempt's READ destination, as long as the post-lock image
	cas    int    // index of the in-flight attempt's CAS in its batch, -1 if it only polls
}

// newLockTry starts an acquisition. expectLease is the lease word the caller
// last observed (from a decoded image), letting a first attempt on a free or
// self-owned lock CAS immediately; 0 when unknown.
func (e *Engine) newLockTry(addr mem.Addr, hint wire.NodeType, expectLease uint64) lockTry {
	return lockTry{
		addr: addr, buf: e.arena.buf(e.nodeSize(hint)),
		expect: expectLease,
		tryCAS: expectLease == 0 || wire.LeaseOwnedBy(expectLease, uint16(e.C.ID())),
	}
}

// postLock appends one attempt to ops: the lease-word CAS (when armed) and a
// full re-read. Both target one memory node, where a batch executes in
// posting order, so a winning CAS guarantees the trailing read is a stable
// post-lock snapshot (paper §III-C).
//
// A lost attempt's image is dead once settleLock has read its lease, so the
// next poll READs into the same buffer: a spin cuts one, not one per try.
func (e *Engine) postLock(t *lockTry, ops []fabric.Op) []fabric.Op {
	t.cas = -1
	if t.tryCAS {
		t.cas = len(ops)
		ops = append(ops, fabric.Op{
			Kind: fabric.CAS, Addr: t.addr.Add(wire.LeaseOff),
			Expect:  t.expect,
			Desired: wire.EncodeLease(uint16(e.C.ID()), e.C.Clock()),
		})
	}
	return append(ops, fabric.Op{Kind: fabric.Read, Addr: t.addr, Data: t.buf})
}

// undoLock builds the release of the lease word the in-flight attempt's CAS
// tried to install.
func (t *lockTry) undoLock(ops []fabric.Op) fabric.Op {
	return fabric.Op{Kind: fabric.CAS, Addr: ops[t.cas].Addr, Expect: ops[t.cas].Desired, Desired: 0}
}

// dropLock cleans up after an attempt whose batch faulted. The CAS may have
// executed (a transient truncates after it, a timeout loses only the
// completion), so the lease it may have taken is released; released says so.
func (e *Engine) dropLock(t *lockTry, ops []fabric.Op, cause error) (released bool) {
	if t.cas >= 0 && (errors.Is(cause, fabric.ErrTransient) || errors.Is(cause, fabric.ErrTimeout)) {
		e.unlock([]fabric.Op{t.undoLock(ops)})
		return true
	}
	return false
}

// settleLock interprets a completed attempt. It returns the locked image
// when the lease was won; (nil, nil) when it was not, with t advanced to
// what the next poll should do; or an error (ErrNodeInvalid for a retired
// node — nobody revives one, so a lease won on it is moot).
func (e *Engine) settleLock(t *lockTry, ops []fabric.Op) (*Node, error) {
	buf := t.buf
	hdr := wire.DecodeNodeHeader(binary.LittleEndian.Uint64(buf))
	if hdr.Status == wire.StatusInvalid {
		return nil, ErrNodeInvalid
	}
	if t.cas >= 0 && ops[t.cas].Old == t.expect {
		if t.expect != 0 {
			atomic.AddUint64(&e.stats.LockSteals, 1)
		}
		var err error
		if need := wire.NodeSize(hdr.Type); need > uint64(len(buf)) {
			// Stale size hint; re-read at full size while holding the
			// lock, under which the image is stable.
			buf = e.arena.buf(need)
			err = e.C.Read(t.addr, buf)
		}
		var n *Node
		if err == nil {
			n, err = e.arena.decode(t.addr, buf)
		}
		if err != nil {
			e.unlock([]fabric.Op{t.undoLock(ops)})
			return nil, err
		}
		return n, nil
	}
	if need := wire.NodeSize(hdr.Type); need > uint64(len(buf)) {
		t.buf = e.arena.buf(need)
	}
	lease := binary.LittleEndian.Uint64(buf[wire.LeaseOff:])
	holder, _, held := wire.DecodeLease(lease)
	// Free, our own abandoned lease, or a crashed holder's: CAS for it.
	t.tryCAS, t.expect = !held || holder == uint16(e.C.ID()) || e.ownerCrashed(holder, held), lease
	return nil, nil
}

// acquire polls one node's lease, one round trip per attempt with a backoff
// wait between attempts, until it is won, the node turns out retired, or
// the backoff budget runs out. polled says t already made an attempt (in a
// fused batch), so the first poll here waits too.
func (e *Engine) acquire(t *lockTry, bo *fabric.Backoff, polled bool) (*Node, error) {
	var arr [2]fabric.Op
	for ; ; polled = true {
		if polled && !bo.WaitHolder() {
			return nil, fmt.Errorf("%w: lock on %v", ErrRetriesExhausted, t.addr)
		}
		ops := e.postLock(t, arr[:0])
		if err := e.C.Batch(ops); err != nil {
			e.dropLock(t, ops, err)
			return nil, err
		}
		if n, err := e.settleLock(t, ops); n != nil || err != nil {
			return n, err
		}
	}
}

// Lock acquires the node-grained lease lock on the node at addr and
// returns a fresh image read under the lock. Each attempt is one round
// trip: the lease-word CAS and a full re-read ride the same doorbell
// batch (postLock).
//
// The lock is a lease (docs/failure-model.md): acquisition CASes the lease
// word from 0 to (owner, stamp), and a waiter takes over a word whose owner
// crashed (ownerCrashed). A client that finds its own lease on the node (left
// behind by a release that gave up) reclaims it immediately.
//
// expectLease is the lease word the caller last observed (from a decoded
// image); pass 0 when unknown.
func (e *Engine) Lock(addr mem.Addr, hint wire.NodeType, expectLease uint64) (*Node, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLock))
	t := e.newLockTry(addr, hint, expectLease)
	return e.acquire(&t, e.Backoff(), false)
}

// BetCause says why a lease that a bet won goes back unused (Release); each
// cause has its constant trace note. The first three are verdicts on a
// landing, the last two on the put.
type BetCause uint8

const (
	BetRefuted    BetCause = iota // the landing is retired, undecodable or fails the Fig 3 metadata check
	BetFaulted                    // the fused batch faulted: the lease it may have taken
	BetWalkedOn                   // the walk leaves the landing for a node below it
	BetKeyExists                  // the key is there: updated in place, or left alone
	BetRoundEnded                 // the put's round ended, or its write locks other nodes
)

var betNotes = [...]string{
	BetRefuted:    "lease bet returned: landing retired or not the prefix's node",
	BetFaulted:    "lease bet returned: fused landing batch faulted",
	BetWalkedOn:   "lease bet returned: walk goes below the landing",
	BetKeyExists:  "lease bet returned: key exists, nothing to link",
	BetRoundEnded: "lease bet returned: round ended before a write used it",
}

func (e *Engine) note(stage fabric.Stage, note string) {
	if e.Note != nil {
		e.Note(stage, note)
	}
}

// LeaseRead is the jump start of a put that may insert: the READ of the
// landing node with the lease CAS 0 → ours ahead of it, postLock's pair as ONE
// batch charged to the lock stage. It is a bet that the put will write the
// node it lands on, and it never waits. A won CAS makes the image the locked
// one, held in the hand as a LandingBet that PutFrom resolves; behind a lost CAS
// the READ is the unlocked image a plain ReadNode would have returned and the
// put goes on exactly as without the bet — no poll, no backoff. A nil node
// with a nil error is an image that does not decode at the hinted size: the
// lease, if won, is already given back.
func (e *Engine) LeaseRead(addr mem.Addr, hint wire.NodeType) (*Node, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLock))
	t := e.newLockTry(addr, hint, 0)
	ops := e.postLock(&t, e.commitOps[:0]) // engine-held storage: no commit batch is being built yet
	e.commitOps = ops[:0]
	atomic.AddUint64(&e.stats.LeaseBets, 1)
	if err := e.C.Batch(ops); err != nil {
		if e.dropLock(&t, ops, err) {
			e.countReturned(1, BetFaulted)
		}
		return nil, err
	}
	n, err := e.arena.decode(addr, t.buf)
	switch {
	case ops[t.cas].Old != 0:
		atomic.AddUint64(&e.stats.LeaseBetsLost, 1)
		e.note(fabric.StageLock, "lease bet lost: node leased, unlocked image kept")
	case err != nil:
		e.unlock([]fabric.Op{t.undoLock(ops)})
		e.countReturned(1, BetRefuted)
	default:
		e.Hold(n, LandingBet)
	}
	return n, nil
}

func (e *Engine) countReturned(n uint64, cause BetCause) {
	atomic.AddUint64(&e.stats.LeaseBetsReturned, n)
	e.note(fabric.StageUnlock, betNotes[cause])
}

// Origin says how an image came into the hand.
type Origin uint8

const (
	// LandingBet: a landing LeaseRead read behind the CAS for its lease, which
	// won. The lease is the lock of the write the put makes there.
	LandingBet Origin = iota
	// Rerouted: the landing of a put that needs its parent (ErrNeedParent),
	// kept across the index layer's re-route for the walk that comes back
	// through the parent. That walk meets the image in place of a READ of the
	// node, and a lease held with it is the child lock of the write it makes.
	Rerouted
	// Leased: an image read at a remembered address and found leased by
	// someone else, kept for the table read behind it: if the table names the
	// same address, the image is the one a READ there would return.
	Leased
)

// held is one entry of the hand: an image, the lease this client holds on it
// (0: none) and how it came in.
type held struct {
	n      *Node
	lease  uint64
	origin Origin
}

// hand is what an operation carries from one batch to a later one instead of
// reading or locking it again. One per engine, a fixed array — holding
// allocates nothing — kept beside the images and not on Node, which is
// exactly one 128-byte size class. Two entries are the most an operation
// holds at once: a re-route's, and beside it the re-routed landing's bet or
// the image a remembered address showed leased — the candidate read that
// could bet takes that image out first (TakeLeased).
//
// LeaseRead and Hold put entries in; the writes (lockNodes, installLeaf,
// convertLeaf) and the index layer's candidate read (TakeLeased) take them
// out; the walk meets a re-route's image; and Release gives back what is
// left, the one path by which a lease a bet won goes back unused. The index
// layer's driver closes every round with it, so only a re-route's entry
// outlives a round and nothing outlives an operation.
type hand struct {
	e [2]held
	n int // entries in use, in the order they came in: e[:n]
}

// find returns the index of the entry holding n — for a nil n, of the first
// of origin o — or -1.
func (h *hand) find(n *Node, o Origin) int {
	return slices.IndexFunc(h.e[:h.n], func(e held) bool { return n != nil && e.n == n || n == nil && e.origin == o })
}

// at returns entry i, a blank one for -1.
func (h *hand) at(i int) (e held) {
	if i >= 0 {
		e = h.e[i]
	}
	return e
}

// take takes out of the hand the entry holding n — for a nil n, the first of
// origin o — and returns it, a blank entry for none.
func (e *Engine) take(n *Node, o Origin) held {
	i := e.hand.find(n, o)
	t := e.hand.at(i)
	if i >= 0 {
		e.hand.n = len(slices.Delete(e.hand.e[:e.hand.n], i, i+1)) // zeroes the freed entry
	}
	return t
}

// Hold puts n into the hand as o: a LandingBet with the lease its image was
// read under, anything else with the lease the hand already holds on n.
func (e *Engine) Hold(n *Node, o Origin) {
	t := e.take(n, 0)
	if o == LandingBet {
		t.lease = n.LeaseWord // installed by the CAS the READ rode behind
	}
	e.hand.e[e.hand.n] = held{n, t.lease, o} // never out of range: see hand
	e.hand.n++
}

// TakeLeased takes out of the hand the image last found leased at a
// remembered address, if any: it stands in for the next READ of that address
// and for nothing later.
func (e *Engine) TakeLeased() *Node { return e.take(nil, Leased).n }

// LeaseOn is the lease the hand holds on n, 0 for none: an image whose lease
// word is another is leased by someone else.
func (e *Engine) LeaseOn(n *Node) uint64 { return e.hand.at(e.hand.find(n, 0)).lease }

// Holding counts the entries in the hand: none between operations.
func (e *Engine) Holding() int { return e.hand.n }

// Release gives back, in one batch of its own, every lease the hand holds but
// those on keep's images, and takes every other entry out — but for a
// re-route's image on a verdict about a landing (a cause before
// BetKeyExists), which stays for the walk it was kept for. The releases go in
// the hand's order, the order the leases were won in: a batch a fault cuts
// short releases the older first. An image's lease word is cleared with its
// lease: a walk that goes on with the image arms no lock CAS with a word that
// is gone.
func (e *Engine) Release(cause BetCause, keep ...*Node) {
	ops, h := e.commitOps[:0], &e.hand // engine-held storage: no commit batch is being built
	n := 0
	for _, t := range h.e[:h.n] {
		if !slices.Contains(keep, t.n) {
			if t.lease != 0 {
				ops = append(ops, fabric.Op{Kind: fabric.CAS, Addr: t.n.LeaseAddr(), Expect: t.lease})
				t.n.LeaseWord, t.lease = 0, 0
			}
			if t.origin != Rerouted || cause >= BetKeyExists {
				continue
			}
		}
		h.e[n] = t
		n++
	}
	clear(h.e[n:h.n])
	h.n = n
	e.commitOps = ops[:0]
	if len(ops) > 0 {
		e.unlock(ops)
		e.countReturned(uint64(len(ops)), cause)
	}
}

// lockNodes is the first dependency level of every structural write, in one
// doorbell batch: the staged fresh-object WRITEs and publication reads, the
// lease CAS + re-read of child, and — for the two-node protocols (split,
// grow, relocate) — the lease CAS + re-read of parent. The staged verbs
// ride that first batch only; if a lease is held by someone else the wait
// continues with plain one-node polls. The batch is charged to StageLock,
// the stage of its gating verb.
//
// A node whose lease a bet already won (LeaseRead) posts neither CAS nor
// re-READ: its image was read under the lease and is returned as the locked
// one. With every lock held that way the batch is the staged verbs alone, or
// none at all.
//
// A write that retires a leaf (st.retiring) posts the leaf's lock CAS last in
// that first batch: it depends on nothing the batch returns, so it adds a verb
// and no round trip. A leaf is never waited for: a leaf CAS lost while the
// nodes are held aborts the write into ErrRestart, and the retried walk's
// ReadLeaf waits for the leaf instead.
//
// Locks are only ever waited for in child-then-parent order, and a node's
// before a leaf's: a first batch that won the parent but not the child gives
// the parent back before queueing for the child, and one that won the leaf but
// not a node gives the leaf back before it polls, and CASes for it once more
// when it holds the nodes. So two writers can never hold one lock each while
// waiting for the other's, and no in-place update waits behind a poll.
//
// It returns images read under the locks, each verified to still have the
// depth the caller's unlocked image had (callers re-derive slot state from
// the locked images). On any error nothing is held and the staged objects
// are booked as abandoned.
func (e *Engine) lockNodes(child, parent *Node, st *staged) (lc, lp *Node, err error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLock))
	bo := e.Backoff()
	var tc, tp lockTry
	ops := e.stagedOps[:0]
	if st != nil {
		ops = st.ops
	}
	if e.take(child, 0).lease != 0 {
		lc = child
	} else {
		tc = e.newLockTry(child.Addr, child.Hdr.Type, child.LeaseWord)
		ops = e.postLock(&tc, ops)
	}
	polls := parent != nil && e.take(parent, 0).lease == 0
	if polls {
		tp = e.newLockTry(parent.Addr, parent.Hdr.Type, parent.LeaseWord)
		ops = e.postLock(&tp, ops)
	} else {
		lp = parent
	}
	leaf := -1
	if st != nil && !st.leaf.Addr.IsNull() {
		leaf = len(ops)
		ops = e.postLeafLock(ops, &st.leaf, st.image)
	}
	if len(ops) > 0 {
		err = e.C.Batch(ops)
	}
	e.stagedOps = ops[:0]
	if leaf >= 0 {
		e.settleLeafLock(&st.leaf, ops[leaf], err)
	}
	if err != nil {
		if lc == nil {
			e.dropLock(&tc, ops, err)
		}
		if polls {
			e.dropLock(&tp, ops, err)
		}
		return nil, nil, e.abort(st, err, lc, lp)
	}
	if lc == nil {
		lc, err = e.settleLock(&tc, ops)
	}
	parentPolled := false
	if polls {
		var perr error
		if lp, perr = e.settleLock(&tp, ops); err == nil {
			err = perr
		}
		parentPolled = lp == nil
	}
	relock := err == nil && leaf >= 0 && (lc == nil || parentPolled)
	if relock && st.leaf.Held {
		err = e.UnlockLeaf(&st.leaf)
	}
	if err == nil && lc == nil {
		if lp != nil {
			e.unlock([]fabric.Op{e.UnlockOp(lp)})
			lp, parentPolled = nil, false
			tp = e.newLockTry(parent.Addr, parent.Hdr.Type, 0)
		}
		lc, err = e.acquire(&tc, bo, true)
	}
	if err == nil && parent != nil && lp == nil {
		lp, err = e.acquire(&tp, bo, parentPolled)
	}
	if err == nil && relock {
		err = e.lockLeaf(&st.leaf, st.image)
	}
	switch {
	case err == ErrNodeInvalid:
		err = fmt.Errorf("lock: node %v or its parent invalid: %w", child.Addr, ErrRestart)
	case err != nil:
	case lc.Hdr.Depth != child.Hdr.Depth:
		err = fmt.Errorf("lock: node %v depth changed: %w", lc.Addr, ErrRestart)
	case lp != nil && lp.Hdr.Depth != parent.Hdr.Depth:
		err = fmt.Errorf("lock: node %v depth changed: %w", lp.Addr, ErrRestart)
	case leaf >= 0 && !st.leaf.Held:
		err = fmt.Errorf("lock: leaf %v taken: %w", st.leaf.Addr, ErrRestart)
	}
	if err != nil {
		return nil, nil, e.abort(st, err, lc, lp)
	}
	return lc, lp, nil
}

// UnlockOp builds the CAS releasing a lease taken by Lock. It is meant to
// be piggybacked onto the final doorbell batch of a write operation
// (paper §IV: "followed by a piggybacked lock release"). The CAS expects
// our exact lease word, so a release issued again after it landed, or of a
// lease never taken, fails harmlessly instead of unlocking the next holder.
func (e *Engine) UnlockOp(n *Node) fabric.Op {
	return fabric.Op{
		Kind: fabric.CAS, Addr: n.LeaseAddr(),
		Expect:  n.LeaseWord,
		Desired: 0,
	}
}

// MatchPartial compares key against node n's compressed path. It returns
// the number of partial bytes matched and whether the whole partial (and
// thus the node's full prefix) is a prefix of key.
func MatchPartial(n *Node, key []byte) (matched int, full bool) {
	base := n.Base()
	if base > len(key) {
		return 0, false
	}
	rest := key[base:]
	m := 0
	for m < len(n.Partial) && m < len(rest) && n.Partial[m] == rest[m] {
		m++
	}
	return m, m == len(n.Partial)
}

// CommonPrefixLen returns the length of the longest common prefix of two
// keys.
func CommonPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
