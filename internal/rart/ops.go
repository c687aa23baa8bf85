package rart

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// Hooks let an index system react to tree events during shared operations.
// Sphinx maintains its inner-node hash table and filter cache through
// these; the baselines use NopHooks.
type Hooks interface {
	// Plan is called by a structural write before it takes its locks, with
	// every side-structure change the write will make once it commits. The
	// returned Publisher's reads ride the write's lock batch, its own verbs
	// the commit batch, and its Publish runs after the commit point.
	Plan(pubs []Publication) (Publisher, error)
	// SawNode runs for every valid inner node visited during a descent,
	// with the node's full prefix (Sphinx learns these into its filter).
	SawNode(prefix []byte, n *Node)
	// UpdatedLeaf runs when a put has overwritten an existing key, with the
	// leaf that now holds it: the same one after an in-place update, the
	// replacement after an out-of-place one (Sphinx learns it into its
	// leaf-address cache). Fresh inserts do not report.
	UpdatedLeaf(key []byte, addr mem.Addr, units uint8)
}

// Publication is one side-structure change a structural write owes once it
// commits: a fresh inner node with a brand-new full prefix (leaf conversion
// or compressed-path split; Old nil), or a node replaced by a larger copy
// at a new address (type switch; Old is the retired original — never in
// Prealloc256 mode, where nodes are born with the Node256 footprint and
// never move). Node's address is already reserved when Plan sees it. The
// slice and its prefixes are valid until the Publisher's last Publish.
type Publication struct {
	Prefix []byte
	Node   *Node
	Old    *Node
}

// Publisher carries one write's publications from plan to commit.
type Publisher interface {
	// AppendReads appends the READs the publication wants fetched ahead of
	// its own verbs (hash-bucket reads that precede an entry CAS); they
	// ride the write's lock batch — and a write whose lock a bet already
	// holds posts a lock batch for them alone. The other two methods are only
	// called after a batch carrying them completed.
	AppendReads(ops []fabric.Op) []fabric.Op
	// AppendCommit appends the publication's own verbs, planned from those
	// READs, to the write's commit batch: behind the slot WRITE that links
	// the new node into the tree, ahead of the unlock (swing). A batch
	// executes in posting order, so no entry names a node the tree does not,
	// and after a transient fault it is issued again from its first verb
	// that did not execute: each verb executes once, its outcome in place.
	AppendCommit(ops []fabric.Op) []fabric.Op
	// Publish makes every planned change visible that the commit batch did
	// not: commit is that batch, executed, or nil when its completion was lost
	// and the outcomes of its verbs with it. It runs after the write's commit
	// point, is re-driven across fabric faults until it returns nil
	// (completeHook), and must therefore be idempotent: an outcome is consumed
	// once, and a change already visible is left alone.
	Publish(commit []fabric.Op) error
}

// NopHooks ignores all events.
type NopHooks struct{}

// Plan implements Hooks.
func (NopHooks) Plan([]Publication) (Publisher, error) { return NopPublisher{}, nil }

// SawNode implements Hooks.
func (NopHooks) SawNode([]byte, *Node) {}

// UpdatedLeaf implements Hooks.
func (NopHooks) UpdatedLeaf([]byte, mem.Addr, uint8) {}

// NopPublisher rides no batch and publishes nothing; a Publisher with nothing
// to read or to CAS embeds it and says what its Publish does.
type NopPublisher struct{}

func (NopPublisher) AppendReads(ops []fabric.Op) []fabric.Op  { return ops }
func (NopPublisher) AppendCommit(ops []fabric.Op) []fabric.Op { return ops }
func (NopPublisher) Publish([]fabric.Op) error                { return nil }

// PutMode selects upsert semantics for PutFrom.
type PutMode int

// Put modes.
const (
	PutUpsert     PutMode = iota // insert or overwrite
	PutUpdateOnly                // do nothing (existed=false) if absent
	// PutUpdateFused is PutUpdateOnly whose descent locks the leaf in the
	// batch that reads it (lockReadLeaf): Sphinx's; the baselines read, then
	// lock.
	PutUpdateFused
)

// freshType is the capacity class of newly created inner nodes: SMART-style
// preallocation births every node as a Node256 (stable addresses, no type
// switches, 2.1–3.0× memory); everything else starts at Node4 and grows.
func (e *Engine) freshType() wire.NodeType {
	if e.Cfg.Prealloc256 {
		return wire.Node256
	}
	return wire.Node4
}

// OnPath verifies that node n really lies on key's path: its partial
// matches and its stored 42-bit full-prefix hash equals the hash of the
// corresponding key prefix (the Fig. 3 metadata check). The hash check
// catches the window during a compressed-path split where a stale parent
// slot still points at a child whose shortened partial coincidentally
// matches unrelated key bytes. inconsistent means the observation must be
// retried; a plain non-match means the key is simply not below n.
func OnPath(n *Node, key []byte) (match bool, inconsistent bool) {
	if _, full := MatchPartial(n, key); !full {
		return false, false
	}
	if n.Hdr.PrefixHash != wire.PrefixHash42(key[:n.Hdr.Depth]) {
		return false, true
	}
	return true, false
}

// landingKind says where a descent toward a key ended.
type landingKind uint8

const (
	// landDiverged: the key leaves the tree inside n's compressed path, or
	// ends within it.
	landDiverged landingKind = iota
	// landEmpty: the key's edge of n is empty.
	landEmpty
	// landLeaf: the edge holds a leaf — the key's, or that of another key
	// that shares the prefix up to the edge.
	landLeaf
)

// landing is what a descent reports, by value: where it ended, the node it
// ended in, that node's parent on this walk (nil while n is the start node)
// and the key's edge of n. leaf is set for landLeaf: the leaf on the edge,
// read whole and never Invalid; lock is held when the leaf's READ carried
// the lock CAS and it won on the key's leaf.
type landing struct {
	kind      landingKind
	n, parent *Node
	edge      edge
	leaf      *Leaf
	lock      LeafLock
}

// descend is the one walk from start toward key, shared by every point
// operation (op names the caller in errors). It is lock-free — but for the
// leaf hop of an in-place update, lockFor ≥ 0, which locks the leaf guessing
// it stores a value of lockFor bytes (lockReadLeaf) — and answers ErrRestart
// for the transient states a retry resolves: an invalidated node, a node off
// the key's path (OnPath), an Invalid leaf — the tree never names one
// (retire), so the image that did is stale.
func (e *Engine) descend(op string, start *Node, key []byte, lockFor int, h Hooks) (landing, error) {
	at := landing{n: start}
	for hop := 0; hop < wire.MaxDepth+2; hop++ {
		n := at.n
		if n.Hdr.Status == wire.StatusInvalid {
			return at, fmt.Errorf("%s: node %v invalid: %w", op, n.Addr, ErrRestart)
		}
		match, inconsistent := OnPath(n, key)
		if inconsistent {
			return at, fmt.Errorf("%s: node %v off path: %w", op, n.Addr, ErrRestart)
		}
		if !match {
			return at, nil
		}
		h.SawNode(key[:n.Hdr.Depth], n)
		at.edge = n.edgeOf(key)
		slot := at.edge.slot
		if !slot.Present {
			at.kind = landEmpty
			return at, nil
		}
		if !slot.Leaf {
			// The image a re-route kept, if the hand holds one: of the node
			// this slot names, or of one further down.
			child := e.hand.at(e.hand.find(nil, Rerouted)).n
			if child == nil || child.Addr != slot.Addr {
				// The walk leaves n for a node it holds no image of, so the
				// put will not write n: a lease bet on it goes back in the
				// batch of the READ — all but the one held with a re-route's
				// image further down.
				ops := e.returns(e.stagedOps[:0], BetWalkedOn, child) // engine-held storage: nothing is staged yet
				var err error
				child, err = e.ReadNode(slot.Addr, slot.ChildType, ops...)
				e.stagedOps = ops[:0]
				if e.returned(ops, BetWalkedOn, err == nil); err != nil {
					return at, err
				}
			}
			at.n, at.parent = child, n
			continue
		}
		leaf, lock, err := e.lockReadLeaf(slot.Addr, Via{n.Addr, at.edge.addr}, key, lockFor)
		if at.lock = lock; err != nil {
			return at, err
		}
		if leaf.Status == wire.StatusInvalid {
			return at, fmt.Errorf("%s: leaf %v invalid: %w", op, leaf.Addr, ErrRestart)
		}
		at.kind, at.leaf = landLeaf, leaf
		return at, nil
	}
	return at, fmt.Errorf("%w: descent exceeded max depth", ErrRetriesExhausted)
}

// SearchFrom descends from start toward key and returns the leaf reached,
// or nil if the key is not in the tree. The returned leaf's Key can differ
// from the searched key only when start was located via a collided hash
// jump; callers that jump (Sphinx) compare and fall back (paper §III-B).
func (e *Engine) SearchFrom(start *Node, key []byte, h Hooks) (*Leaf, error) {
	at, err := e.descend("search", start, key, -1, h)
	if err != nil || at.kind != landLeaf {
		return nil, err
	}
	return at.leaf, nil
}

// PutFrom inserts or updates key starting from the given node, per mode.
// It returns whether the key already existed. ErrRestart and ErrNeedParent
// bubble up for the caller to re-locate its start node and retry.
func (e *Engine) PutFrom(start *Node, key, value []byte, mode PutMode, h Hooks) (existed bool, err error) {
	lockFor := -1
	if mode == PutUpdateFused {
		lockFor = len(value)
	}
	at, err := e.descend("put", start, key, lockFor, h)
	if err != nil {
		return false, err
	}
	exists := at.kind == landLeaf && bytes.Equal(at.leaf.Key, key)
	// The leases the put's jump starts bet on (LeaseRead) are resolved here,
	// before anything else is posted (an error above ends the put's round, and
	// the index layer's close of the round gives them back). A put that links
	// nothing gives them all back — an in-place update with its leaf's lock
	// CAS (updateLeafInPlace). One that does keeps those of the node it
	// ended in and of that node's parent: the locks of its write (lockNodes,
	// installLeaf) — or, when the write needs a parent this walk did not come
	// through (ErrNeedParent), the child's lock of the write the re-routed walk
	// makes.
	inPlace := exists && fitsInPlace(at.leaf, value)
	keep, cause := [2]*Node{at.n, at.parent}, BetRoundEnded
	if inPlace {
		keep, cause = [2]*Node{}, BetKeyExists
	}
	if !inPlace {
		e.Release(cause, keep[:]...)
	}
	switch {
	case exists:
		return true, e.updateLeaf(&at, key, value, h)
	case mode >= PutUpdateOnly:
		// Every other landing says the key is absent.
		return false, nil
	case at.kind == landEmpty:
		return false, e.installLeaf(at.parent, at.n, key, value, at.edge, h)
	case at.kind == landLeaf:
		// Two distinct keys on one edge: grow the edge into a chain
		// of inner nodes covering their shared prefix.
		return false, e.convertLeaf(at.n, key, value, at.leaf, h)
	case at.parent == nil:
		// landDiverged in the start node: its parent is unknown.
		return false, ErrNeedParent
	}
	// Key diverges inside n's compressed path (or ends within it): split
	// n's partial under a new parent node.
	return false, e.splitPartial(at.parent, at.n, key, value, h)
}

// plan stages the publication reads of a structural write: the hook learns
// what the write will publish and its reads join the lock batch.
func (e *Engine) plan(st *staged, h Hooks, pubs []Publication) (Publisher, error) {
	pub, err := h.Plan(pubs)
	if err != nil {
		e.abandon(st)
		return nil, err
	}
	n := len(st.ops)
	st.ops = pub.AppendReads(st.ops)
	st.reads = len(st.ops) > n
	return pub, nil
}

// confirmEdge re-derives key's edge from locked, the image read under the
// node's lock, and confirms that it still names addr (null: is still empty)
// as it did in the unlocked image the write was planned on. The locked image
// is authoritative: if a competing writer moved or claimed the edge first,
// the write aborts into a restart, releasing locked and also. Comparing
// addresses is enough — the allocator never reuses one, so an address is a
// leaf's or a node's for good.
func (e *Engine) confirmEdge(st *staged, op string, locked, also *Node, key []byte, addr mem.Addr) (edge, error) {
	ed := locked.edgeOf(key)
	if ed.slot.Addr != addr {
		return ed, e.abort(st, fmt.Errorf("%s: edge moved on %v: %w", op, locked.Addr, ErrRestart), also, locked)
	}
	return ed, nil
}

// slotWrite starts a commit batch in the engine's storage (commitOps,
// commitWords: no allocation): the WRITE of word into the slot of ed, an edge
// of the locked node n. An edge that appears in or disappears from a Node48
// takes its index byte along; a swing from one child to another leaves it
// alone. The caller appends what rides behind the slot and ends the batch
// with thenUnlock.
func (e *Engine) slotWrite(n *Node, ed edge, word uint64) []fabric.Op {
	return e.appendSlotWrite(e.commitOps[:0], n, ed, word)
}

// appendSlotWrite is slotWrite behind verbs that lead the commit batch.
func (e *Engine) appendSlotWrite(ops []fabric.Op, n *Node, ed edge, word uint64) []fabric.Op {
	binary.LittleEndian.PutUint64(e.commitWords[0][:], word)
	ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: ed.addr, Data: e.commitWords[0][:]})
	present := word != 0
	if n.Hdr.Type == wire.Node48 && !ed.eol && present != ed.slot.Present {
		e.commitIdx[0] = 0
		if present {
			e.commitIdx[0] = uint8(ed.idx + 1)
		}
		ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: n.IndexAddr(ed.b), Data: e.commitIdx[:]})
	}
	return ops
}

// thenUnlock ends a commit batch with the release of the locked node n —
// last, so nothing the batch writes into n lands after another writer may
// hold it — and keeps the storage the batch grew.
func (e *Engine) thenUnlock(ops []fabric.Op, n *Node) []fabric.Op {
	ops = append(ops, e.UnlockOp(n))
	e.commitOps = ops[:0]
	return ops
}

// childSlot is the slot word of edge ed naming the inner node to.
func childSlot(ed edge, to *Node) uint64 {
	return wire.Slot{Present: true, KeyByte: ed.b, ChildType: to.Hdr.Type, Addr: to.Addr}.Encode()
}

// swing links word into ed, an edge of the locked node n, lands pub's entries
// and releases n, in ONE batch driven to completion — [lead · W slot · pub's
// verbs · tail · CAS unlock]: the commit point of an insert, a leaf
// conversion, the publication of a split's or a replacement's new node. lead
// is what must land before the link: behind a won bet the fresh objects'
// WRITEs (no lock batch carried them), in a split the child's head; tail what
// must land behind the entries, a replaced node's invalidation. A batch
// executes in posting order over all its targets (the contract of
// fabric.Client.runBatch, DESIGN.md §5.1), so the slot never names an
// unwritten object and an entry never names a node the tree does not. pub
// then finishes from the batch's outcomes; what did not land takes pub's own
// idempotent path.
func (e *Engine) swing(n *Node, ed edge, word uint64, pub Publisher, lead []fabric.Op, tail ...fabric.Op) error {
	ops := e.thenUnlock(append(pub.AppendCommit(e.appendSlotWrite(append(e.commitOps[:0], lead...), n, ed, word)), tail...), n)
	_, lost, err := e.issueAll(ops)
	if err != nil {
		return err
	}
	if lost {
		ops = nil // every verb executed, with outcomes unknown
	}
	return e.completeHook(func() error { return pub.Publish(ops) })
}

// retire takes st's leaf off the tree, in ONE batch driven to completion —
// [lead · W slot ← word · W leaf Invalid · CAS unlock]: the commit of a delete
// (word 0), an out-of-place update and a relocation (word names the fresh
// leaf; lead is its WRITE when the lock batch did not carry it). locked is the
// leaf's node, ed the edge of it that names the leaf, and both locks are held
// (lockNodes with st.retiring). The Invalid header lands over this client's
// own Locked word, keeps the lengths the lock replaced and releases the leaf:
// a writer waiting on it restarts, a cached address of it is refuted. The slot
// goes first, so the tree never names a retired leaf.
//
// Should the completion loop give up before the slot WRITE executed, nothing
// committed and the write aborts, its locks given back; past that point the
// leaf is off the tree and stays Locked, an image no reader trusts.
func (e *Engine) retire(st *staged, locked *Node, ed edge, word uint64, lead ...fabric.Op) error {
	ops := e.appendSlotWrite(append(e.commitOps[:0], lead...), locked, ed, word)
	binary.LittleEndian.PutUint64(e.commitWords[1][:], wire.WithStatus(st.leaf.Seen, wire.StatusInvalid))
	ops = e.thenUnlock(append(ops, fabric.Op{Kind: fabric.Write, Addr: st.leaf.Addr, Data: e.commitWords[1][:]}), locked)
	left, _, err := e.issueAll(ops)
	if err != nil && left >= len(ops)-len(lead) {
		return e.abort(st, err, locked, nil)
	}
	return err
}

// installLeaf links a fresh leaf into node n in two round trips (paper §IV
// Insert): the leaf WRITE rides the lock batch, the slot install carries
// the unlock. In ONE when n's lease came with its image (LeaseRead): the
// image was read under the lock, its free edge is a fact, and the leaf WRITE
// leads the commit batch — [W leaf · W slot (+ index) · CAS unlock], executed
// in posting order though the leaf lives on another memory node (DESIGN.md
// §5.1), so the slot never names an unwritten leaf.
//
// Either commit batch is driven to completion: a transient behind the slot
// WRITE would otherwise send the put around again to find its own leaf and
// update it in place, leaving n's lease behind for every other writer.
func (e *Engine) installLeaf(parent, n *Node, key, value []byte, ed edge, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageInstall))
	if ed.addr.IsNull() {
		return e.growAndInstall(parent, n, key, value, h)
	}
	st := e.stage()
	leafAddr, err := e.stageLeaf(&st, key, value)
	if err != nil {
		return err
	}
	slot := wire.Slot{Present: true, Leaf: true, KeyByte: ed.b, Addr: leafAddr}.Encode()
	if e.take(n, 0).lease != 0 {
		e.stagedOps = st.ops[:0]
		return e.swing(n, ed, slot, NopPublisher{}, st.ops)
	}
	locked, _, err := e.lockNodes(n, nil, &st)
	if err != nil {
		return err
	}
	if ed, err = e.confirmEdge(&st, "install", locked, nil, key, 0); err != nil {
		return err
	}
	if ed.addr.IsNull() {
		// A competing writer took the last free slot first.
		return e.abort(&st, fmt.Errorf("install: node %v filled up: %w", locked.Addr, ErrRestart), locked, nil)
	}
	return e.swing(locked, ed, slot, NopPublisher{}, nil)
}

// sameImage reports whether the image read under the lock still is the one
// a copy was built from before the lock was taken.
func sameImage(locked, seen *Node) bool {
	if locked.Hdr != seen.Hdr || locked.EOL != seen.EOL ||
		!bytes.Equal(locked.Partial, seen.Partial) || !bytes.Equal(locked.Index, seen.Index) ||
		len(locked.Slots) != len(seen.Slots) {
		return false
	}
	for i, w := range locked.Slots {
		if w != seen.Slots[i] {
			return false
		}
	}
	return true
}

// growAndInstall performs a node type switch (paper §III-C): a larger copy
// of the full node n absorbs the new key's slot and replaces n (replaceNode).
// The copy is built from the descent's unlocked image and written, with the
// new leaf, in the batch that locks both nodes; the locked image must then
// match it. With both leases come with their images (a re-route's and its
// landing's bets) and the publisher wanting no READ — the index layer read
// the entry's bucket pair in that landing's batch — there is no lock batch:
// the images were read under the leases, and the fresh objects lead the
// commit batch, as installLeaf's leaf does.
func (e *Engine) growAndInstall(parent, n *Node, key, value []byte, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	if parent == nil {
		// Root nodes are born Node256 and cannot fill; only a hash-jump
		// start node can land here. Restart through a parent-bearing path
		// (nothing is written or locked yet).
		return ErrNeedParent
	}
	prefix := key[:n.Hdr.Depth]
	st := e.stage()
	leafAddr, err := e.stageLeaf(&st, key, value)
	if err != nil {
		return err
	}
	grown := e.arena.grown(n)
	grown.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: key[n.Hdr.Depth], Addr: leafAddr})
	if err := e.reserveNode(&st, grown, prefix); err != nil {
		e.abandon(&st)
		return err
	}
	e.stageNode(&st, grown)
	e.pubs = append(e.pubs[:0], Publication{Prefix: prefix, Node: grown, Old: n})
	pub, err := e.plan(&st, h, e.pubs)
	if err != nil {
		return err
	}
	if !st.reads && e.LeaseOn(n) != 0 && e.LeaseOn(parent) != 0 {
		e.take(n, 0)
		e.take(parent, 0)
		e.stagedOps = st.ops[:0]
		return e.replaceNode(parent, parent.edgeOf(key), n, grown, pub, st.ops...)
	}
	locked, lockedParent, err := e.lockNodes(n, parent, &st)
	if err != nil {
		return err
	}
	if !sameImage(locked, n) {
		return e.abort(&st, fmt.Errorf("grow: node %v changed: %w", locked.Addr, ErrRestart), locked, lockedParent)
	}
	ed, err := e.confirmEdge(&st, "grow", lockedParent, locked, key, locked.Addr)
	if err != nil {
		return err
	}
	return e.replaceNode(lockedParent, ed, locked, grown, pub)
}

// replaceNode is what a type switch and a node relocation share, from their
// commit point on, in one swing: parent slot → replacement, hash entry →
// replacement through pub, original → invalid, parent released. Abandoning
// it midway would leave the retired original valid yet reachable through its
// stale hash entry, and every later jump-started descent would miss children
// only the replacement has (a permanent false absence); so the batch runs to
// completion, then pub's finish step. The original's lease is never given
// back: the invalidation both retires the original and releases any waiters
// on its lock into a retry (paper §III-C). An entry swap that falls to the
// finish step lands behind the invalidation, and a reader may remove the old
// entry, which names a retired node, first: the swap is an upsert and
// inserts the new entry then. lead is the fresh objects' WRITEs when no lock
// batch carried them.
func (e *Engine) replaceNode(lockedParent *Node, ed edge, original, replacement *Node, pub Publisher, lead ...fabric.Op) error {
	binary.LittleEndian.PutUint64(e.commitWords[1][:], wire.WithStatus(original.HdrWord, wire.StatusInvalid))
	return e.swing(lockedParent, ed, childSlot(ed, replacement), pub, lead,
		fabric.Op{Kind: fabric.Write, Addr: original.Addr, Data: e.commitWords[1][:]})
}

// complete drives one step past an operation's commit point to completion,
// where abandoning it would strand the structure mid-protocol. The step is a
// doorbell batch (completeBatch) or an idempotent side-structure publication
// (completeHook), and the one thing that tells them apart is what a lost
// completion means, rerunTimeout:
//
//   - A timed-out batch executed every verb, so it counts as done and is
//     never re-issued — re-issuing could clobber state the batch's own
//     trailing unlock already handed to another client. A timed-out hook (a
//     hash-table insert or swap that returns early on an entry already
//     there) is simply run again.
//   - A transient fault executed a prefix of the batch, and a down window
//     executed nothing: both wait and go again — a batch from the first
//     verb that did not execute (fabric.Executed), never from the top. A
//     verb that ran may have been overtaken in the meantime: a peer's
//     in-place update of the leaf the slot WRITE just linked, a peer's write
//     into a node whose lease a split's head WRITE just zeroed. Issued again,
//     the earlier verb would put the older image back over an acknowledged
//     write.
//   - A permanently killed node rejected the step, executed no verb and never
//     will (ErrNodeKilled wraps ErrNodeDown, so it has to be told apart
//     first): the error goes back at once, still naming the node, so the
//     layer above can fail the operation over instead of watching the budget
//     die on "retries exhausted".
//   - A doorbell batch is, or ends in, a lock release, and a live holder's
//     lock is taken over by nobody (ownerCrashed): it never gives up on a node
//     that is down but not killed. Its budget spent in a down window, it
//     starts another, until the node comes back.
func (e *Engine) complete(what string, rerunTimeout bool, step func() error) error {
	var bo *fabric.Backoff // started by the first fault: the clean path allocates nothing
	for {
		err := step()
		cause := RetryCause(err)
		if cause == CauseNone || cause == CauseStructural || errors.Is(err, fabric.ErrNodeKilled) {
			return err
		}
		atomic.AddUint64(&e.stats.PublishRetries, 1)
		if cause == CauseTimeout && !rerunTimeout {
			return nil
		}
		if bo == nil {
			bo = e.Backoff()
		}
		if !bo.Wait() {
			if cause != CauseNodeDown || rerunTimeout {
				return fmt.Errorf("%w: %s", ErrRetriesExhausted, what)
			}
			bo = e.Backoff()
		}
	}
}

// completeBatch drives one doorbell batch to completion; see complete.
func (e *Engine) completeBatch(ops []fabric.Op) error {
	_, _, err := e.issueAll(ops)
	return err
}

// issueAll is completeBatch reporting how it ended: lost says the completion
// was lost — every verb executed, with outcomes unknown; otherwise each verb's
// outcome is in ops, whichever attempt executed it. On an error, the last left
// verbs of ops never executed.
func (e *Engine) issueAll(ops []fabric.Op) (left int, lost bool, err error) {
	err = e.complete("publish batch", false, func() error {
		last := e.C.Batch(ops)
		ops, lost = ops[fabric.Executed(last):], last != nil
		return last
	})
	return len(ops), lost, err
}

// completeHook drives a side-structure publication to completion across
// fabric faults; see complete. By the time these hooks run, the new nodes are
// already reachable through the tree, and a live node without its hash entry
// is reachable by no jump: every descent toward it walks from a shorter
// prefix, for good.
func (e *Engine) completeHook(run func() error) error {
	return e.complete("hook publication", true, run)
}

// convertLeaf replaces a leaf edge of n by a chain of inner nodes covering
// the common prefix of the existing leaf's key and the new key, ending in
// a node that holds both. Chains longer than one node arise when the
// shared prefix exceeds the inline partial capacity. Everything the chain
// is made of — n's depth, the old leaf's key and address — was read by the
// descent, so the new leaf and the whole chain are written in the lock
// batch; under the lock only the slot still naming the old leaf is checked.
// Behind a won bet there is no lock batch: n's image was read under its
// lease, its edge names the old leaf for a fact, and — unless the publisher
// wants READs ahead of its CASes — the fresh objects lead the commit batch,
// as installLeaf's leaf does.
func (e *Engine) convertLeaf(n *Node, key, value []byte, oldLeaf *Leaf, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	depth := int(n.Hdr.Depth)
	cp := CommonPrefixLen(key, oldLeaf.Key)
	if cp <= depth {
		// The leaf does not actually extend this node's prefix: the
		// descent raced with a structural change (or a collided jump
		// slipped past the hash checks). Redo the operation.
		return fmt.Errorf("convert: leaf %v off path: %w", oldLeaf.Addr, ErrRestart)
	}
	st := e.stage()
	newLeafAddr, err := e.stageLeaf(&st, key, value)
	if err != nil {
		return err
	}

	// Build the chain bottom-up locally: the bottom node at depth cp holds
	// both leaves; intermediates each cover MaxPartial bytes plus an edge.
	bottom := e.arena.newNode(e.freshType(), key[:cp], min(cp-(depth+1), wire.MaxPartial))
	place := func(k []byte, addr wire.Slot) {
		if len(k) == cp {
			bottom.EOL = addr
		} else {
			addr.KeyByte = k[cp]
			bottom.addChildLocal(addr)
		}
	}
	place(oldLeaf.Key, wire.Slot{Present: true, Leaf: true, Addr: oldLeaf.Addr})
	place(key, wire.Slot{Present: true, Leaf: true, Addr: newLeafAddr})

	chain := []*Node{bottom} // bottom ... top, each a new prefix
	for bottom.Base() > depth+1 {
		childBase := bottom.Base()
		upper := e.arena.newNode(e.freshType(), key[:childBase-1], min(childBase-1-(depth+1), wire.MaxPartial))
		chain = append(chain, upper)
		bottom = upper
	}
	// Reserve every address first, so each node can link its child before
	// its image is encoded.
	pubs := e.pubs[:0]
	for i, node := range chain {
		if err := e.reserveNode(&st, node, key[:node.Hdr.Depth]); err != nil {
			e.abandon(&st)
			return err
		}
		if i > 0 {
			// chain[i] is the parent of chain[i-1].
			child := chain[i-1]
			node.addChildLocal(wire.Slot{
				Present: true, KeyByte: key[node.Hdr.Depth],
				ChildType: child.Hdr.Type, Addr: child.Addr,
			})
		}
		pubs = append(pubs, Publication{Prefix: key[:node.Hdr.Depth], Node: node})
	}
	e.pubs = pubs
	for _, node := range chain {
		e.stageNode(&st, node)
	}
	pub, err := e.plan(&st, h, pubs)
	if err != nil {
		return err
	}
	top := chain[len(chain)-1]
	if !st.reads && e.take(n, 0).lease != 0 {
		e.stagedOps = st.ops[:0]
		ed := n.edgeOf(key)
		return e.swing(n, ed, childSlot(ed, top), pub, st.ops)
	}
	locked, _, err := e.lockNodes(n, nil, &st)
	if err != nil {
		return err
	}
	ed, err := e.confirmEdge(&st, "convert", locked, nil, key, oldLeaf.Addr)
	if err != nil {
		return err
	}
	// The swing is the commit point; it and the hash publications riding it
	// must land even across faults, or the chain's nodes would be reachable
	// by no jump.
	return e.swing(locked, ed, childSlot(ed, top), pub, nil)
}

// splitPartial handles a key diverging inside child's compressed path: a
// new parent node takes over the matched part of the partial, child keeps
// its full prefix (only its partial shrinks — the coherence property of
// §III-B), and the new key's leaf hangs off the new parent. The new parent
// is built from the descent's images of child and parent and written, with
// the leaf, in the batch that locks both; the locked images must confirm
// child's partial and the parent slot.
func (e *Engine) splitPartial(parent, child *Node, key, value []byte, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	m, full := MatchPartial(child, key)
	if full {
		return fmt.Errorf("split: partial matches on %v: %w", child.Addr, ErrRestart)
	}
	if child.Base() != int(parent.Hdr.Depth)+1 {
		// Images from two different moments of a restructuring.
		return fmt.Errorf("split: node %v not directly below %v: %w", child.Addr, parent.Addr, ErrRestart)
	}
	splitAt := child.Base() + m // new parent's depth
	st := e.stage()
	newLeafAddr, err := e.stageLeaf(&st, key, value)
	if err != nil {
		return err
	}
	mid := e.arena.newNode(e.freshType(), key[:splitAt], splitAt-(int(parent.Hdr.Depth)+1))
	// Old child hangs off the partial byte where the paths diverge.
	mid.addChildLocal(wire.Slot{
		Present: true, KeyByte: child.Partial[m],
		ChildType: child.Hdr.Type, Addr: child.Addr,
	})
	// The new key ends at the split point (EOL) or continues below it.
	if len(key) == splitAt {
		mid.EOL = wire.Slot{Present: true, Leaf: true, Addr: newLeafAddr}
	} else {
		mid.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: key[splitAt], Addr: newLeafAddr})
	}
	if err := e.reserveNode(&st, mid, key[:splitAt]); err != nil {
		e.abandon(&st)
		return err
	}
	e.stageNode(&st, mid)
	e.pubs = append(e.pubs[:0], Publication{Prefix: key[:splitAt], Node: mid})
	pub, err := e.plan(&st, h, e.pubs)
	if err != nil {
		return err
	}
	lockedChild, lockedParent, err := e.lockNodes(child, parent, &st)
	if err != nil {
		return err
	}
	if !bytes.Equal(lockedChild.Partial, child.Partial) {
		return e.abort(&st, fmt.Errorf("split: partial changed on %v: %w", lockedChild.Addr, ErrRestart), lockedChild, lockedParent)
	}
	ed, err := e.confirmEdge(&st, "split", lockedParent, lockedChild, key, lockedChild.Addr)
	if err != nil {
		return err
	}

	// Shrink the child's partial: header + partial bytes live in the first
	// 32 bytes (one 64-byte line), so a single WRITE replaces them
	// atomically for concurrent readers; it also releases the child lock.
	newHdr := lockedChild.Hdr
	newHdr.Status = wire.StatusIdle
	newHdr.PartialLen = uint8(len(lockedChild.Partial) - m - 1)
	head := e.arena.buf(wire.SlotBase)
	clear(head)
	binary.LittleEndian.PutUint64(head[wire.HeaderOff:], newHdr.Encode())
	binary.LittleEndian.PutUint64(head[wire.EOLSlotOff:], lockedChild.EOL.Encode())
	copy(head[wire.PartialOff:], lockedChild.Partial[m+1:])
	// The head write is the commit point: once the child's partial has
	// shrunk, descents through the old parent slot fail the prefix-hash
	// check until mid is published, so the rest of the sequence must land
	// even across faults. It leads the batch that publishes mid and releases
	// the parent: it zeroes the child's lease too, and a batch a transient
	// cut is issued again only from the first verb that did not execute
	// (complete), so that release is never repeated over a lease a peer has
	// taken since.
	return e.swing(lockedParent, ed, childSlot(ed, mid), pub, []fabric.Op{
		{Kind: fabric.Write, Addr: lockedChild.Addr, Data: head},
	})
}

// fitsInPlace reports whether value fits the 64-byte units leaf occupies.
func fitsInPlace(leaf *Leaf, value []byte) bool {
	return wire.LeafSize(len(leaf.Key), len(value)) <= uint64(leaf.Units)*wire.LeafUnit
}

// updateLeaf applies the paper's update protocol (§III-C, §IV Update) to the
// leaf at landed on: in-place with the checksum scheme when the new value fits
// the leaf's 64-byte units, out-of-place (new leaf, repointed slot, retired
// old: retire) otherwise.
func (e *Engine) updateLeaf(at *landing, key, value []byte, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	n, leaf := at.n, at.leaf
	if fitsInPlace(leaf, value) {
		if err := e.updateLeafInPlace(leaf, at.lock, value, Via{n.Addr, at.edge.addr}); err != nil {
			return err
		}
		h.UpdatedLeaf(key, leaf.Addr, leaf.Units)
		return nil
	}
	// Out-of-place: the replacement's WRITE and the old leaf's lock ride the
	// node's lock batch, and one commit swings the slot and retires the old
	// leaf, so that no leaf-address cache finds it Idle again.
	st := e.stage()
	newAddr, err := e.stageLeaf(&st, key, value)
	if err != nil {
		return err
	}
	st.retiring(leaf, nil)
	locked, _, err := e.lockNodes(n, nil, &st)
	if err != nil {
		return err
	}
	ed, err := e.confirmEdge(&st, "update", locked, nil, key, leaf.Addr)
	if err != nil {
		return err
	}
	if err := e.retire(&st, locked, ed, wire.Slot{Present: true, Leaf: true, KeyByte: ed.b, Addr: newAddr}.Encode()); err != nil {
		return err
	}
	h.UpdatedLeaf(key, newAddr, uint8(wire.LeafSize(len(key), len(value))/wire.LeafUnit))
	return nil
}

// updateLeafInPlace is the checksum-based single-WRITE update (§III-C):
// lock the leaf with one CAS on its header word — l, when the descent's READ
// carried it and it won — then write the whole new image — new value, new
// checksum, Idle status — in one WRITE that doubles as the lock release
// (WriteLockedLeaf). The first CAS carries the put's lease bets back
// (BetKeyExists). A lock whose holder crashed is broken, as ReadLeaf breaks
// it: when via, where the walk found the leaf, still names it.
func (e *Engine) updateLeafInPlace(leaf *Leaf, l LeafLock, value []byte, via Via) error {
	if !l.Held {
		l = lockOf(leaf)
	}
	ops := e.returns(e.commitOps[:0], BetKeyExists)
	var bo *fabric.Backoff // started by the first lost attempt
	for !l.Held {
		// A lost attempt leaves the observed header in l.Seen, and the next
		// one expects its Idle form: a concurrent in-place update that
		// changed the value length is adopted.
		k := len(ops)
		ops = e.postLeafLock(ops, &l, nil)
		err := e.C.Batch(ops)
		e.settleLeafLock(&l, ops[k], err)
		e.returned(ops[:k], BetKeyExists, err == nil)
		if ops = ops[:0]; err != nil {
			return err
		}
		if l.Held {
			break
		}
		if bo == nil {
			bo = e.Backoff()
		}
		switch wire.DecodeLeafHeader(l.Seen).Status {
		case wire.StatusInvalid:
			return fmt.Errorf("update: leaf %v invalidated: %w", leaf.Addr, ErrRestart)
		case wire.StatusLocked:
			if e.ownerCrashed(wire.LeafLockOwner(l.Seen)) {
				on, err := e.breakLeafLock(leaf.Addr, l.Seen, via)
				if err != nil {
					return err
				}
				if !on {
					return fmt.Errorf("update: leaf %v off the tree: %w", leaf.Addr, ErrRestart)
				}
			}
		}
		if !bo.WaitHolder() {
			return fmt.Errorf("%w: leaf lock at %v", ErrRetriesExhausted, leaf.Addr)
		}
	}
	e.returned(ops, BetKeyExists, false) // a lock the descent won posted none
	e.commitOps = ops[:0]
	return e.WriteLockedLeaf(&l, leaf.Key, value)
}

// DeleteFrom removes key, reporting whether it was present (paper §IV
// Delete): the leaf's lock rides the node's lock batch, and one commit clears
// the slot and retires the leaf (retire).
func (e *Engine) DeleteFrom(start *Node, key []byte, h Hooks) (bool, error) {
	at, err := e.descend("delete", start, key, -1, h)
	if err != nil || at.kind != landLeaf || !bytes.Equal(at.leaf.Key, key) {
		return false, err
	}
	st := e.stage()
	st.retiring(at.leaf, nil)
	locked, _, err := e.lockNodes(at.n, nil, &st)
	if err != nil {
		return false, err
	}
	ed, err := e.confirmEdge(&st, "delete", locked, nil, key, at.leaf.Addr)
	if err != nil {
		return false, err
	}
	defer e.C.SetStage(e.C.SetStage(fabric.StageInstall))
	if err := e.retire(&st, locked, ed, 0); err != nil {
		return false, err
	}
	return true, nil
}
