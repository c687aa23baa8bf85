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
	// returned Publisher's reads ride the write's lock batch and its Publish
	// runs after the commit point.
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
	// ride the write's lock batch. Publish is only called after a batch
	// carrying them completed.
	AppendReads(ops []fabric.Op) []fabric.Op
	// Publish makes every planned change visible. It runs after the write's
	// commit point, is re-driven across fabric faults until it returns nil
	// (completeHook), and must therefore be idempotent.
	Publish() error
}

// NopHooks ignores all events.
type NopHooks struct{}

// Plan implements Hooks.
func (NopHooks) Plan([]Publication) (Publisher, error) { return nopPublisher{}, nil }

// SawNode implements Hooks.
func (NopHooks) SawNode([]byte, *Node) {}

// UpdatedLeaf implements Hooks.
func (NopHooks) UpdatedLeaf([]byte, mem.Addr, uint8) {}

type nopPublisher struct{}

func (nopPublisher) AppendReads(ops []fabric.Op) []fabric.Op { return ops }
func (nopPublisher) Publish() error                          { return nil }

// PutMode selects upsert semantics for PutFrom.
type PutMode int

// Put modes.
const (
	PutUpsert     PutMode = iota // insert or overwrite
	PutInsertOnly                // report existed=true without writing if present
	PutUpdateOnly                // do nothing (existed=false) if absent
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

// SearchFrom descends from start toward key and returns the leaf reached,
// or nil if the key is not in the tree. The returned leaf's Key can differ
// from the searched key only when start was located via a collided hash
// jump; callers that jump (Sphinx) compare and fall back (paper §III-B).
//
// The descent is lock-free; it returns ErrRestart when it observes a
// transient state (invalidated node or leaf) that a retry will resolve.
func (e *Engine) SearchFrom(start *Node, key []byte, h Hooks) (*Leaf, error) {
	n := start
	for hop := 0; hop < wire.MaxDepth+2; hop++ {
		if n.Hdr.Status == wire.StatusInvalid {
			return nil, fmt.Errorf("search: node %v invalid: %w", n.Addr, ErrRestart)
		}
		match, inconsistent := OnPath(n, key)
		if inconsistent {
			return nil, fmt.Errorf("search: node %v off path: %w", n.Addr, ErrRestart)
		}
		if !match {
			return nil, nil
		}
		depth := int(n.Hdr.Depth)
		h.SawNode(key[:depth], n)
		var slot wire.Slot
		if len(key) == depth {
			slot = n.EOL
			if !slot.Present {
				return nil, nil
			}
		} else {
			var ok bool
			slot, _, ok = n.Child(key[depth])
			if !ok {
				return nil, nil
			}
		}
		if slot.Leaf {
			leaf, err := e.ReadLeaf(slot.Addr)
			if err != nil {
				return nil, err
			}
			if leaf.Status == wire.StatusInvalid {
				// An invalid leaf still linked from a slot is a delete that
				// faulted between committing (invalidating the leaf) and
				// clearing the slot. Finish it; the key is absent.
				cleared, cerr := e.completeDelete(n, len(key) == depth, slot.KeyByte, leaf.Addr)
				if cerr != nil {
					return nil, cerr
				}
				if cleared {
					return nil, nil
				}
				return nil, fmt.Errorf("search: leaf %v invalid: %w", leaf.Addr, ErrRestart)
			}
			return leaf, nil
		}
		child, err := e.ReadNode(slot.Addr, slot.ChildType)
		if err != nil {
			return nil, err
		}
		n = child
	}
	return nil, fmt.Errorf("%w: descent exceeded max depth", ErrRetriesExhausted)
}

// PutFrom inserts or updates key starting from the given node, per mode.
// It returns whether the key already existed. ErrRestart and ErrNeedParent
// bubble up for the caller to re-locate its start node and retry.
func (e *Engine) PutFrom(start *Node, key, value []byte, mode PutMode, h Hooks) (existed bool, err error) {
	n := start
	var parent *Node // nil while n == start
	for hop := 0; hop < wire.MaxDepth+2; hop++ {
		if n.Hdr.Status == wire.StatusInvalid {
			return false, fmt.Errorf("put: node %v invalid: %w", n.Addr, ErrRestart)
		}
		match, inconsistent := OnPath(n, key)
		if inconsistent {
			return false, fmt.Errorf("put: node %v off path: %w", n.Addr, ErrRestart)
		}
		if !match {
			// Key diverges inside n's compressed path (or ends within
			// it): split n's partial under a new parent node.
			if mode == PutUpdateOnly {
				return false, nil
			}
			if parent == nil {
				return false, ErrNeedParent
			}
			return false, e.splitPartial(parent, n, key, value, h)
		}
		depth := int(n.Hdr.Depth)
		h.SawNode(key[:depth], n)
		var slot wire.Slot
		eol := len(key) == depth
		if eol {
			slot = n.EOL
		} else {
			slot, _, _ = n.Child(key[depth])
		}
		switch {
		case !slot.Present:
			if mode == PutUpdateOnly {
				return false, nil
			}
			return false, e.installLeaf(parent, n, key, value, eol, h)
		case slot.Leaf:
			leaf, err := e.ReadLeaf(slot.Addr)
			if err != nil {
				return false, err
			}
			if leaf.Status == wire.StatusInvalid {
				// Residue of an interrupted delete (see completeDelete).
				// Repair, then restart: the retried descent sees a free
				// slot and installs normally.
				if _, cerr := e.completeDelete(n, eol, slot.KeyByte, leaf.Addr); cerr != nil {
					return false, cerr
				}
				return false, fmt.Errorf("put: leaf %v invalid: %w", leaf.Addr, ErrRestart)
			}
			if bytes.Equal(leaf.Key, key) {
				if mode == PutInsertOnly {
					return true, nil
				}
				return true, e.updateLeaf(n, leaf, key, value, eol, h)
			}
			if mode == PutUpdateOnly {
				return false, nil
			}
			// Two distinct keys on one edge: grow the edge into a chain
			// of inner nodes covering their shared prefix.
			return false, e.convertLeaf(n, key, value, leaf, h)
		default:
			child, err := e.ReadNode(slot.Addr, slot.ChildType)
			if err != nil {
				return false, err
			}
			parent, n = n, child
		}
	}
	return false, fmt.Errorf("%w: descent exceeded max depth", ErrRetriesExhausted)
}

// lockVerified acquires n's lock alone, with nothing riding the batch; see
// lockNodes.
func (e *Engine) lockVerified(n *Node) (*Node, error) {
	locked, _, err := e.lockNodes(n, nil, nil)
	return locked, err
}

// plan stages the publication reads of a structural write: the hook learns
// what the write will publish and its reads join the lock batch.
func (e *Engine) plan(st *staged, h Hooks, pubs []Publication) (Publisher, error) {
	pub, err := h.Plan(pubs)
	if err != nil {
		e.abandon(st)
		return nil, err
	}
	st.ops = pub.AppendReads(st.ops)
	return pub, nil
}

// installLeaf links a fresh leaf into node n in two round trips (paper §IV
// Insert): the leaf WRITE rides the lock batch, the slot install carries
// the unlock.
func (e *Engine) installLeaf(parent, n *Node, key, value []byte, eol bool, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageInstall))
	if !eol {
		if _, free := n.FreeSlot(key[n.Hdr.Depth]); !free {
			return e.growAndInstall(parent, n, key, value, h)
		}
	}
	st := e.stage()
	leafAddr, err := e.stageLeaf(&st, key, value)
	if err != nil {
		return err
	}
	locked, _, err := e.lockNodes(n, nil, &st)
	if err != nil {
		return err
	}
	// The locked image is authoritative: if a competing writer claimed the
	// edge or the last free slot first, redo the descent.
	slot := wire.Slot{Present: true, Leaf: true, Addr: leafAddr}
	if eol {
		if locked.EOL.Present {
			return e.abort(&st, fmt.Errorf("install: edge claimed on %v: %w", locked.Addr, ErrRestart), locked, nil)
		}
		return e.C.Batch([]fabric.Op{
			{Kind: fabric.Write, Addr: locked.EOLAddr(), Data: leBytes(slot.Encode())},
			e.UnlockOp(locked),
		})
	}
	slot.KeyByte = key[int(locked.Hdr.Depth)]
	if _, _, ok := locked.Child(slot.KeyByte); ok {
		return e.abort(&st, fmt.Errorf("install: edge claimed on %v: %w", locked.Addr, ErrRestart), locked, nil)
	}
	idx, ok := locked.FreeSlot(slot.KeyByte)
	if !ok {
		return e.abort(&st, fmt.Errorf("install: node %v filled up: %w", locked.Addr, ErrRestart), locked, nil)
	}
	ops := []fabric.Op{{Kind: fabric.Write, Addr: locked.SlotAddr(idx), Data: leBytes(slot.Encode())}}
	if locked.Hdr.Type == wire.Node48 {
		ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: locked.IndexAddr(slot.KeyByte), Data: []byte{uint8(idx + 1)}})
	}
	ops = append(ops, e.UnlockOp(locked))
	return e.C.Batch(ops)
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
// of the full node n absorbs the new key's slot, the parent is repointed,
// the hash table is updated through the publisher, and the original is
// invalidated so that readers holding stale pointers retry. The copy is
// built from the descent's unlocked image and written, with the new leaf,
// in the batch that locks both nodes; the locked image must then match it.
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
	grown := n.Grown()
	grown.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: key[n.Hdr.Depth], Addr: leafAddr})
	if err := e.reserveNode(&st, grown, prefix); err != nil {
		e.abandon(&st)
		return err
	}
	st.stageNode(grown)
	e.pubs = append(e.pubs[:0], Publication{Prefix: prefix, Node: grown, Old: n})
	pub, err := e.plan(&st, h, e.pubs)
	if err != nil {
		return err
	}
	locked, lockedParent, err := e.lockNodes(n, parent, &st)
	if err != nil {
		return err
	}
	if !sameImage(locked, n) {
		return e.abort(&st, fmt.Errorf("grow: node %v changed: %w", locked.Addr, ErrRestart), locked, lockedParent)
	}
	edge := key[lockedParent.Hdr.Depth]
	ps, idx, ok := lockedParent.Child(edge)
	if !ok || ps.Addr != locked.Addr {
		return e.abort(&st, fmt.Errorf("grow: parent slot moved on %v: %w", lockedParent.Addr, ErrRestart), locked, lockedParent)
	}
	newSlot := wire.Slot{Present: true, KeyByte: edge, ChildType: grown.Hdr.Type, Addr: grown.Addr}

	// Publish phase: parent slot → grown, hash entry → grown, original →
	// invalid. Abandoning this sequence midway would leave the retired
	// original valid yet reachable through its stale hash entry, and every
	// later jump-started descent would miss children only the grown copy
	// has (a permanent false absence). So once the parent slot is
	// verified, the publish runs to completion under its own backoff.
	if err := e.completeBatch([]fabric.Op{
		{Kind: fabric.Write, Addr: lockedParent.SlotAddr(idx), Data: leBytes(newSlot.Encode())},
		e.UnlockOp(lockedParent),
	}); err != nil {
		return err
	}
	if err := e.completeHook(pub.Publish); err != nil {
		return err
	}
	// Invalidation both retires the original and releases any waiters on
	// its lock into a retry (paper §III-C).
	return e.completeBatch([]fabric.Op{e.InvalidateOp(locked)})
}

// completeBatch drives one doorbell batch to completion. Only for use
// past an operation's commit point, where abandoning the batch would
// strand the structure mid-protocol. A timeout means every verb executed
// and only the completion was lost, so it counts as done and is never
// re-issued — re-issuing could clobber state the batch's own trailing
// unlock already handed to another client. A transient fault failed
// mid-batch without releasing anything (the unlock, when present, is the
// last verb), so re-issuing is safe. A batch a permanently killed node
// rejected executed no verb and never will (ErrNodeKilled wraps ErrNodeDown,
// so it has to be told apart first): the error goes back at once, still
// naming the node, so the layer above can fail the operation over instead of
// watching the budget die on "retries exhausted".
func (e *Engine) completeBatch(ops []fabric.Op) error {
	var bo *fabric.Backoff // started by the first fault: the clean path allocates nothing
	for {
		err := e.C.Batch(ops)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, fabric.ErrNodeKilled):
			return err
		case errors.Is(err, fabric.ErrTimeout):
			atomic.AddUint64(&e.stats.PublishRetries, 1)
			return nil
		case errors.Is(err, fabric.ErrTransient) || errors.Is(err, fabric.ErrNodeDown):
			atomic.AddUint64(&e.stats.PublishRetries, 1)
			if bo == nil {
				bo = e.Backoff()
			}
			if !bo.Wait() {
				return fmt.Errorf("%w: publish batch", ErrRetriesExhausted)
			}
		default:
			return err
		}
	}
}

// completeHook drives a side-structure publication (a hash-table insert
// or swap) to completion across fabric faults. By the time these hooks
// run, the new nodes are already reachable through the tree, and other
// clients' protocols rely on the publication eventually landing — a later
// type switch waits for the node's hash entry before swapping it, so an
// abandoned insert would wedge every grow of that node. The hooks are
// idempotent (the table insert returns early on an already-present entry),
// so re-execution is safe. A table on a permanently killed node is gone for
// good: that error is returned at once, like completeBatch's.
func (e *Engine) completeHook(run func() error) error {
	bo := e.Backoff()
	for {
		err := run()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, fabric.ErrNodeKilled):
			return err
		case errors.Is(err, fabric.ErrTransient) || errors.Is(err, fabric.ErrTimeout) ||
			errors.Is(err, fabric.ErrNodeDown):
			atomic.AddUint64(&e.stats.PublishRetries, 1)
			if !bo.Wait() {
				return fmt.Errorf("%w: hook publication", ErrRetriesExhausted)
			}
		default:
			return err
		}
	}
}

// convertLeaf replaces a leaf edge of n by a chain of inner nodes covering
// the common prefix of the existing leaf's key and the new key, ending in
// a node that holds both. Chains longer than one node arise when the
// shared prefix exceeds the inline partial capacity. Everything the chain
// is made of — n's depth, the old leaf's key and address — was read by the
// descent, so the new leaf and the whole chain are written in the lock
// batch; under the lock only the slot still naming the old leaf is checked.
func (e *Engine) convertLeaf(n *Node, key, value []byte, oldLeaf *Leaf, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	depth := int(n.Hdr.Depth)
	edge := key[depth]
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
	bottom := NewNode(e.freshType(), key[:cp], min(cp-(depth+1), wire.MaxPartial))
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
		upper := NewNode(e.freshType(), key[:childBase-1], min(childBase-1-(depth+1), wire.MaxPartial))
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
		st.stageNode(node)
	}
	pub, err := e.plan(&st, h, pubs)
	if err != nil {
		return err
	}
	locked, _, err := e.lockNodes(n, nil, &st)
	if err != nil {
		return err
	}
	ps, idx, ok := locked.Child(edge)
	if !ok || !ps.Leaf || ps.Addr != oldLeaf.Addr {
		return e.abort(&st, fmt.Errorf("convert: slot moved on %v: %w", locked.Addr, ErrRestart), locked, nil)
	}
	top := chain[len(chain)-1]
	newSlot := wire.Slot{Present: true, KeyByte: edge, ChildType: top.Hdr.Type, Addr: top.Addr}
	// The swing is the commit point; it and the hash publications below
	// must land even across faults, or a later type switch of a chain node
	// would wait forever for its hash entry.
	if err := e.completeBatch([]fabric.Op{
		{Kind: fabric.Write, Addr: locked.SlotAddr(idx), Data: leBytes(newSlot.Encode())},
		e.UnlockOp(locked),
	}); err != nil {
		return err
	}
	return e.completeHook(pub.Publish)
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
	mid := NewNode(e.freshType(), key[:splitAt], splitAt-(int(parent.Hdr.Depth)+1))
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
	st.stageNode(mid)
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
	edge := key[lockedParent.Hdr.Depth]
	ps, idx, ok := lockedParent.Child(edge)
	if !ok || ps.Leaf || ps.Addr != lockedChild.Addr {
		return e.abort(&st, fmt.Errorf("split: parent slot moved on %v: %w", lockedParent.Addr, ErrRestart), lockedChild, lockedParent)
	}

	// Shrink the child's partial: header + partial bytes live in the first
	// 32 bytes (one 64-byte line), so a single WRITE replaces them
	// atomically for concurrent readers; it also releases the child lock.
	newHdr := lockedChild.Hdr
	newHdr.Status = wire.StatusIdle
	newHdr.PartialLen = uint8(len(lockedChild.Partial) - m - 1)
	var head [wire.SlotBase]byte
	binary.LittleEndian.PutUint64(head[wire.HeaderOff:], newHdr.Encode())
	binary.LittleEndian.PutUint64(head[wire.EOLSlotOff:], lockedChild.EOL.Encode())
	copy(head[wire.PartialOff:], lockedChild.Partial[m+1:])
	// The head write is the commit point: once the child's partial has
	// shrunk, descents through the old parent slot fail the prefix-hash
	// check until mid is published, so the rest of the sequence must land
	// even across faults.
	if err := e.completeBatch([]fabric.Op{
		{Kind: fabric.Write, Addr: lockedChild.Addr, Data: head[:]},
	}); err != nil {
		return err
	}

	// Publish the new parent and release the old one.
	newSlot := wire.Slot{Present: true, KeyByte: edge, ChildType: mid.Hdr.Type, Addr: mid.Addr}
	if err := e.completeBatch([]fabric.Op{
		{Kind: fabric.Write, Addr: lockedParent.SlotAddr(idx), Data: leBytes(newSlot.Encode())},
		e.UnlockOp(lockedParent),
	}); err != nil {
		return err
	}
	return e.completeHook(pub.Publish)
}

// updateLeaf applies the paper's update protocol (§III-C, §IV Update):
// in-place with the checksum scheme when the new value fits the leaf's
// 64-byte units, out-of-place (new leaf, repointed slot, invalidated old)
// otherwise.
func (e *Engine) updateLeaf(n *Node, leaf *Leaf, key, value []byte, eol bool, h Hooks) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	if wire.LeafSize(len(leaf.Key), len(value)) <= uint64(leaf.Units)*wire.LeafUnit {
		if err := e.updateLeafInPlace(leaf, value); err != nil {
			return err
		}
		h.UpdatedLeaf(key, leaf.Addr, leaf.Units)
		return nil
	}
	// Out-of-place: write the replacement (riding the lock batch), swing the
	// pointer under the node lock, retire the old leaf so in-flight readers
	// retry.
	st := e.stage()
	newAddr, err := e.stageLeaf(&st, key, value)
	if err != nil {
		return err
	}
	locked, _, err := e.lockNodes(n, nil, &st)
	if err != nil {
		return err
	}
	var slotAddr [1]fabric.Op
	newSlot := wire.Slot{Present: true, Leaf: true, Addr: newAddr}
	if eol {
		if !locked.EOL.Present || locked.EOL.Addr != leaf.Addr {
			return e.abort(&st, fmt.Errorf("update: EOL moved on %v: %w", locked.Addr, ErrRestart), locked, nil)
		}
		slotAddr[0] = fabric.Op{Kind: fabric.Write, Addr: locked.EOLAddr(), Data: leBytes(newSlot.Encode())}
	} else {
		ps, idx, ok := locked.Child(key[int(locked.Hdr.Depth)])
		if !ok || ps.Addr != leaf.Addr {
			return e.abort(&st, fmt.Errorf("update: slot moved on %v: %w", locked.Addr, ErrRestart), locked, nil)
		}
		newSlot.KeyByte = ps.KeyByte
		slotAddr[0] = fabric.Op{Kind: fabric.Write, Addr: locked.SlotAddr(idx), Data: leBytes(newSlot.Encode())}
	}
	// Commit batch: swing the slot, retire the old leaf, release the lock —
	// all in one doorbell. Retiring in the SAME batch (not a follow-up round
	// trip) matters for the CN-side leaf-address cache: a timed-out batch
	// executes fully, so a fault here can no longer leave the old leaf
	// checksum-valid and Idle at an address other compute nodes still have
	// cached — an orphan a speculative read would wrongly trust.
	oldHdr := wire.LeafHeader{
		Status: wire.StatusInvalid,
		Units:  leaf.Units,
		KeyLen: uint16(len(leaf.Key)),
		ValLen: uint32(len(leaf.Value)),
	}
	err = e.C.Batch([]fabric.Op{
		slotAddr[0],
		{Kind: fabric.Write, Addr: leaf.Addr, Data: leBytes(oldHdr.Encode())},
		e.UnlockOp(locked),
	})
	if err != nil {
		// A transient fault truncates the batch at a random verb, so the
		// swing may have landed without the retirement. Probe the slot: if
		// it no longer names the old leaf, the swing (or a competing
		// writer's) is live and retiring the old leaf is required — and
		// idempotent if someone else already did. The repair runs on the
		// same faulty fabric, so it is driven to completion like a
		// publication: were it abandoned, the restarted put would find the
		// key at the new leaf and acknowledge with the old one still Idle.
		_ = e.completeHook(func() error {
			word, rerr := e.C.ReadUint64(slotAddr[0].Addr)
			if rerr != nil {
				return rerr
			}
			if s := wire.DecodeSlot(word); !s.Present || !s.Leaf || s.Addr != leaf.Addr {
				if ierr := e.invalidateLeaf(leaf); ierr != nil {
					return ierr
				}
				atomic.AddUint64(&e.stats.LeafRetireRepairs, 1)
			}
			return nil
		})
		return err
	}
	h.UpdatedLeaf(key, newAddr, uint8(wire.LeafSize(len(key), len(value))/wire.LeafUnit))
	return nil
}

// updateLeafInPlace is the checksum-based single-WRITE update (§III-C):
// lock the leaf with one CAS on its header word, then write the whole new
// image — new value, new checksum, Idle status — in one WRITE that doubles
// as the lock release (WriteLockedLeaf). A lock that never clears (its
// holder crashed before the WRITE; the old image is intact underneath) is
// broken after a full lease of watching, like ReadLeaf does.
func (e *Engine) updateLeafInPlace(leaf *Leaf, value []byte) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	l := lockOf(leaf)
	var bo *fabric.Backoff // started by the first lost attempt
	var watching uint64
	for {
		// A lost attempt leaves the observed header in l.Seen, and the next
		// one expects its Idle form: a concurrent in-place update that
		// changed the value length is adopted.
		if err := e.TryLeafLock(&l); err != nil {
			return err
		}
		if l.Held {
			return e.WriteLockedLeaf(&l, leaf.Key, value)
		}
		if bo == nil {
			bo = e.Backoff()
		}
		switch wire.DecodeLeafHeader(l.Seen).Status {
		case wire.StatusInvalid:
			return fmt.Errorf("update: leaf %v invalidated: %w", leaf.Addr, ErrRestart)
		case wire.StatusLocked:
			if l.Seen != watching {
				watching = l.Seen
				bo.ResetWatch()
			} else if bo.WaitedPs() >= defaultLeasePs {
				// Stuck lock: restore Idle over the intact old image.
				if broke, err := e.C.CompareSwap(leaf.Addr, l.Seen, wire.WithStatus(l.Seen, wire.StatusIdle)); err != nil {
					return err
				} else if broke == l.Seen {
					atomic.AddUint64(&e.stats.LeafLockBreaks, 1)
				}
				watching = 0
				bo.ResetWatch()
			}
		}
		if !bo.Wait() {
			return fmt.Errorf("%w: leaf lock at %v", ErrRetriesExhausted, leaf.Addr)
		}
	}
}

// invalidateLeaf retires a leaf so readers that still hold its address
// restart their operation. The header keeps the lengths the leaf was read
// with, so a reader that decodes it sees a checksum-consistent Invalid
// image.
func (e *Engine) invalidateLeaf(leaf *Leaf) error {
	defer e.C.SetStage(e.C.SetStage(fabric.StageLeafWrite))
	hdr := wire.LeafHeader{
		Status: wire.StatusInvalid,
		Units:  leaf.Units,
		KeyLen: uint16(len(leaf.Key)),
		ValLen: uint32(len(leaf.Value)),
	}
	return e.C.WriteUint64(leaf.Addr, hdr.Encode())
}

// DeleteFrom removes key, reporting whether it was present (paper §IV
// Delete: invalidate the leaf, then clear the parent slot).
func (e *Engine) DeleteFrom(start *Node, key []byte, h Hooks) (bool, error) {
	n := start
	for hop := 0; hop < wire.MaxDepth+2; hop++ {
		if n.Hdr.Status == wire.StatusInvalid {
			return false, fmt.Errorf("delete: node %v invalid: %w", n.Addr, ErrRestart)
		}
		match, inconsistent := OnPath(n, key)
		if inconsistent {
			return false, fmt.Errorf("delete: node %v off path: %w", n.Addr, ErrRestart)
		}
		if !match {
			return false, nil
		}
		depth := int(n.Hdr.Depth)
		h.SawNode(key[:depth], n)
		eol := len(key) == depth
		var slot wire.Slot
		if eol {
			slot = n.EOL
			if !slot.Present {
				return false, nil
			}
		} else {
			var ok bool
			slot, _, ok = n.Child(key[depth])
			if !ok {
				return false, nil
			}
		}
		if !slot.Leaf {
			child, err := e.ReadNode(slot.Addr, slot.ChildType)
			if err != nil {
				return false, err
			}
			n = child
			continue
		}
		leaf, err := e.ReadLeaf(slot.Addr)
		if err != nil {
			return false, err
		}
		if leaf.Status == wire.StatusInvalid {
			// Residue of an interrupted delete (see completeDelete): finish
			// the clear. Either way the key is already deleted.
			cleared, cerr := e.completeDelete(n, eol, slot.KeyByte, leaf.Addr)
			if cerr != nil {
				return false, cerr
			}
			if cleared {
				return false, nil
			}
			return false, fmt.Errorf("delete: leaf %v invalid: %w", leaf.Addr, ErrRestart)
		}
		if !bytes.Equal(leaf.Key, key) {
			return false, nil
		}
		locked, err := e.lockVerified(n)
		if err != nil {
			return false, err
		}
		var clearAddr fabric.Op
		if eol {
			if !locked.EOL.Present || locked.EOL.Addr != leaf.Addr {
				return false, e.abort(nil, fmt.Errorf("delete: EOL moved on %v: %w", locked.Addr, ErrRestart), locked, nil)
			}
			clearAddr = fabric.Op{Kind: fabric.Write, Addr: locked.EOLAddr(), Data: leBytes(0)}
		} else {
			ps, idx, ok := locked.Child(key[depth])
			if !ok || ps.Addr != leaf.Addr {
				return false, e.abort(nil, fmt.Errorf("delete: slot moved on %v: %w", locked.Addr, ErrRestart), locked, nil)
			}
			clearAddr = fabric.Op{Kind: fabric.Write, Addr: locked.SlotAddr(idx), Data: leBytes(0)}
		}
		if err := e.invalidateLeaf(leaf); err != nil {
			return false, err
		}
		ops := []fabric.Op{clearAddr}
		if !eol && locked.Hdr.Type == wire.Node48 {
			ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: locked.IndexAddr(key[depth]), Data: []byte{0}})
		}
		ops = append(ops, e.UnlockOp(locked))
		// The invalidation above was the commit point; drive the clear to
		// completion so the slot does not linger pointing at a dead leaf
		// (completeDelete repairs that state, but only when a descent
		// happens to revisit this edge).
		prevStage := e.C.SetStage(fabric.StageInstall)
		err = e.completeBatch(ops)
		e.C.SetStage(prevStage)
		if err != nil {
			return false, err
		}
		return true, nil
	}
	return false, fmt.Errorf("%w: descent exceeded max depth", ErrRetriesExhausted)
}

// completeDelete finishes an interrupted delete on behalf of whoever
// started it. A slot that still points at an invalidated leaf can only be
// the residue of a delete that faulted between its commit point (the leaf
// invalidation) and the slot clear: out-of-place updates repoint the slot
// before retiring the old leaf, so under the node lock the pairing is
// unambiguous. Clearing the slot here unblocks every descent through this
// edge — without the repair, the tree answers ErrRestart on this key
// forever. The edge is n's EOL slot or the child slot for byte edge. Reports
// whether it cleared the slot; false means the edge moved on and the caller
// should restart its descent.
func (e *Engine) completeDelete(n *Node, eol bool, edge byte, leafAddr mem.Addr) (bool, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	locked, err := e.lockVerified(n)
	if err != nil {
		return false, err
	}
	var ops []fabric.Op
	if eol {
		if locked.EOL.Present && locked.EOL.Leaf && locked.EOL.Addr == leafAddr {
			ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: locked.EOLAddr(), Data: leBytes(0)})
		}
	} else if ps, idx, ok := locked.Child(edge); ok && ps.Leaf && ps.Addr == leafAddr {
		ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: locked.SlotAddr(idx), Data: leBytes(0)})
		if locked.Hdr.Type == wire.Node48 {
			ops = append(ops, fabric.Op{Kind: fabric.Write, Addr: locked.IndexAddr(edge), Data: []byte{0}})
		}
	}
	cleared := len(ops) > 0
	ops = append(ops, e.UnlockOp(locked))
	if err := e.C.Batch(ops); err != nil {
		return false, err
	}
	if cleared {
		atomic.AddUint64(&e.stats.DeleteRepairs, 1)
	}
	return cleared, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
