// Online relocation primitives for elastic membership: copy a leaf or an
// inner node to a new owning memory node under the engine's ordinary
// lease-lock/status-field protocols, while concurrent clients keep
// serving. The migrator (internal/core) walks the tree and calls these
// for every object whose ring owner changed; everything here is
// idempotent at the sweep level — a relocation that loses a race simply
// reports a restart and the next sweep retries.
package rart

import (
	"bytes"
	"fmt"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// RelocateLeaf moves the leaf reached from node n along key to the target
// memory node: copy the image to a fresh allocation on target, swing n's
// slot, retire the old leaf — slot swing, retirement and node unlock in
// ONE doorbell batch, exactly like an out-of-place update, so a fault
// cannot leave the old leaf Idle at an address other CNs still have
// cached. Reports whether a copy actually moved.
//
// Concurrency: the node lease serializes the slot against installs,
// deletes and out-of-place updates, but in-place updates touch only the
// leaf header, so the image is re-read UNDER the leaf header lock — an
// equal-length in-place update between the first read and the lock CAS
// would otherwise be silently dropped by copying the stale snapshot.
// Lost races surface as ErrRestart for the sweep to retry.
func (e *Engine) RelocateLeaf(n *Node, key []byte, target mem.NodeID) (bool, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	locked, err := e.lockVerified(n)
	if err != nil {
		return false, err
	}
	if int(locked.Hdr.Depth) > len(key) {
		// Restructured past this key since the walk snapshot.
		return false, e.abort(nil, fmt.Errorf("relocate: node %v outgrew key: %w", locked.Addr, ErrRestart), locked, nil)
	}
	ed := locked.edgeOf(key)
	slot := ed.slot
	if !slot.Present || !slot.Leaf || slot.Addr.Node() == target {
		// Deleted, converted to a subtree, or already home: nothing to move.
		return false, e.abort(nil, nil, locked, nil)
	}
	leaf, err := e.ReadLeaf(slot.Addr)
	if err != nil {
		return false, e.abort(nil, err, locked, nil)
	}
	if leaf.Status == wire.StatusInvalid || !bytes.Equal(leaf.Key, key) {
		// An interrupted delete (completeDelete's business) or a collided
		// edge; either way not this key's leaf to move.
		return false, e.abort(nil, nil, locked, nil)
	}
	// Lock the leaf header so a concurrent in-place update cannot slip
	// between our snapshot and the copy.
	ll := lockOf(leaf)
	if err := e.TryLeafLock(&ll); err != nil {
		return false, e.abort(nil, err, locked, nil)
	}
	if !ll.Held {
		// A writer beat us to the leaf; retry on a later sweep.
		return false, e.abort(nil, fmt.Errorf("relocate: leaf %v contended: %w", slot.Addr, ErrRestart), locked, nil)
	}
	newAddr, err := e.copyLockedLeaf(leaf, target)
	if err != nil {
		if lerr := e.UnlockLeaf(&ll); lerr != nil {
			return false, lerr
		}
		return false, e.abort(nil, err, locked, nil)
	}
	// Commit: swing + retirement + unlock in one doorbell. The retirement
	// (the lengths are still leaf's: the header did not change before our
	// lock) releases the leaf lock too — Invalid supersedes Locked; readers
	// and remote leaf-address caches holding the old address see Invalid and
	// refute/unlearn through their usual trust-but-verify paths.
	newSlot := wire.Slot{Present: true, Leaf: true, KeyByte: ed.b, Addr: newAddr}
	if err := e.completeBatch(e.thenUnlock(append(e.slotWrite(locked, ed, newSlot.Encode()), e.retireOp(leaf)), locked)); err != nil {
		return false, err
	}
	return true, nil
}

// copyLockedLeaf re-reads leaf under its header lock, which the caller holds
// — the image is stable now: writers CAS the header before touching bytes —
// and writes it to a fresh allocation on target.
func (e *Engine) copyLockedLeaf(leaf *Leaf, target mem.NodeID) (mem.Addr, error) {
	buf := e.arena.buf(uint64(leaf.Units) * wire.LeafUnit)
	if err := e.C.Read(leaf.Addr, buf); err != nil {
		return 0, err
	}
	k, v, _, ok := wire.DecodeLeaf(buf)
	if !ok || !bytes.Equal(k, leaf.Key) {
		return 0, fmt.Errorf("relocate: leaf %v unstable under lock: %w", leaf.Addr, ErrRestart)
	}
	img := e.encodeLeaf(k, v)
	addr, err := e.Alloc.Alloc(target, mem.ClassLeaf, uint64(len(img)))
	if err == nil {
		err = e.C.Write(addr, img)
	}
	return addr, err
}

// RelocateNode copies inner node child (whose full prefix is prefix and
// whose parent slot lives in parent) onto the target memory node,
// repoints the parent, publishes the address change through publish (the
// same idempotent hook a type switch uses — it must move the node's hash
// entry to the copy), and retires the original so readers holding stale
// pointers restart. Returns the relocated copy for the caller to continue
// its walk in, and whether a move happened.
//
// The protocol is the grow-and-install publication with the type kept:
// both nodes locked, parent slot verified, then replaceNode.
func (e *Engine) RelocateNode(parent, child *Node, prefix []byte, target mem.NodeID, publish func(old, moved *Node) error) (*Node, bool, error) {
	if child.Addr.Node() == target {
		return nil, false, nil
	}
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	lockedChild, lockedParent, err := e.lockNodes(child, parent, nil)
	if err != nil {
		return nil, false, err
	}
	if int(lockedParent.Hdr.Depth) >= len(prefix) {
		return nil, false, e.abort(nil, fmt.Errorf("relocate: parent %v outgrew prefix: %w", lockedParent.Addr, ErrRestart), lockedParent, lockedChild)
	}
	ed, err := e.confirmEdge(nil, "relocate", lockedParent, lockedChild, prefix, lockedChild.Addr)
	if err != nil {
		return nil, false, err
	}

	// Copy the locked image at the same type: fresh lease, Idle status. Neither
	// image changes again, so the copy shares the original's partial and slots.
	clone := one(&e.arena.nodes, *lockedChild)
	clone.Hdr.Status, clone.LeaseWord = wire.StatusIdle, 0
	clone.HdrWord = clone.Hdr.Encode()
	addr, err := e.Alloc.Alloc(target, mem.ClassInner, e.nodeSize(clone.Hdr.Type))
	if err == nil {
		clone.Addr = addr
		err = e.C.Write(addr, e.encodeNode(clone))
	}
	if err != nil {
		return nil, false, e.abort(nil, err, lockedParent, lockedChild)
	}
	// Commit point: from here the publication runs to completion, exactly
	// like a type switch.
	if err := e.replaceNode(lockedParent, ed, lockedChild, clone, hookPublisher{publish: func() error { return publish(lockedChild, clone) }}); err != nil {
		return nil, false, err
	}
	return clone, true, nil
}

// hookPublisher publishes through the caller's idempotent hook alone: nothing
// of it rides the write's batches.
type hookPublisher struct {
	NopPublisher
	publish func() error
}

func (p hookPublisher) Publish([]fabric.Op) error { return p.publish() }
