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
	depth := int(locked.Hdr.Depth)
	if depth > len(key) {
		// Restructured past this key since the walk snapshot.
		return false, e.abort(nil, fmt.Errorf("relocate: node %v outgrew key: %w", locked.Addr, ErrRestart), locked, nil)
	}
	eol := len(key) == depth
	var slot wire.Slot
	var idx int
	if eol {
		slot = locked.EOL
	} else {
		var ok bool
		if slot, idx, ok = locked.Child(key[depth]); !ok {
			slot = wire.Slot{}
		}
	}
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
	// Re-read the image under the lock: it is stable now (writers CAS the
	// header before touching bytes, and we hold it).
	buf := e.GrabBuf(uint64(leaf.Units) * wire.LeafUnit)
	if err := e.C.Read(slot.Addr, buf); err != nil {
		e.ReleaseBuf(buf)
		if lerr := e.UnlockLeaf(&ll); lerr != nil {
			return false, lerr
		}
		return false, e.abort(nil, err, locked, nil)
	}
	k, v, _, ok := wire.DecodeLeaf(buf)
	if !ok || !bytes.Equal(k, key) {
		e.ReleaseBuf(buf)
		if lerr := e.UnlockLeaf(&ll); lerr != nil {
			return false, lerr
		}
		return false, e.abort(nil, fmt.Errorf("relocate: leaf %v unstable under lock: %w", slot.Addr, ErrRestart), locked, nil)
	}
	img := wire.EncodeLeaf(wire.StatusIdle, k, v)
	e.ReleaseBuf(buf)
	newAddr, err := e.Alloc.Alloc(target, mem.ClassLeaf, uint64(len(img)))
	if err == nil {
		err = e.C.Write(newAddr, img)
	}
	if err != nil {
		if lerr := e.UnlockLeaf(&ll); lerr != nil {
			return false, lerr
		}
		return false, e.abort(nil, err, locked, nil)
	}
	newSlot := wire.Slot{Present: true, Leaf: true, Addr: newAddr}
	var swing fabric.Op
	if eol {
		swing = fabric.Op{Kind: fabric.Write, Addr: locked.EOLAddr(), Data: leBytes(newSlot.Encode())}
	} else {
		newSlot.KeyByte = slot.KeyByte
		swing = fabric.Op{Kind: fabric.Write, Addr: locked.SlotAddr(idx), Data: leBytes(newSlot.Encode())}
	}
	oldHdr := wire.LeafHeader{
		Status: wire.StatusInvalid,
		Units:  leaf.Units,
		KeyLen: uint16(len(k)),
		ValLen: uint32(len(v)),
	}
	// Commit: swing + retirement + unlock in one doorbell. The retirement
	// releases the leaf lock too (Invalid supersedes Locked); readers and
	// remote leaf-address caches holding the old address see Invalid and
	// refute/unlearn through their usual trust-but-verify paths.
	if err := e.completeBatch([]fabric.Op{
		swing,
		{Kind: fabric.Write, Addr: slot.Addr, Data: leBytes(oldHdr.Encode())},
		e.UnlockOp(locked),
	}); err != nil {
		return false, err
	}
	return true, nil
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
// both nodes locked, parent slot verified, swing + parent unlock in one
// batch, hook to completion, then invalidation — the original's lease is
// held until after the hook lands, so no competing type switch can read
// the old address in between.
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
	edge := prefix[lockedParent.Hdr.Depth]
	ps, idx, ok := lockedParent.Child(edge)
	if !ok || ps.Leaf || ps.Addr != lockedChild.Addr {
		return nil, false, e.abort(nil, fmt.Errorf("relocate: parent slot moved on %v: %w", lockedParent.Addr, ErrRestart), lockedParent, lockedChild)
	}

	// Clone the locked image at the same type: fresh lease, Idle status.
	clone := &Node{
		Hdr:     lockedChild.Hdr,
		EOL:     lockedChild.EOL,
		Partial: append([]byte(nil), lockedChild.Partial...),
		Slots:   append([]uint64(nil), lockedChild.Slots...),
	}
	if lockedChild.Index != nil {
		clone.Index = append([]byte(nil), lockedChild.Index...)
	}
	clone.Hdr.Status = wire.StatusIdle
	clone.HdrWord = clone.Hdr.Encode()
	clone.LeaseWord = 0
	addr, err := e.Alloc.Alloc(target, mem.ClassInner, e.nodeAllocSize(clone.Hdr.Type))
	if err == nil {
		clone.Addr = addr
		err = e.C.Write(addr, clone.Encode())
	}
	if err != nil {
		return nil, false, e.abort(nil, err, lockedParent, lockedChild)
	}
	newSlot := wire.Slot{Present: true, KeyByte: edge, ChildType: clone.Hdr.Type, Addr: clone.Addr}
	// Commit point: from here the publication runs to completion, exactly
	// like a type switch — abandoning it midway would leave the retired
	// original reachable through its stale hash entry.
	if err := e.completeBatch([]fabric.Op{
		{Kind: fabric.Write, Addr: lockedParent.SlotAddr(idx), Data: leBytes(newSlot.Encode())},
		e.UnlockOp(lockedParent),
	}); err != nil {
		return nil, false, err
	}
	if err := e.completeHook(func() error { return publish(lockedChild, clone) }); err != nil {
		return nil, false, err
	}
	if err := e.completeBatch([]fabric.Op{e.InvalidateOp(lockedChild)}); err != nil {
		return nil, false, err
	}
	return clone, true, nil
}
