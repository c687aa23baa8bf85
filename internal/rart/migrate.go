// Online relocation primitives for elastic membership: copy a leaf or an
// inner node to a new owning memory node under the engine's ordinary locks —
// a leaf moves as an out-of-place update does (retire), a node as a type
// switch does (replaceNode) — while concurrent clients keep serving. The
// migrator (internal/core) walks the tree and calls these for every object
// whose ring owner changed; a relocation that loses a race reports a restart
// and a later sweep retries.
package rart

import (
	"bytes"
	"fmt"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// RelocateLeaf moves leaf, which a walk read on an edge of node n, to the
// target memory node, exactly as an out-of-place update replaces it: the
// leaf's lock and a READ of it behind the CAS ride n's lock batch, so no
// in-place update lands between the copy and the retirement, and one commit
// writes the copy, swings the slot to it and retires the leaf (retire).
// Reports whether a copy moved. A lost race — the leaf's header or the edge
// changed since the walk read them, the node restructured, the image behind
// the won CAS does not decode to leaf's key — is ErrRestart, for a later sweep
// to retry.
func (e *Engine) RelocateLeaf(n *Node, leaf *Leaf, target mem.NodeID) (bool, error) {
	if leaf.Addr.Node() == target {
		return false, nil
	}
	defer e.C.SetStage(e.C.SetStage(fabric.StagePublish))
	st := e.stage()
	st.retiring(leaf, e.arena.buf(uint64(leaf.Units)*wire.LeafUnit))
	locked, _, err := e.lockNodes(n, nil, &st)
	if err != nil {
		return false, err
	}
	ed, err := e.confirmEdge(&st, "relocate", locked, nil, leaf.Key, leaf.Addr)
	if err != nil {
		return false, err
	}
	k, v, _, ok := wire.DecodeLeaf(st.image)
	if !ok || !bytes.Equal(k, leaf.Key) {
		// The image behind the won CAS is torn: a releasing WRITE still lands.
		return false, e.abort(&st, fmt.Errorf("relocate: leaf %v unsettled under its lock: %w", leaf.Addr, ErrRestart), locked, nil)
	}
	img := e.encodeLeaf(k, v)
	addr, err := e.Alloc.Alloc(target, mem.ClassLeaf, uint64(len(img)))
	if err != nil {
		return false, e.abort(&st, err, locked, nil)
	}
	slot := wire.Slot{Present: true, Leaf: true, KeyByte: ed.b, Addr: addr}.Encode()
	if err := e.retire(&st, locked, ed, slot, fabric.Op{Kind: fabric.Write, Addr: addr, Data: img}); err != nil {
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
