// Elastic memory-node membership: epoch-versioned placement snapshots.
//
// The cluster's placement state — the consistent-hash ring plus the
// per-node hash tables it points into — was frozen at bootstrap. Elastic
// membership wraps it in an immutable Placement snapshot carrying an
// epoch number, published through one atomic pointer. Adding or draining
// a memory node derives a NEW snapshot (rings are immutable; see
// consistenthash.WithNode/WithoutNode) whose Prev field keeps the old
// epoch readable: during the transition, readers consult the current
// placement first and fall back to the previous one, so every key stays
// findable while the migrator copies state range by range. Once a
// migration sweep reports nothing left to move, Cutover retires the old
// epoch and the transition window closes.
//
// Invariants:
//
//   - At most one transition is active at a time (Prev chains never grow
//     past length one); BeginChange rejects overlap with
//     ErrTransitionActive.
//   - A Placement is never mutated after publication. Clients snapshot it
//     once per decision (Current()), so a single operation sees one
//     coherent (ring, tables) pair even if a cutover lands mid-flight.
//   - Cutover only strips Prev; the current epoch's ring and tables are
//     untouched, so a racing reader that loaded the pre-cutover snapshot
//     keeps working — it merely probes the old epoch's tables and finds
//     them empty of migrated entries.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
)

// ErrTransitionActive reports an AddMemoryNode/DrainMemoryNode attempted
// while a previous membership change has not cut over yet. Finish the
// running migration (MigrateSweep until converged) first.
var ErrTransitionActive = errors.New("core: membership transition already active")

// Placement is one epoch's immutable placement snapshot: which memory
// nodes exist, how keys map onto them, and where each node's inner-node
// hash table lives. (The replica layers' record tables are not per epoch:
// a node's table outlives its ring membership, see recordTables.)
type Placement struct {
	// Epoch numbers placements monotonically from 0 (bootstrap).
	Epoch uint64
	// Ring is this epoch's consistent-hash ring.
	Ring *consistenthash.Ring
	// Tables maps each member node to its inner-node hash table.
	Tables map[mem.NodeID]racehash.Table
	// Prev is the preceding epoch, non-nil only while its migration is in
	// flight. Readers fall back to it for state not yet moved.
	Prev *Placement
}

// Membership publishes the cluster's placement snapshots. One shared
// instance lives in Shared; all clients read it lock-free.
type Membership struct {
	cur atomic.Pointer[Placement]
}

// NewMembership wraps an initial placement (epoch 0, no transition).
func NewMembership(p *Placement) *Membership {
	m := &Membership{}
	m.cur.Store(p)
	return m
}

// Current returns the live placement snapshot. Callers must capture it
// once per decision rather than re-reading mid-operation.
func (m *Membership) Current() *Placement { return m.cur.Load() }

// Transitioning reports whether a membership change is mid-migration.
func (m *Membership) Transitioning() bool { return m.cur.Load().Prev != nil }

// BeginChange derives and publishes the next epoch. derive receives the
// current placement and returns the new one with Epoch and Prev unset —
// BeginChange fills both. It fails with ErrTransitionActive if the
// previous change has not cut over.
func (m *Membership) BeginChange(derive func(cur *Placement) (*Placement, error)) (*Placement, error) {
	for {
		cur := m.cur.Load()
		if cur.Prev != nil {
			return nil, ErrTransitionActive
		}
		next, err := derive(cur)
		if err != nil {
			return nil, err
		}
		next.Epoch = cur.Epoch + 1
		next.Prev = cur
		if m.cur.CompareAndSwap(cur, next) {
			return next, nil
		}
	}
}

// Cutover retires the previous epoch, ending the transition window. It
// returns the now-final placement and whether a transition was actually
// closed (false means there was nothing to cut over).
func (m *Membership) Cutover() (*Placement, bool) {
	for {
		cur := m.cur.Load()
		if cur.Prev == nil {
			return cur, false
		}
		final := *cur
		final.Prev = nil
		if m.cur.CompareAndSwap(cur, &final) {
			return &final, true
		}
	}
}

// BeginAddNode opens the transition that brings memory node id — already
// registered with the fabric via AddNode — into the placement: it
// bootstraps the node's inner-node hash table (and anchor table, under
// fault tolerance) sized like the original bootstrap's, then publishes a
// new epoch whose ring includes the node. The tree and anchor state that
// the new node now owns is moved by MigrateSweep; until a sweep converges
// and cuts over, reads fall back to the old owners.
func BeginAddNode(f *fabric.Fabric, sh Shared, id mem.NodeID, expectedKeys int) (*Placement, error) {
	cur := sh.Members.Current()
	if cur.Ring.Contains(id) {
		return nil, fmt.Errorf("core: node %d already a member", id)
	}
	alloc := mem.NewAllocator(f.Regions(), 0)
	members := len(cur.Ring.Nodes()) + 1
	joining := []mem.NodeID{id}
	tables, err := bootstrapTables(f, alloc, joining, expectedKeys/(4*members)+1)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap hash %w", err)
	}
	if sh.FT != nil {
		anchors, err := bootstrapTables(f, alloc, joining, expectedKeys*sh.FT.R/members+1)
		if err != nil {
			return nil, fmt.Errorf("core: bootstrap anchor %w", err)
		}
		sh.FT.records.extend(id, anchors[id])
	}
	return sh.Members.BeginChange(func(cur *Placement) (*Placement, error) {
		ring, err := cur.Ring.WithNode(id)
		if err != nil {
			return nil, err
		}
		return &Placement{Ring: ring, Tables: extendTables(cur.Tables, id, tables[id])}, nil
	})
}

// BeginDrainNode opens the transition that removes memory node id from
// the placement gracefully: the node stays alive and readable while
// MigrateSweep relocates everything it owns to the surviving members;
// only after convergence does the cutover stop routing to it. (Contrast
// with KillNode, the crash-failure path — see docs/failure-model.md.)
// The node hosting the pinned tree root cannot be drained.
func BeginDrainNode(sh Shared, id mem.NodeID) (*Placement, error) {
	if sh.Root.Node() == id {
		return nil, fmt.Errorf("core: node %d hosts the pinned tree root and cannot be drained", id)
	}
	return sh.Members.BeginChange(func(cur *Placement) (*Placement, error) {
		ring, err := cur.Ring.WithoutNode(id)
		if err != nil {
			return nil, err
		}
		// The drained node's tables stay reachable through Prev for the
		// duration of the migration and are empty by convergence.
		return &Placement{Ring: ring, Tables: dropTable(cur.Tables, id)}, nil
	})
}

func extendTables(m map[mem.NodeID]racehash.Table, id mem.NodeID, t racehash.Table) map[mem.NodeID]racehash.Table {
	out := make(map[mem.NodeID]racehash.Table, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	out[id] = t
	return out
}

func dropTable(m map[mem.NodeID]racehash.Table, id mem.NodeID) map[mem.NodeID]racehash.Table {
	out := make(map[mem.NodeID]racehash.Table, len(m))
	for k, v := range m {
		if k != id {
			out[k] = v
		}
	}
	return out
}
