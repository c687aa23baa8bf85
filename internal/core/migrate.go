// Online rebalancing for elastic membership (the migrator half of the
// epoch protocol in membership.go): while a transition is active — the
// current placement still carries its predecessor — MigrateSweep walks
// the tree and the anchor tables and moves every object whose ring owner
// changed onto its new home, using only the same one-sided lease-lock /
// status-field protocols as foreground writes. Serving never stops:
// lookups fall back to the previous epoch's tables for entries the sweep
// has not moved yet (locate.go), structural writes publish into the current
// epoch's table and retire the previous one's entry (ops.go typeSwitched),
// and leaf moves retire the old image so remote leaf-address caches refute
// and unlearn through their ordinary trust-but-verify path.
//
// Sweeps are idempotent: relocations that lose a race against foreground
// writers surface as restarts, are counted as Remaining, and retry on the
// next sweep. A sweep that finds nothing left to move — and hit no race —
// declares convergence and cuts the membership over, retiring the old
// epoch.
package core

import (
	"sync/atomic"

	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// MigrateReport summarizes one rebalancing sweep.
type MigrateReport struct {
	// Epoch is the placement epoch the sweep ran against.
	Epoch uint64
	// ScannedNodes / ScannedLeaves count tree objects visited.
	ScannedNodes  uint64
	ScannedLeaves uint64
	// MovedNodes / MovedLeaves count tree objects relocated to new owners.
	MovedNodes  uint64
	MovedLeaves uint64
	// AnchorsScanned / AnchorsCopied / AnchorsRemoved count anchor records
	// visited, re-replicated onto new targets, and retired from nodes that
	// left a key's replica set.
	AnchorsScanned uint64
	AnchorsCopied  uint64
	AnchorsRemoved uint64
	// Remaining counts objects the sweep could not settle (lost race,
	// unreachable node); they stay for the next sweep.
	Remaining uint64
	// Converged reports that this sweep found nothing left to move.
	Converged bool
	// CutOver reports that this sweep retired the previous epoch.
	CutOver bool
}

// MigrateSweep runs one online rebalancing pass over the current
// membership transition. With no transition active it reports immediate
// convergence. Convergence requires a fully clean sweep — zero moves and
// zero unsettled objects — because a sweep that moved anything may have
// raced a concurrent writer publishing into the old epoch; only a sweep
// that proves the placement already settled is allowed to cut over.
func (c *Client) MigrateSweep() (MigrateReport, error) {
	c.eng.Rewind() // the walk below holds every node on its path: no rewind inside it
	p := c.members.Current()
	rep := MigrateReport{Epoch: p.Epoch}
	if p.Prev == nil {
		rep.Converged = true
		return rep, nil
	}
	root, err := c.readRoot()
	if err != nil {
		return rep, err
	}
	c.migrateVisit(p, root, nil, &rep)
	if c.shared.FT != nil {
		c.migrateAnchors(p, &rep)
	}
	rep.Converged = rep.MovedNodes+rep.MovedLeaves+rep.AnchorsCopied+rep.AnchorsRemoved == 0 &&
		rep.Remaining == 0
	if rep.Converged {
		if _, ok := c.members.Cutover(); ok {
			rep.CutOver = true
			atomic.AddUint64(&c.stats.Cutovers, 1)
		}
	}
	return rep, nil
}

// migrateVisit walks one node's children in the snapshot read by the
// caller and relocates every child whose ring owner changed under the
// transition's target placement. prefix is the node's full prefix minus
// its partial (the scanner's convention). The node itself is never moved
// here — each node is moved by the visit of its PARENT, which holds the
// parent slot that must swing; the root is therefore never relocated,
// matching its pinned-forever contract.
//
// Failures are contained: any error on a child counts it as Remaining and
// skips its subtree, so one contended path cannot abort the sweep.
func (c *Client) migrateVisit(p *Placement, n *rart.Node, prefix []byte, rep *MigrateReport) {
	if n.Hdr.Status == wire.StatusInvalid {
		// Retired mid-sweep (type switch or a competing migrator); its
		// replacement is reachable through a later sweep's fresh walk.
		rep.Remaining++
		return
	}
	rep.ScannedNodes++
	full := append(append([]byte(nil), prefix...), n.Partial...)

	if n.EOL.Present && n.EOL.Leaf {
		rep.ScannedLeaves++
		if target := c.placeIn(p, full); n.EOL.Addr.Node() != target {
			moved, err := c.eng.RelocateLeaf(n, full, target)
			if err != nil {
				rep.Remaining++
			} else if moved {
				rep.MovedLeaves++
			}
		}
	}

	for _, sl := range n.Children() {
		if sl.Leaf {
			rep.ScannedLeaves++
			leaf, err := c.eng.ReadLeaf(sl.Addr)
			if err != nil {
				rep.Remaining++
				continue
			}
			if leaf.Status == wire.StatusInvalid {
				continue // interrupted delete; completeDelete's business
			}
			if target := c.placeIn(p, leaf.Key); sl.Addr.Node() != target {
				moved, err := c.eng.RelocateLeaf(n, leaf.Key, target)
				if err != nil {
					rep.Remaining++
				} else if moved {
					rep.MovedLeaves++
				}
			}
			continue
		}
		child, err := c.eng.ReadNode(sl.Addr, sl.ChildType)
		if err != nil {
			rep.Remaining++
			continue
		}
		stub := append(append([]byte(nil), full...), sl.KeyByte)
		childFull := append(append([]byte(nil), stub...), child.Partial...)
		if target := c.placeIn(p, childFull); sl.Addr.Node() != target {
			// The node's bytes and its hash entry share a home keyed by its
			// full prefix; RelocateNode moves the bytes and reuses the
			// type-switch hook to move the entry cur/prev-aware.
			moved, did, err := c.eng.RelocateNode(n, child, childFull, target,
				func(old, moved *rart.Node) error {
					return c.typeSwitched(c.viewFor(childFull), nil, nil, childFull, old, moved)
				})
			if err != nil {
				rep.Remaining++
				continue
			}
			if did {
				rep.MovedNodes++
				child = moved
			}
		}
		c.migrateVisit(p, child, stub, rep)
	}
}

// migrateAnchors rebalances the replicated anchor store onto the target
// ring: every live node's table is walked (the union of old and new
// membership, so a draining node's records are carried off), each record
// is LWW-republished to the key's new replica targets, and records on
// nodes that left the key's replica set are retired once every new target
// confirmed the copy — remove-after-copy, so the replica count never dips
// below the invariant mid-transition.
func (c *Client) migrateAnchors(p *Placement, rep *MigrateReport) {
	for _, src := range unionNodes(unionNodes(nil, p.Prev.Ring.Nodes()), p.Ring.Nodes()) {
		if !c.shared.FT.Health.Alive(src) {
			continue
		}
		t, err := c.anchors.sweep(p, src, true)
		rep.AnchorsScanned += t.scanned
		rep.AnchorsCopied += t.copied
		rep.AnchorsRemoved += t.removed
		rep.Remaining += t.failed + t.unread
		if err != nil {
			// The source became unreachable mid-walk; its records stay for
			// the next sweep, which cannot then report convergence.
			rep.Remaining++
		}
	}
}
