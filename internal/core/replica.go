// MN fault tolerance: replicated anchor placement, health-gated failover
// and online anti-entropy repair.
//
// The tree and the inner-node hash table shard entries across MNs with no
// redundancy, so a permanently lost MN takes its slice of both with it.
// The fault-tolerance layer adds a replicated "anchor" store beside them:
// every acknowledged write also publishes an immutable anchor record —
// (key, value, version) — to the first R healthy memory nodes clockwise
// from the key on the consistent-hash ring, each node holding its replicas
// in a dedicated RACE-style table. Writes acknowledge only after the
// anchor publish completes, so:
//
//   - a read that hits a killed node on its tree path fails over to the
//     key's anchor replicas in one decision (the fabric health breaker
//     rejects suspect nodes locally, at zero virtual-time cost);
//   - killing any single MN of an R=2 placement loses no acknowledged
//     write: the surviving replica of every acked key is, by construction,
//     the first healthy successor at read time;
//   - a background repair sweep walks every live node's anchor table and
//     re-replicates entries whose replica set fell below R onto the next
//     healthy successors, returning the system to full replication while
//     CNs keep serving.
//
// Anchors are one instance of the replicated record store (records.go):
// immutable versioned records, last-writer-wins per replica (exact when a
// key has one writer, as the failover benchmark arranges; approximate under
// concurrent writers to the same key, like the tree itself). Nothing caches
// anchor addresses, so the store is unrouted. This file holds what is
// anchor-specific: health-aware placement, the partial-replica accounting
// of the write path, and the repair sweep's reporting.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// DefaultReplication is the replication factor the paper-scale clusters
// use: every anchor on two distinct MNs, surviving any single MN loss.
const DefaultReplication = 2

// FaultTolerance is the cluster-wide descriptor of the replication layer,
// created by BootstrapReplicated and shared read-only (its counters are
// atomic) by every client.
type FaultTolerance struct {
	// R is the replication factor: each anchor targets the first R healthy
	// distinct successors of its key on the ring (fewer when fewer healthy
	// nodes remain).
	R int
	// Health is the fabric's shared per-MN breaker table; placement skips
	// nodes it reports dead.
	Health *fabric.Health
	// records holds the per-MN anchor tables and the version counter.
	records *recordTables

	// underReplicated is the gauge the repair sweeper maintains: replica
	// deficits found by the latest sweep (0 once repair has converged).
	underReplicated uint64
	// repairSweeps / repairCopied accumulate across sweeps for metrics.
	repairSweeps uint64
	repairCopied uint64
}

// UnderReplicated returns the latest sweep's replica-deficit gauge.
func (ft *FaultTolerance) UnderReplicated() uint64 {
	return atomic.LoadUint64(&ft.underReplicated)
}

// RepairTotals returns the cumulative sweep count and copied-replica count.
func (ft *FaultTolerance) RepairTotals() (sweeps, copied uint64) {
	return atomic.LoadUint64(&ft.repairSweeps), atomic.LoadUint64(&ft.repairCopied)
}

// place returns the first healthy successor of key — the node that must
// hold every acknowledged key, and where new tree allocations and hash
// entries go so they avoid dead nodes.
func (ft *FaultTolerance) place(ring *consistenthash.Ring, key []byte) mem.NodeID {
	owners := ring.OwnersKey(key, len(ring.Nodes()))
	for _, o := range owners {
		if ft.Health.Alive(o) {
			return o
		}
	}
	return owners[0]
}

// anyDead reports whether any ring node is known permanently lost — the
// cluster's degraded mode, in which tree-"absent" answers are confirmed
// against the anchors (degraded writes are anchor-only).
func (ft *FaultTolerance) anyDead(ring *consistenthash.Ring) bool {
	for _, n := range ring.Nodes() {
		if !ft.Health.Alive(n) {
			return true
		}
	}
	return false
}

// BootstrapReplicated is Bootstrap plus the fault-tolerance layer: one
// anchor table per memory node (sized for the expected keys at replication
// factor r), the shared FaultTolerance descriptor, and health-breaker
// gating enabled on the fabric. r < 2 selects DefaultReplication.
func BootstrapReplicated(f *fabric.Fabric, ring *consistenthash.Ring, expectedKeys, r int) (Shared, error) {
	if r < 2 {
		r = DefaultReplication
	}
	sh, err := Bootstrap(f, ring, expectedKeys)
	if err != nil {
		return Shared{}, err
	}
	nodes := ring.Nodes()
	anchors, err := bootstrapTables(f, mem.NewAllocator(f.Regions(), 0), nodes, expectedKeys*r/len(nodes)+1)
	if err != nil {
		return Shared{}, fmt.Errorf("core: bootstrap anchor %w", err)
	}
	sh.FT = &FaultTolerance{R: r, Health: f.Health(), records: newRecordTables(anchors)}
	f.Health().EnableGating(true)
	return sh, nil
}

// anchorBegin begins the anchors' half of a write's acknowledgement before
// the write's tree write, and registers it as the fabric client's rider: the
// fan-out's read rounds — bucket pairs, heads — go out in the tree write's own
// doorbell batches, and nothing is written before the write commits
// (anchorArm). A put publishes to the key's replica set. A delete removes the
// key from it — mid-transition from the UNION of the new and old replica sets:
// a replica left behind on the previous epoch's targets would otherwise
// resurrect the key when the migration sweep LWW-copies it forward. No
// tombstones: a replica that was unreachable during the delete and later
// repairs from a stale peer can resurrect the key (documented in
// docs/failure-model.md). A no-op without anchors.
func (c *Client) anchorBegin(key, value []byte, remove bool) {
	if c.anchors != nil {
		p := c.members.Current()
		targets, _ := c.anchors.targets(p, key, remove)
		c.anchors.begin(targets, c.anchors.writeOp(key, value, remove, publishUpsert)).ride(p)
	}
}

// anchorArm readies the anchors' half once the write has committed and
// returns their store, for run: the fan-out anchorBegin began, when it is
// still this write's — its targets unmoved, whether the tree write committed
// or the write is served anchor-only (degradedPut) —, else one begun afresh
// (nothing was begun, or an epoch change or a target found dead moved the
// targets in between), whose read rounds then cost rounds of their own.
func (c *Client) anchorArm(key, value []byte, remove bool) *recordStore {
	if p := c.members.Current(); !c.anchors.begunUnder(p) {
		targets, _ := c.anchors.targets(p, key, remove)
		c.anchors.begin(targets, c.anchors.writeOp(key, value, remove, publishUpsert))
	}
	return c.anchors.arm()
}

// anchorDrop drops the fan-out anchorBegin began if the write never armed it:
// the write did not commit. Only reads rode; nothing was allocated or written.
func (c *Client) anchorDrop() {
	if c.anchors != nil {
		c.anchors.unride()
	}
}

// anchorSettle judges the anchors' half once it ran, publish-to-completion:
// the caller acknowledges only after it returns. Dead or unreachable replicas
// are skipped (a put that missed one counts a partial replica set); if no
// replica was reachable the write fails with ErrReplicaSetUnavailable.
// existed: a replica held a record of the key.
func (c *Client) anchorSettle(key []byte, remove bool) (existed bool, err error) {
	legs := c.anchors.legs
	switch reached, err := c.anchors.reached(legs); {
	case err != nil:
		return false, err
	case reached == 0:
		return false, fmt.Errorf("%w: no anchor replica reachable for %q", ErrReplicaSetUnavailable, key)
	case !remove && reached < c.shared.FT.R:
		atomic.AddUint64(&c.stats.PartialReplicas, 1)
	}
	for i := range legs {
		existed = existed || len(legs[i].heads) > 0
	}
	c.noteReplicas(c.anchors)
	return existed, nil
}

// anchorGet reads the key from its replica set, returning the freshest
// version found across reachable replicas — and across every matching
// record on each (see the duplicate note in records.go): the heads of all of
// them in one fan-out, then ONE read of the newest's value. Absence on every
// reachable replica is an authoritative "not found" for acknowledged data:
// an acked write reached all (then-healthy) replicas, so any one surviving
// replica suffices. Mid-transition the migrator may not have copied the
// key's anchors to the new epoch's replica set yet, so when that set holds
// nothing the previous epoch's is consulted. If no replica is reachable,
// ErrReplicaSetUnavailable.
func (c *Client) anchorGet(key []byte) (value []byte, ok bool, err error) {
	targets, curN := c.anchors.targets(c.members.Current(), key, true)
	legs := c.anchors.find(targets, key)
	reached, err := c.anchors.reached(legs)
	if err != nil {
		return nil, false, err
	}
	for from, to := 0, curN; from < len(legs); from, to = to, len(legs) {
		// A replica that answered with its heads and is gone for the value is
		// one more unreachable replica: the next-newest record serves.
		for at, pick := newestOf(legs[from:to]); at != nil; at, pick = newestOf(legs[from:to]) {
			rec, err := c.anchors.read(pick.entry.Addr, pick.size)
			if err == nil {
				if to > curN {
					atomic.AddUint64(&c.stats.EpochFallbacks, 1)
				}
				return rec.value, true, nil
			}
			if !errors.Is(err, fabric.ErrNodeDown) {
				return nil, false, err
			}
			at.err = err
			reached--
		}
	}
	if reached == 0 {
		return nil, false, fmt.Errorf("%w: no anchor replica reachable for %q", ErrReplicaSetUnavailable, key)
	}
	return nil, false, nil
}

// RepairReport summarizes one anti-entropy sweep.
type RepairReport struct {
	// Scanned counts anchor records visited across all live nodes (each
	// replica counts once, so a fully replicated key at R=2 contributes 2).
	Scanned uint64
	// Deficits counts missing or stale replica slots found by this sweep —
	// the under-replicated gauge. 0 means the sweep found the system fully
	// replicated.
	Deficits uint64
	// Copied counts replicas this sweep re-published.
	Copied uint64
	// Remaining counts deficits the sweep could not repair (unreachable
	// target, lost race); they stay for the next sweep.
	Remaining uint64
}

// RepairSweep runs one online anti-entropy pass: walk every live node's
// anchor table, and for each record make sure the key is present at its
// record's version on all current replica targets, re-publishing where a
// target is missing it or holds an older version. Serving continues
// throughout — the sweep uses only the same one-sided protocols as
// foreground writes, and last-writer-wins versioning makes it idempotent
// and safe against concurrent updates.
//
// The walk is a best-effort snapshot under concurrent splits, so
// convergence is judged across sweeps: once a sweep reports zero deficits,
// the system is fully replicated. The sweep updates the shared
// under-replicated gauge with its deficit count.
func (c *Client) RepairSweep() (RepairReport, error) {
	ft := c.shared.FT
	if ft == nil {
		return RepairReport{}, errors.New("core: repair sweep on a cluster without fault tolerance")
	}
	var rep RepairReport
	p := c.members.Current()
	for _, src := range p.Ring.Nodes() {
		if !ft.Health.Alive(src) {
			continue
		}
		t, err := c.anchors.sweep(p, src, false)
		rep.Scanned += t.scanned
		rep.Copied += t.copied
		rep.Deficits += t.copied + t.failed
		rep.Remaining += t.failed + t.unread
		if err != nil {
			if errors.Is(err, fabric.ErrNodeDown) {
				// src died mid-walk: its records are repaired from the
				// surviving replicas on later sweeps. Counted as a deficit
				// so this sweep cannot report convergence.
				rep.Deficits++
				rep.Remaining++
				continue
			}
			return rep, fmt.Errorf("core: repair walk of node %d: %w", src, err)
		}
	}
	atomic.StoreUint64(&ft.underReplicated, rep.Deficits)
	atomic.AddUint64(&ft.repairSweeps, 1)
	atomic.AddUint64(&ft.repairCopied, rep.Copied)
	return rep, nil
}

// degraded reports whether the cluster has lost a node permanently; in
// that mode tree-"absent" answers are double-checked against the anchors,
// because degraded writes land only there.
func (c *Client) degraded() bool {
	return c.shared.FT != nil && c.shared.FT.anyDead(c.members.Current().Ring)
}
