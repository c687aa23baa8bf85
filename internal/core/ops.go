package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// hooks wires tree events into Sphinx's side structures: descent
// discoveries feed the filter cache; structural changes maintain the inner
// node hash table (paper §IV).
type hooks struct{ c *Client }

// SawNode learns every prefix encountered during a descent into the filter
// cache ("the client updates the succinct filter cache for any prefixes
// not present in the cache", §IV Search), and where its node lives into the
// leaf-address cache: the pair is in hand, and the next landing on that prefix
// needs no table read (fetchRemembered).
func (h hooks) SawNode(prefix []byte, n *rart.Node) {
	if len(prefix) == 0 {
		return
	}
	if h.c.filter != nil {
		h.c.filter.Insert(PrefixFilterHash(prefix))
	}
	h.c.lac.LearnNode(prefix, n.Addr, n.Hdr.Type)
}

// UpdatedLeaf learns where a put that took the tree path found (or moved)
// its key's leaf, so the next put or get of the key goes straight there.
func (h hooks) UpdatedLeaf(key []byte, addr mem.Addr, units uint8) {
	h.c.learn(key, addr, units)
}

// Plan implements rart.Hooks: every publication of a structural write is one
// entry change in the inner-node hash table, and the bucket reads that
// precede the entry CASes are handed to the write's lock batch.
func (h hooks) Plan(pubs []rart.Publication) (rart.Publisher, error) {
	p := &h.c.pub
	if err := p.plan(h.c, pubs); err != nil {
		return nil, err
	}
	return p, nil
}

// publisher carries the hash-table publications of one structural write
// from plan to commit (rart.Publisher). A fresh inner node is an insert of
// an 8-byte entry keyed by its full prefix into the owning memory node's
// table (§IV Insert; the local filter learns the prefix, remote CNs learn it
// lazily during traversals: "synchronization of caches on other CNs is
// deferred"); a type switch is a swap of the node's entry for the grown
// copy's (typeSwitched). Every entry CAS, with its bucket-header re-check,
// rides the write's commit batch and costs no round trip of its own. A fresh
// entry's word is unique, so its CAS goes blind — no bucket READ ahead of it,
// the pair read behind it (racehash.PreparedRead.AppendFreshInsert); a swap
// must name the old entry's slot, so it is planned from the bucket pair the
// lock batch fetched: the read-piggyback-then-CAS publish. An entry whose
// guessed slot was taken is planned again from the pair read behind it (one
// round trip); one whose buckets turned out stale, split-locked, full or
// already changed, whose CAS lost, or whose batch's outcomes are unknown
// takes the table's own read-then-CAS loop in Publish, which is idempotent
// (counted: racehash.Stats.BlindLost, PlannedLost).
//
// One per client, reused across operations: the write paths are not
// re-entrant.
type publisher struct {
	c     *Client
	pubs  []rart.Publication
	views []*racehash.View // the current epoch's table of pubs[i]
	reads []racehash.PreparedRead
	done  []bool
}

func (p *publisher) plan(c *Client, pubs []rart.Publication) error {
	p.c, p.pubs = c, pubs
	p.views, p.done = p.views[:0], p.done[:0]
	if cap(p.reads) < len(pubs) {
		p.reads = make([]racehash.PreparedRead, len(pubs))
	}
	p.reads = p.reads[:len(pubs)]
	for i, pub := range pubs {
		view := c.viewFor(pub.Prefix)
		if err := view.PrepareInto(&p.reads[i], pub.Node.Hdr.PrefixHash); err != nil {
			return err
		}
		p.views = append(p.views, view)
		p.done = append(p.done, false)
	}
	return nil
}

// AppendReads implements rart.Publisher.
func (p *publisher) AppendReads(ops []fabric.Op) []fabric.Op {
	for i, pub := range p.pubs {
		if pub.Old == nil {
			ops = p.reads[i].AppendFreshReads(ops)
		} else {
			ops = p.reads[i].AppendOps(ops)
		}
	}
	return ops
}

func entryOf(prefix []byte, n *rart.Node) wire.HashEntry {
	return wire.HashEntry{Valid: true, FP: wire.FP12(prefix), Type: n.Hdr.Type, Addr: n.Addr}
}

// AppendCommit implements rart.Publisher.
func (p *publisher) AppendCommit(ops []fabric.Op) []fabric.Op {
	for i, pub := range p.pubs {
		if pub.Old == nil {
			ops, _ = p.reads[i].AppendFreshInsert(ops, entryOf(pub.Prefix, pub.Node))
		} else {
			ops, _ = p.reads[i].AppendReplace(ops, entryOf(pub.Prefix, pub.Old), entryOf(pub.Prefix, pub.Node))
		}
	}
	return ops
}

// Publish implements rart.Publisher.
func (p *publisher) Publish(commit []fabric.Op) error {
	c := p.c
	for i, pub := range p.pubs {
		if p.done[i] {
			continue
		}
		var err error
		read := &p.reads[i]
		if pub.Old == nil {
			err = p.views[i].FinishInsert(read, commit, entryOf(pub.Prefix, pub.Node), c.eng.Alloc)
		} else {
			err = c.typeSwitched(p.views[i], read, commit, pub.Prefix, pub.Old, pub.Node)
		}
		if c.rec != nil && read.Retried {
			c.rec.Note(fabric.StagePublish, c.eng.C.Clock(), "inht entry: guessed slot taken, planned again from the pair read")
		}
		if c.rec != nil && read.Lost {
			c.rec.Note(fabric.StagePublish, c.eng.C.Clock(),
				"inht entry missed the commit batch (CAS lost, unplannable or outcome unknown): table loop")
		}
		if c.rec != nil && read.Inserted {
			c.rec.Note(fabric.StagePublish, c.eng.C.Clock(), "inht swap found no old entry: grown copy's inserted")
		}
		if err != nil {
			return err
		}
		p.done[i] = true
		if pub.Old == nil && c.filter != nil {
			c.filter.Insert(PrefixFilterHash(pub.Prefix))
		}
		// Fresh or grown, the node is where its prefix now lives: a client's
		// own type switch re-points its own remembered address.
		c.lac.LearnNode(pub.Prefix, pub.Node.Addr, pub.Node.Hdr.Type)
	}
	return nil
}

// typeSwitched swaps a node's hash entry for its grown (or relocated) copy's
// with one CAS (§IV Insert: "This update can be performed atomically using
// an RDMA CAS, as the client modifies only one 8-byte hash entry") in cur,
// the current epoch's table: the one planned on read and executed in commit,
// or, with read nil (the migrator's node-copy publication), the table's own
// loop. The full prefix — the entry's key — is unchanged, so no other state
// moves. The swap is an upsert (racehash.View.Replace): an old entry not in
// cur — still in flight, or in the previous epoch's table during a membership
// transition — is no reason to wait. Then, during a transition that moved the
// prefix, the old entry is removed from the previous epoch's table: after the
// upsert, so a concurrent locate always finds one of the two. The caller holds
// the node's lease, which serializes all entry movement for this prefix.
func (c *Client) typeSwitched(cur *racehash.View, read *racehash.PreparedRead, commit []fabric.Op, prefix []byte, old, grown *rart.Node) error {
	oldE, newE := entryOf(prefix, old), entryOf(prefix, grown)
	var err error
	if read != nil {
		err = cur.FinishReplace(read, commit, oldE, newE, c.eng.Alloc)
	} else {
		err = cur.Replace(old.Hdr.PrefixHash, oldE, newE, c.eng.Alloc)
	}
	if prev := c.prevViewFor(c.members.Current(), prefix); err == nil && prev != nil {
		err = prev.Remove(old.Hdr.PrefixHash, oldE)
	}
	return err
}

// noteScan annotates, on the armed trace recorder, what the scan that began
// at the engine counters before cost the tree (restarted attempts included):
// its frontier rounds, the objects they fetched against the keys returned —
// the over-fetch of the window estimate — and the retired objects it followed.
func (c *Client) noteScan(before rart.EngineStats) {
	if c.rec == nil {
		return
	}
	st := c.eng.Stats()
	reads, nodes := st.ScanReads-before.ScanReads, st.ScanNodeReads-before.ScanNodeReads
	c.rec.Note(fabric.StageScan, c.eng.C.Clock(),
		"scan: %d rounds, %d reads (%d nodes, %d leaves), %d emitted, %d re-resolved",
		st.ScanRounds-before.ScanRounds, reads, nodes, reads-nodes,
		st.ScanEmitted-before.ScanEmitted, st.ScanReresolved-before.ScanReresolved)
}

// noteAbandoned annotates, on the armed trace recorder, the write-ahead
// objects the engine abandoned since the counters were last sampled into
// objects and bytes: what a lost lock or verify cost the put being traced.
func (c *Client) noteAbandoned(objects, bytes *uint64) {
	if c.rec == nil {
		return
	}
	o, b := c.eng.Abandoned()
	if o > *objects {
		c.rec.Note(fabric.StageLock, c.eng.C.Clock(), "abandoned %d write-ahead objects (%d bytes)", o-*objects, b-*bytes)
	}
	*objects, *bytes = o, b
}

// begin starts an outermost operation on key: the key is checked, and the
// engine's image arena rewound — what the client's last operation read is dead
// from here on (DESIGN.md §5.7). Nested reads (hot promotion's searchTree,
// anchorGet) never call it.
func (c *Client) begin(key []byte) error {
	if len(key) == 0 || len(key) > wire.MaxDepth {
		return fmt.Errorf("core: key length %d out of range [1,%d]", len(key), wire.MaxDepth)
	}
	c.eng.Rewind()
	return nil
}

// drive runs one operation to its end — the one retry discipline every
// operation shares (DESIGN.md §5.16 holds the decision table). Each round
// locates the start node — the deepest known prefix of key no longer than
// maxLen, or the root for a rooted operation (Scan has no key to locate) —
// runs attempt from it, and settles what the attempt reported:
//
//   - done (nil error): the operation's results are where attempt left them.
//   - a wrong start that costs nothing to fix — attempt reported a prefix
//     collision, or the tree needs the parent of the start node and there is
//     one above: narrow maxLen below startLen and go again. No budget, no
//     backoff, no restart counted; the narrowing survives later restarts (a
//     fabric fault says nothing about the collided prefix, and descents
//     re-learn it into the filter, so widening would re-detect it each time).
//     The walk that comes for the parent meets the start node again below it
//     and takes the image from the engine's hand (rart.Rerouted), not a second
//     READ — and a put that won the start node's lease with that image keeps
//     it too: it is the child lock of the write the re-routed walk makes.
//   - the path crosses a lost node and the layer above can answer instead
//     (anchors with fault tolerance; a rooted scan's typed error): lost is
//     reported with the error, in one decision, no backoff.
//   - a lost race or an injected fault a later attempt can outlive: counted
//     once, by cause, noted on the trace, and charged to the backoff budget.
//   - anything else, or the budget is spent: the terminal error.
//
// Every round ends on the hand (rart.Engine.Release): whatever a put still
// holds goes back before the next step — a wait, a return — but a re-route's
// entry, so nothing outlives the round it was won in but that entry, and
// nothing outlives drive.
func (c *Client) drive(op string, key []byte, rooted bool,
	attempt func(start *rart.Node, startLen int) (collided bool, err error)) (lost bool, err error) {
	maxLen := len(key)
	for bo := c.eng.Backoff(); ; {
		var start, kept *rart.Node
		var startLen int
		var narrow bool
		if rooted {
			start, err = c.readRoot()
		} else {
			start, startLen, err = c.locate(key, maxLen)
		}
		if err == nil {
			narrow, err = attempt(start, startLen)
			if errors.Is(err, rart.ErrNeedParent) && startLen > 0 {
				atomic.AddUint64(&c.stats.ParentRetries, 1)
				c.rec.Note(fabric.StagePublish, c.eng.C.Clock(), "need parent: re-routing via prefix %d, no backoff", uint64(startLen-1))
				// The re-routed walk meets start again, one level down: it
				// takes this image instead of reading the node a second time.
				c.eng.Hold(start, rart.Rerouted)
				narrow, kept = true, start
			}
		}
		c.eng.Release(rart.BetRoundEnded, kept)
		if narrow {
			maxLen = startLen - 1
			continue
		}
		if err == nil {
			return false, nil
		}
		if nodeLost(err) && (rooted || c.shared.FT != nil) {
			c.note(fabric.StageNone, "node lost: %v", err)
			return true, err
		}
		cause := c.restartCause(err)
		if cause == nil {
			return false, err
		}
		atomic.AddUint64(&c.stats.Restarts, 1)
		atomic.AddUint64(cause, 1)
		c.note(fabric.StageNone, "restart: %v", err)
		if !bo.Wait() {
			return false, exhausted(op, key, err)
		}
	}
}

// restartCause classifies an error worth re-running the operation for — a
// lost structural race, or an injected fabric fault that a later attempt can
// outlive — as the counter of its cause; nil for a terminal error (budget
// exhaustion and client crashes among them).
func (c *Client) restartCause(err error) *uint64 {
	switch rart.RetryCause(err) {
	case rart.CauseStructural:
		return &c.stats.RestartsStructural
	case rart.CauseTransient:
		return &c.stats.RestartsTransient
	case rart.CauseTimeout:
		return &c.stats.RestartsTimeout
	case rart.CauseNodeDown:
		return &c.stats.RestartsNodeDown
	}
	return nil
}

// nodeLost reports whether an error says its target node is permanently gone
// (killed) or breaker-rejected (suspected down). A plain down window is not
// that: the node will come back.
func nodeLost(err error) bool {
	return errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, fabric.ErrBreakerOpen)
}

// note annotates a local event on the armed trace recorder; the fmt.Sprintf
// only runs while tracing. A note whose format takes only numbers goes to the
// recorder with them (obs.Recorder.Note), which formats them in only when the
// trace is read: sessions keep a tail recorder armed.
func (c *Client) note(stage fabric.Stage, format string, args ...any) {
	if c.rec != nil {
		c.rec.Note(stage, c.eng.C.Clock(), fmt.Sprintf(format, args...))
	}
}

// noteReplicas annotates, on the armed trace recorder, what the layer's last
// fan-out — the one an acked write just waited for — cost: its legs, its
// rounds, and the rounds among them that rode the tree write's batches.
func (c *Client) noteReplicas(s *recordStore) {
	legs, rounds := uint64(len(s.legs)), uint64(s.batchN)
	if s.ridden == 0 {
		c.rec.Note(s.stage, c.eng.C.Clock(), "replicas: %d legs, %d rounds", legs, rounds)
	} else {
		c.rec.Note(s.stage, c.eng.C.Clock(), "replicas: %d legs, %d rounds, %d ridden", legs, rounds, uint64(s.ridden))
	}
}

// Search returns the value stored for key (paper §IV Search): a ladder of
// trust-but-verify tiers, each one round trip when it serves, each falling to
// the next with a fresh budget when it cannot — a refuted or aborted
// speculation is a routing decision, not contention. Warm path of the last
// tier: one hash-entry round trip, one inner-node round trip, one leaf round
// trip.
func (c *Client) Search(key []byte) ([]byte, bool, error) {
	if err := c.begin(key); err != nil {
		return nil, false, err
	}
	atomic.AddUint64(&c.stats.Searches, 1)
	if c.degraded() {
		// A node is permanently lost, so the tree is not authoritative:
		// degraded writes land only in the anchor store, while a tree read
		// may still succeed on a stale leaf via a path that happens to
		// avoid the dead node. Serve from the replicated anchors — for any
		// acked key a healthy replica exists by the placement invariant.
		atomic.AddUint64(&c.stats.Failovers, 1)
		return c.anchorGet(key)
	}
	// Hottest first: a replica record of a promoted key, chosen by contention
	// (hotreplica.go); then the leaf at the address the leaf-address cache
	// remembers (specGet); then the tree.
	val, ok := c.hotGet(key)
	if !ok {
		val, ok = c.specGet(key)
	}
	var err error
	if !ok {
		val, ok, err = c.searchTree(key)
	}
	if ok && err == nil {
		c.hotTouch(key, len(val))
	}
	return val, ok, err
}

// searchTree is the authoritative read: the filter-guided jump plus the tree
// walk. Hot promotion calls it directly to fetch an authoritative value
// without recursing through the fast tiers or the operation counters.
func (c *Client) searchTree(key []byte) ([]byte, bool, error) {
	var leaf *rart.Leaf
	lost, err := c.drive("search", key, false, func(start *rart.Node, startLen int) (collided bool, err error) {
		leaf, err = c.eng.SearchFrom(start, key, hooks{c})
		if err == nil && leaf != nil && !bytes.Equal(leaf.Key, key) {
			collided, leaf = c.collided(key, leaf.Key, startLen), nil
		}
		return collided, err
	})
	switch {
	case lost:
		// The key's tree path crosses a lost node: acked writes reached every
		// anchor replica, so any survivor is authoritative.
		atomic.AddUint64(&c.stats.Failovers, 1)
		return c.anchorGet(key)
	case err != nil:
		return nil, false, err
	case leaf == nil && c.degraded():
		// A node was lost while the search ran: absence in the tree is not
		// authoritative, degraded writes land only in the anchors. Confirm
		// there.
		atomic.AddUint64(&c.stats.AnchorConfirms, 1)
		return c.anchorGet(key)
	case leaf == nil:
		return nil, false, nil
	}
	c.learn(key, leaf.Addr, leaf.Units)
	return bytes.Clone(leaf.Value), true, nil // out of the engine's arena
}

// specOutcome is the verdict of one speculative round trip at a cached leaf
// address.
type specOutcome uint8

const (
	specHit    specOutcome = iota // the image is the key's live leaf
	specRefute                    // provably not: the entry is unlearned
	specAbort                     // nothing provable either way: the entry is kept
)

// specVerify is the trust-but-verify step every speculative access at a
// remembered address ends in — specGet's one READ, specPut's lock CAS + READ,
// hotGet's one record READ. err is the round trip's fabric error; stable says
// the image was neither torn nor locked by someone else; status and leafKey
// are what the image says. Only a positive, verified match is trusted:
//
//   - Hit: status Idle and the full key the leaf stores equals key.
//   - Refuted: Invalid status, another key's leaf, or the address is on a
//     lost node. The address is no longer (or never was) the key's leaf.
//   - Aborted: a torn or locked image or a transient fabric error proves
//     nothing; an in-flight writer's in-place update keeps the address valid.
//
// The second result is the verdict's trace note — constants, because sessions
// keep a tail recorder armed and a refutation must not build strings; the
// trace row's stage names the tier. Empty for a hit: the path's own note.
const abortedFabricError = "aborted: fabric error, entry kept"

func specVerify(key []byte, err error, stable bool, status wire.Status, leafKey []byte) (specOutcome, string) {
	switch {
	case nodeLost(err):
		return specRefute, "refuted: node lost, unlearned"
	case err != nil:
		return specAbort, abortedFabricError
	case !stable:
		return specAbort, "aborted: leaf unstable, entry kept"
	case status != wire.StatusIdle || !bytes.Equal(leafKey, key):
		return specRefute, "refuted: verification failed, unlearned"
	}
	return specHit, ""
}

// specPath is one speculative path through a cache of remembered addresses:
// the cache a refutation unlearns from — a node word or a leaf word —, the
// path's outcome counters, and the stage and hit note it appears under on a
// trace.
type specPath struct {
	cache                 *LeafCache
	node                  bool
	hits, refutes, aborts *uint64
	stage                 fabric.Stage
	hit                   string
}

func (c *Client) specGets() specPath {
	return specPath{c.lac, false, &c.stats.SpecHits, &c.stats.SpecRefutes, &c.stats.SpecAborts,
		fabric.StageLeafSpec, "lac hit: leaf verified in one round trip"}
}

func (c *Client) specUpdates() specPath {
	return specPath{c.lac, false, &c.stats.SpecUpdHits, &c.stats.SpecUpdRefutes, &c.stats.SpecUpdAborts,
		fabric.StageLeafWrite, "lac update hit: locked+verified in one round trip"}
}

// specNodes is the landing at the address the leaf-address cache remembers
// for an inner node's prefix (locate.go fetchRemembered).
func (c *Client) specNodes() specPath {
	return specPath{c.lac, true, &c.stats.NodeHits, &c.stats.NodeRefutes, &c.stats.NodeAborts,
		fabric.StageNodeRead, nodeHitNote}
}

// specHots is the read of a promoted key's replica record through one rank's
// route cache (hotGet).
func (c *Client) specHots(routes *LeafCache) specPath {
	return specPath{routes, false, &c.stats.HotHits, &c.stats.HotRefutes, &c.stats.HotAborts,
		fabric.StageHotRead, "hot hit: replica record verified in one round trip"}
}

// specSettle books the outcome of a speculative access at addr: the path's
// counter, the unlearn a refutation owes — of the entry naming addr only; one
// another worker has since learned for the key is not what was refuted — and
// the note on the armed trace recorder: specVerify's, or the path's own for a
// hit that names no other.
func (c *Client) specSettle(p specPath, key []byte, addr mem.Addr, out specOutcome, note string) {
	switch out {
	case specHit:
		atomic.AddUint64(p.hits, 1)
		if note == "" {
			note = p.hit
		}
	case specRefute:
		if p.node {
			p.cache.UnlearnNodeAt(key, addr)
		} else {
			p.cache.UnlearnAt(key, addr)
		}
		atomic.AddUint64(p.refutes, 1)
	case specAbort:
		atomic.AddUint64(p.aborts, 1)
	}
	if c.rec != nil {
		c.rec.Note(p.stage, c.eng.C.Clock(), note)
	}
}

// specGet attempts the speculative 1-RT fast path (trust-but-verify, the
// SFC's shape applied to the whole traversal): read the leaf at the cached
// address in one round trip and verify the image in place — checksum (the
// read decoded), status word and full key (specVerify). Only a verified hit
// is served; a mismatched leaf proves nothing about absence, so everything
// else takes the authoritative path.
//
// Never called in degraded mode: degraded writes land anchor-only, so a
// cached tree address could serve a stale value with a clean checksum.
// Search's degraded() check precedes this call.
func (c *Client) specGet(key []byte) ([]byte, bool) {
	if c.lac == nil {
		return nil, false
	}
	addr, units, ok := c.lac.Lookup(key)
	if !ok {
		atomic.AddUint64(&c.stats.SpecMisses, 1)
		return nil, false
	}
	// An unstable image is torn or locked: an in-flight single-WRITE updater.
	leaf, stable, err := c.eng.SpecReadLeaf(addr, units, key)
	out, why := specVerify(key, err, stable, leaf.Status, leaf.Key)
	c.specSettle(c.specGets(), key, addr, out, why)
	if out != specHit {
		return nil, false
	}
	return leaf.Value, true
}

// specPut attempts the speculative in-place write: the shortcut specGet
// gives reads, for a put whose key has a leaf-address-cache entry. ONE batch
// at the cached address locks the leaf and reads it (rart.SpecLockLeaf); the
// full key in the locked image is verified (specVerify); then the ordinary
// single image WRITE lands the value and releases the lock — 2 round trips
// instead of the tree path's 5 (hash entry, node, leaf, lock CAS, WRITE).
// It reports whether the put is done; anything else falls to the tree path
// with a fresh backoff, like a refuted specGet.
//
// The lock CAS has to guess the whole header word. Units come from the
// cache and the key length from key; the stored value's length is guessed
// to equal the new one's. A wrong guess cannot corrupt anything — the CAS
// then simply fails — and the read behind it shows the true header:
//
//   - Hit: CAS won, key matches. 2 round trips.
//   - Hit after re-CAS: the leaf is Idle and the key's, only the value
//     length differs: lock again with the observed word. 3 round trips.
//   - Refuted: Invalid, lost node, or another key's leaf. If the CAS WON on
//     that other leaf (the cache tags entries with 13 fingerprint bits, and
//     both lengths happened to agree), its Idle header is restored first
//     and the leaf is byte-identical afterwards.
//   - Aborted: locked by another writer, a transient fault, or a value that
//     no longer fits the leaf's units (out-of-place is the tree path's job,
//     which then relearns the new leaf).
//
// Never called in degraded mode, for specGet's reason.
func (c *Client) specPut(key, value []byte) bool {
	if c.lac == nil {
		return false
	}
	addr, units, ok := c.lac.Lookup(key)
	if !ok {
		atomic.AddUint64(&c.stats.SpecUpdMisses, 1)
		return false
	}
	p := c.specUpdates()
	if wire.LeafSize(len(key), len(value)) > uint64(units)*wire.LeafUnit {
		c.specSettle(p, key, addr, specAbort, "aborted: value outgrows the leaf, entry kept")
		return false
	}
	lk, err := c.eng.SpecLockLeaf(addr, units, len(key), len(value))
	seen := wire.DecodeLeafHeader(lk.Seen)
	out, why := specVerify(key, err, seen.Status != wire.StatusLocked, seen.Status, lk.Key)
	if out == specHit && !lk.Held {
		why = "lac update hit: locked+verified, second CAS for the stored value length"
		if err := c.eng.TryLeafLock(&lk); err != nil {
			out, why = specAbort, abortedFabricError
		} else if !lk.Held {
			out, why = specAbort, "aborted: leaf contended, entry kept"
		}
	}
	switch {
	case out == specHit:
		if err := c.eng.WriteLockedLeaf(&lk, key, value); err != nil {
			out, why = specAbort, "aborted: releasing write failed, entry kept"
		}
	case lk.Held:
		// Driven to completion (UnlockLeaf). Should it give up on a budget
		// of transients, the lock stays: only a crashed owner's is broken.
		_ = c.eng.UnlockLeaf(&lk)
		if out == specRefute {
			why = "refuted: stranger's leaf restored, unlearned"
		}
	}
	c.specSettle(p, key, addr, out, why)
	return out == specHit
}

// learn records a verified (key → leaf) binding in the leaf-address cache
// after a successful authoritative traversal.
func (c *Client) learn(key []byte, addr mem.Addr, units uint8) {
	if c.lac == nil || units == 0 {
		return
	}
	c.lac.Learn(key, addr, units)
}

// collided reports whether the leaf a descent from the jump to key[:startLen]
// ended at proves the start node was not on key's path after all: the filter
// fingerprint and the 42-bit prefix hash both collided (paper §III-B's
// leaf-level detection). The prefix is unlearned; drive narrows below it.
func (c *Client) collided(key, leafKey []byte, startLen int) bool {
	if rart.CommonPrefixLen(leafKey, key) >= startLen {
		return false
	}
	atomic.AddUint64(&c.stats.CollisionRetries, 1)
	if c.filter != nil {
		c.filter.Delete(PrefixFilterHash(key[:startLen]))
	}
	c.rec.Note(fabric.StageFilterProbe, c.eng.C.Clock(), "prefix collision at %d: unlearned, narrowing to %d", uint64(startLen), uint64(startLen-1))
	return true
}

// Insert stores value for key, overwriting any existing value (paper §IV
// Insert). It reports whether the key already existed. Counters track
// validated operations only, so malformed arguments do not skew per-op
// metrics (same policy as Scan).
func (c *Client) Insert(key, value []byte) (bool, error) {
	if err := c.begin(key); err != nil {
		return false, err
	}
	atomic.AddUint64(&c.stats.Inserts, 1)
	return c.put(key, value, rart.PutUpsert)
}

// Update overwrites an existing key's value (paper §IV Update: in place
// when the new value fits the leaf, out of place otherwise). It reports
// whether the key was present.
func (c *Client) Update(key, value []byte) (bool, error) {
	if err := c.begin(key); err != nil {
		return false, err
	}
	atomic.AddUint64(&c.stats.Updates, 1)
	return c.put(key, value, rart.PutUpdateOnly)
}

func (c *Client) put(key, value []byte, mode rart.PutMode) (bool, error) {
	// The anchors' read rounds ride the tree write's batches, whichever path
	// it takes; a write that never commits drops them.
	c.anchorBegin(key, value, false)
	defer c.anchorDrop()
	// Speculative in-place write: a cached leaf address turns the descent,
	// the lock and the verification into one round trip (see specPut). A
	// refuted or aborted speculation falls through to the tree path below
	// with a fresh budget, like Search's.
	if !c.degraded() && c.specPut(key, value) {
		return c.ackPut(key, value, mode, true)
	}
	var abObjects, abBytes uint64
	if c.rec != nil {
		abObjects, abBytes = c.eng.Abandoned()
	}
	var existed bool
	// A put that may link a leaf bets, at its jump start, on the lease of the
	// node it lands on (readCandidates); PutFrom resolves the bet.
	c.inserting = mode != rart.PutUpdateOnly
	lost, err := c.drive("put", key, false, func(start *rart.Node, _ int) (_ bool, err error) {
		existed, err = c.eng.PutFrom(start, key, value, mode, hooks{c})
		c.noteAbandoned(&abObjects, &abBytes)
		return false, err
	})
	c.inserting = false
	switch {
	case lost:
		return c.degradedPut(key, value, mode)
	case err != nil:
		return false, err
	}
	return c.ackPut(key, value, mode, existed)
}

// ackPut finishes a put whose tree write has committed — through the tree
// path or the speculative one — by carrying it to the replica layers before
// it is acknowledged.
func (c *Client) ackPut(key, value []byte, mode rart.PutMode, existed bool) (bool, error) {
	// An update-only miss wrote nothing to the tree, so nothing is published
	// either — except in degraded mode, where the key may live only in the
	// anchors (its hot records, swap-only, then take the write too).
	carry := mode == rart.PutUpsert || existed || c.degraded()
	anchorExisted, err := c.replicate(key, value, false, carry, carry)
	if err != nil {
		return false, err
	}
	return existed || anchorExisted, nil
}

// replicate carries a committed write — a put of value, or with remove a
// delete — to the replica layers before it is acknowledged: to the anchors
// when anchored, to the hot records when hot, each only where its layer is on
// — the hot one only once a record may be discoverable (the writers' gate,
// Published, judged here, after the commit). Publish-to-completion: from here
// on, losing any single replica cannot lose the write, and no reader can
// verify a hit on a promoted key's superseded value. The anchors' fan-out is
// the one the write began before its tree write, armed (anchorArm); both
// layers' fan-outs advance in the same doorbell rounds (run), then each
// settles by its own policy, the anchors first: an anchor error fails the
// write whatever the hot records did. existed: an anchor replica held the key.
func (c *Client) replicate(key, value []byte, remove, anchored, hot bool) (existed bool, err error) {
	var anchors, hots *recordStore
	if anchored && c.anchors != nil {
		anchors = c.anchorArm(key, value, remove)
	}
	curN := 0
	if hot && c.hot != nil && c.shared.Hot.Published() {
		hots, curN = c.hotBegin(key, value, remove)
	}
	run(anchors, hots)
	if anchors != nil {
		existed, err = c.anchorSettle(key, remove)
	}
	if hots != nil && err == nil {
		err = c.hotSettle(key, curN)
	}
	if err != nil {
		return false, err
	}
	return existed, nil
}

// degradedPut serves a write whose tree path crosses a permanently lost
// node: the value goes to the anchor replicas only, acknowledged once the
// reachable replica set holds it. Update-only semantics are preserved by
// checking anchor presence first — an absent key stays absent. The tree
// copy is reconstructed offline (tree rebuild is future work; degraded
// reads are served from the anchors, so the gap is invisible).
func (c *Client) degradedPut(key, value []byte, mode rart.PutMode) (bool, error) {
	atomic.AddUint64(&c.stats.DegradedPuts, 1)
	if mode == rart.PutUpdateOnly {
		if _, ok, err := c.anchorGet(key); err != nil {
			return false, err
		} else if !ok {
			return false, nil
		}
	}
	return c.replicate(key, value, false, true, false)
}

// Delete removes key (paper §IV Delete), reporting whether it was present.
func (c *Client) Delete(key []byte) (bool, error) {
	if err := c.begin(key); err != nil {
		return false, err
	}
	atomic.AddUint64(&c.stats.Deletes, 1)
	c.anchorBegin(key, nil, true)
	defer c.anchorDrop()
	var ok bool
	lost, err := c.drive("delete", key, false, func(start *rart.Node, startLen int) (collided bool, err error) {
		ok, err = c.eng.DeleteFrom(start, key, hooks{c})
		if err == nil && !ok && startLen > 0 {
			// The jump may have landed beside the key (hash collision):
			// deletes must not report absence on a collided path, so confirm
			// through the same start. A confirm error goes to drive like any
			// other — a transient fault here must restart the operation, never
			// turn into a fabricated "absent" answer.
			var beside *rart.Leaf
			beside, err = c.eng.SearchFrom(start, key, hooks{c})
			collided = err == nil && beside != nil && c.collided(key, beside.Key, startLen)
		}
		return collided, err
	})
	switch {
	case lost:
		// Tree path lost: delete the anchors only; presence is judged from
		// them (acked writes reached every replica).
		atomic.AddUint64(&c.stats.DegradedPuts, 1)
		return c.replicate(key, nil, true, true, false)
	case err != nil:
		return false, err
	}
	// Both replica layers before the ack, as for a put: no reader may verify a
	// hit on a key whose delete was acknowledged.
	anchorPresent, err := c.replicate(key, nil, true, true, true)
	if err != nil {
		return false, err
	}
	return ok || anchorPresent, nil
}

// Scan returns up to limit key-value pairs in [lo, hi], ascending (paper
// §IV Scan: root-anchored traversal with doorbell-batched node and leaf
// reads). A nil or empty bound means unbounded on that side; limit 0 means
// unlimited. Malformed arguments fail with ErrInvalidScan before any round
// trip is paid.
func (c *Client) Scan(lo, hi []byte, limit int) ([]rart.KV, error) {
	if len(lo) == 0 {
		lo = nil
	}
	if len(hi) == 0 {
		hi = nil
	}
	if limit < 0 {
		return nil, fmt.Errorf("%w: negative limit %d", ErrInvalidScan, limit)
	}
	if lo != nil && hi != nil && bytes.Compare(lo, hi) > 0 {
		return nil, fmt.Errorf("%w: lo %q > hi %q", ErrInvalidScan, lo, hi)
	}
	// Counted after validation: rejected calls pay no round trip and must
	// not inflate per-op metrics.
	atomic.AddUint64(&c.stats.Scans, 1)
	c.eng.Rewind()
	if c.degraded() {
		// Degraded writes live only in the unordered anchor store, so a
		// tree traversal — even one that avoids the dead node — could
		// return stale values. Scans fail fast rather than lie; point
		// reads keep full coverage via the anchors.
		return nil, fmt.Errorf("%w: scan %q..%q while a memory node is lost (tree not authoritative)",
			ErrReplicaSetUnavailable, lo, hi)
	}
	var before rart.EngineStats
	if c.rec != nil {
		before = c.eng.Stats()
	}
	var kvs []rart.KV
	lost, err := c.drive("scan", lo, true, func(root *rart.Node, _ int) (_ bool, err error) {
		kvs, err = c.eng.ScanFrom(root, lo, hi, limit, true)
		return false, err
	})
	switch {
	case lost:
		// Anchors are unordered, so scans cannot fail over to them; fail fast
		// with a typed error instead of sleeping out the backoff budget.
		// Post-loss scans regain full coverage only after a tree rebuild
		// (future work).
		return nil, fmt.Errorf("%w: scan range %q..%q crosses a lost node (%v)",
			ErrReplicaSetUnavailable, lo, hi, err)
	case err != nil:
		return nil, err
	}
	c.noteScan(before)
	return kvs, nil
}
