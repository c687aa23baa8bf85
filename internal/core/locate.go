package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// locate finds the deepest inner node whose full prefix is a prefix of
// key, considering only prefixes of length ≤ maxLen (a false-positive
// retry shrinks maxLen, per §III-B). It returns the node and the prefix
// length the jump targeted (0 for the root).
//
// With the filter cache this is the paper's warm path: local existence
// checks pick the longest live prefix, then one hash-entry round trip and
// one node round trip — or the node's alone where the leaf-address cache
// remembers its address (fetchRemembered); a prefix no probe confirms starts
// at the root. An operation that does not insert lands, deepest prefix first,
// on a node word the cache remembers whether the filter still claims its
// prefix or has dropped it: verified on landing, the word is as good a claim.
// Only a claim asks the table, though: a word for an unclaimed prefix that
// does not verify sends the walk on to shorter prefixes; and the cache is
// asked only at the prefix lengths it has learned node words at. An inserting put
// asks the cache only for a prefix the filter claims, the landing its lease
// bet is posted on. Both hashes of a prefix come from one forward pass over
// key (prefixStates).
//
// Without the filter (a nil Options.Filter, the noSFC ablation), the
// buckets of every prefix are fetched in a single doorbell batch (§III-A,
// locateParallel).
func (c *Client) locate(key []byte, maxLen int) (*rart.Node, int, error) {
	if maxLen > len(key) {
		maxLen = len(key)
	}
	if c.filter == nil {
		return c.locateParallel(key, maxLen)
	}
	var probes, depths uint64
	sfc, node := c.prefixStates(key)
	if c.lac != nil && !c.inserting {
		depths = c.lac.nodeDepths()
	}
	for l := maxLen; l >= 1; l-- {
		prefix := key[:l]
		h := wire.Mix64(sfc[l])
		probes++
		claimed := c.filter.Contains(h)
		if claimed {
			c.rec.Note(fabric.StageFilterProbe, c.eng.C.Clock(), "sfc probe hit: prefix %d/%d, fetching", uint64(l), uint64(len(key)))
		} else if depths&depthBit(l) == 0 {
			continue
		}
		n, err := c.fetchRemembered(prefix, wire.Mix64(node[l]))
		switch {
		case !claimed && n == nil && err == nil:
			continue
		case !claimed:
			c.rec.Note(fabric.StageFilterProbe, c.eng.C.Clock(), "sfc miss, node word remembered: prefix %d/%d", uint64(l), uint64(len(key)))
		case n == nil && err == nil:
			n, err = c.fetchValidated(prefix)
		}
		if err != nil {
			return nil, 0, err
		}
		if n != nil {
			atomic.AddUint64(&c.stats.FilterHits, 1)
			if !claimed {
				atomic.AddUint64(&c.stats.UnclaimedLandings, 1)
			}
			if c.index != nil {
				c.index.SFCHitDepth.Observe(uint64(l))
				c.index.SFCProbes.Observe(probes)
			}
			return n, l, nil
		}
		// The filter claimed a prefix the index does not have: unlearn it
		// and retry shorter (paper §III-B false-positive handling).
		atomic.AddUint64(&c.stats.FalsePositives, 1)
		c.filter.Delete(h)
		c.rec.Note(fabric.StageFilterProbe, c.eng.C.Clock(), "sfc false positive at prefix %d: unlearned", uint64(l))
	}
	atomic.AddUint64(&c.stats.RootStarts, 1)
	if c.index != nil {
		c.index.SFCProbes.Observe(probes)
	}
	if c.rec != nil {
		c.rec.Note(fabric.StageFilterProbe, c.eng.C.Clock(), "sfc miss on all prefixes: root start")
	}
	root, err := c.readRoot()
	return root, 0, err
}

// The verdicts on a remembered node address, as trace notes (constants: a
// session's tail recorder is always armed).
const (
	nodeHitNote     = "node address hit: table read skipped"
	nodeLeasedNote  = "node address not trusted: image leased, asking the table"
	nodeRetiredNote = "node address refuted: node retired: unlearned"
	nodeStrangeNote = "node address refuted: not the prefix's node: unlearned"
	nodeLostNote    = "node address refuted: memory node lost: unlearned"
)

// fetchRemembered is the landing with no table read: the node of prefix, whose
// node-word hash is h, read at the address the leaf-address cache remembers
// for it — what the table's
// entry would have said — behind the lease CAS when the put may insert
// (readCandidates), which is thereby posted a level earlier still. Like every
// remembered address it is trusted only after the image read there verifies:
//
//   - Hit: the Fig. 3 checks land applies to a table candidate
//     (live status, depth, 42-bit prefix hash) hold AND the image shows no
//     lease but the bet this put just won. A node being type-switched or
//     relocated is leased from its lock batch until its invalidation lands,
//     and one whose writer died between the two stays leased for good: valid,
//     yet no longer (or about to be no longer) the node the tree and the
//     table name. The table route meets such a node only until the entry swap,
//     so a leased image sends this route to the table, and an insert is never
//     written into a node nothing reaches.
//   - Refuted: retired, another prefix's node, no node image at all, or on a
//     lost memory node (as specVerify has it for a leaf: the prefix may live
//     elsewhere by now, and the table knows). The entry naming this address
//     is unlearned and the bet, if won, given back (refuted).
//   - Not trusted: leased by someone else — more often than not an insert about
//     to release the same node, so the entry is kept, and so is the image, in
//     the engine's hand (rart.Leased): if the table names this address too, the
//     image is the landing a read behind the table's would have returned, and
//     is not read twice.
//
// Anything but a hit returns nil and the caller asks the table. Any other
// fabric error is the caller's, as from the table read it replaces.
func (c *Client) fetchRemembered(prefix []byte, h uint64) (*rart.Node, error) {
	if c.lac == nil {
		return nil, nil
	}
	addr, t, ok := c.lac.LookupNode(h)
	if !ok {
		return nil, nil
	}
	c.candScratch = append(c.candScratch[:0], racehash.Candidate{Entry: wire.HashEntry{Valid: true, Type: t, Addr: addr}})
	nodes, err := c.readCandidates(c.candScratch, c.inserting)
	if err != nil && !nodeLost(err) {
		return nil, err
	}
	var n *rart.Node
	out, note := specHit, ""
	switch {
	case err != nil:
		out, note = specRefute, nodeLostNote
	case nodes[0] == nil || c.refuted(nodes[0], prefix):
		out, note = specRefute, nodeStrangeNote
		if nodes[0] != nil && nodes[0].Hdr.Status == wire.StatusInvalid {
			note = nodeRetiredNote
		}
	case nodes[0].LeaseWord != c.eng.LeaseOn(nodes[0]):
		out, note = specAbort, nodeLeasedNote
		c.eng.Hold(nodes[0], rart.Leased)
	default:
		n = nodes[0]
	}
	c.specSettle(c.specNodes(), prefix, addr, out, note)
	return n, nil
}

// fetchValidated looks the prefix up in the inner node hash table and lands
// on what its entries name (land).
//
// During a membership transition, a miss on the current epoch's table
// falls back to the previous owner's table: an entry the migrator has
// not moved yet is still authoritative there.
func (c *Client) fetchValidated(prefix []byte) (*rart.Node, error) {
	p := c.members.Current()
	n, err := c.fetchValidatedIn(c.viewOf(c.placeIn(p, prefix)), prefix)
	if n != nil || err != nil {
		return n, err
	}
	if prev := c.prevViewFor(p, prefix); prev != nil {
		n, err = c.fetchValidatedIn(prev, prefix)
		if n != nil && err == nil {
			atomic.AddUint64(&c.stats.EpochFallbacks, 1)
		}
	}
	return n, err
}

func (c *Client) fetchValidatedIn(view *racehash.View, prefix []byte) (*rart.Node, error) {
	if view == nil {
		return nil, nil
	}
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageHashRead))
	cands, err := view.LookupAppend(c.candScratch[:0], racehash.PlacementHash(prefix), wire.FP12(prefix))
	c.candScratch = cands
	if err != nil {
		return nil, err
	}
	return c.land(view, prefix, cands, c.inserting)
}

// land judges view's answer for prefix — the fingerprint-matching entries of
// its bucket pair — for both locates: it reads every candidate node in one
// doorbell batch and returns the first that passes the metadata checks of
// Fig. 3 (live status, matching depth, matching 42-bit full-prefix hash),
// remembering its address. Entries naming retired nodes are removed on the
// way. With bet (a put that may insert), a lone candidate's read carries the
// lease CAS (readCandidates).
func (c *Client) land(view *racehash.View, prefix []byte, cands []racehash.Candidate, bet bool) (*rart.Node, error) {
	if c.index != nil {
		c.index.INHTCandidates.Observe(uint64(len(cands)))
	}
	if len(cands) == 0 {
		return nil, nil
	}
	nodes, err := c.readCandidates(cands, bet && len(cands) == 1)
	if err != nil {
		return nil, err
	}
	var found *rart.Node
	for i, n := range nodes {
		switch {
		case n == nil:
		case !c.refuted(n, prefix):
			if found == nil {
				found = n
				_, h := c.prefixHashes(prefix)
				c.lac.LearnNode(h, len(prefix), n.Addr, n.Hdr.Type)
			}
		case n.Hdr.Status == wire.StatusInvalid:
			// Retired by a type switch whose table update this entry
			// predates; clean it up so future lookups stay single-read.
			atomic.AddUint64(&c.stats.StaleEntries, 1)
			if err := view.Remove(racehash.PlacementHash(prefix), cands[i].Entry); err != nil {
				return nil, err
			}
		default:
			// The 12-bit entry fingerprint matched, but the node's depth or
			// 42-bit full-prefix hash did not: a hash-table-level
			// fingerprint collision, paid for with a wasted node read.
			atomic.AddUint64(&c.stats.FPMismatches, 1)
		}
	}
	return found, nil
}

// refuted reports whether n, read as prefix's node, is not its live node
// (liveNode). A refuted landing gives back the leases the engine's hand holds
// — the one a bet won with n among them — and the rest of the round goes on
// without them.
func (c *Client) refuted(n *rart.Node, prefix []byte) bool {
	if liveNode(n, prefix) {
		return false
	}
	c.eng.Release(rart.BetRefuted)
	return true
}

// liveNode reports whether n, read as prefix's node, passes the §III-B
// metadata checks of Fig. 3: not retired, depth and 42-bit prefix hash
// prefix's.
func liveNode(n *rart.Node, prefix []byte) bool {
	return n.Hdr.Status != wire.StatusInvalid &&
		int(n.Hdr.Depth) == len(prefix) && n.Hdr.PrefixHash == wire.PrefixHash42(prefix)
}

// pathCand is a node a seeded scan reads on lo's path: the length of its
// prefix and the entry that names it — remembered by the leaf-address cache,
// found in the table, or, before the table's batch, none yet.
type pathCand struct {
	l          int
	entry      wire.HashEntry
	remembered bool
}

// scanPath finds lo's path for a seeded scan (DESIGN.md §5.15) as locate finds
// a point operation's landing, for every prefix at once: the filter names the
// prefixes, the leaf-address cache remembers where some of their nodes are,
// and ONE batch of the others' bucket pairs in the table names the rest (none
// when every address is remembered); ONE batch reads every node named. A path
// of one node that only the table names is not asked for: the root's read and
// its frontier's first round reach it as soon, and read its siblings too. What
// the images say is booked as for a point landing: a remembered address whose
// image is not the prefix's live node is unlearned, one leased by someone else
// kept but not trusted (fetchRemembered), a node the table led to remembered,
// and a prefix the table holds no live node of unlearned from the filter (a
// false positive; not while a migration may hold it in the previous epoch's
// table). It returns the nodes that passed, deepest first, in client scratch:
// none when none did.
func (c *Client) scanPath(lo []byte) ([]*rart.Node, error) {
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageHashRead))
	p := c.members.Current()
	c.readScratch = slices.Grow(c.readScratch[:0], len(lo))[:len(lo)]
	cands, ops := c.pathScratch[:0], c.opScratch[:0]
	sfc, node := c.prefixStates(lo)
	for l := len(lo); l >= 1; l-- {
		prefix := lo[:l]
		if !c.filter.Contains(wire.Mix64(sfc[l])) {
			continue
		}
		if c.lac != nil {
			if addr, t, ok := c.lac.LookupNode(wire.Mix64(node[l])); ok {
				cands = append(cands, pathCand{l, wire.HashEntry{Valid: true, Type: t, Addr: addr}, true})
				continue
			}
		}
		if err := c.viewOf(c.placeIn(p, prefix)).PrepareInto(&c.readScratch[l-1], racehash.PlacementHash(prefix)); err != nil {
			return nil, err
		}
		ops = c.readScratch[l-1].AppendOps(ops)
		cands = append(cands, pathCand{l: l})
	}
	c.pathScratch, c.opScratch = cands, ops
	if len(ops) > 0 {
		if len(cands) == 1 {
			return nil, nil
		}
		if err := c.eng.C.Batch(ops); err != nil {
			return nil, err
		}
	}
	// The table's entries, behind the prefixes that asked for them. A pair a
	// stale directory cache fetched says nothing: its prefix is left out, and
	// the cache refreshed for the next operation, which may be a scan again.
	for i, asked := 0, len(cands); i < asked; i++ {
		l, read := cands[i].l, &c.readScratch[cands[i].l-1]
		if cands[i].remembered {
			continue
		}
		if !read.Valid() {
			if err := c.viewOf(c.placeIn(p, lo[:l])).Refresh(); err != nil {
				return nil, err
			}
			continue
		}
		c.candScratch = read.AppendCandidates(c.candScratch[:0], wire.FP12(lo[:l]))
		for _, cand := range c.candScratch {
			cands = append(cands, pathCand{l: l, entry: cand.Entry})
		}
	}
	c.eng.C.SetStage(fabric.StageNodeRead)
	ops = ops[:0]
	for _, pc := range cands {
		if pc.entry.Valid {
			ops = c.eng.AppendNodeRead(ops, pc.entry.Addr, pc.entry.Type)
		}
	}
	c.pathScratch, c.opScratch = cands, ops
	if len(ops) == 0 {
		return nil, nil
	}
	if err := c.eng.C.Batch(ops); err != nil {
		return nil, err
	}
	// Deepest first: the node of prefix length l at len(lo)-l.
	path := slices.Grow(c.nodeScratch[:0], len(lo))[:len(lo)]
	clear(path)
	for _, pc := range cands {
		if !pc.entry.Valid {
			continue
		}
		prefix := lo[:pc.l]
		n, err := c.eng.Decode(pc.entry.Addr, ops[0].Data)
		ops = ops[1:]
		switch live := err == nil && liveNode(n, prefix); {
		case live && (!pc.remembered || n.LeaseWord == 0):
			if path[len(lo)-pc.l] == nil {
				path[len(lo)-pc.l] = n
				if !pc.remembered {
					c.lac.LearnNode(wire.Mix64(node[pc.l]), pc.l, n.Addr, n.Hdr.Type)
				}
			}
		case pc.remembered && !live:
			c.lac.UnlearnNodeAt(wire.Mix64(node[pc.l]), pc.entry.Addr)
		}
	}
	for i := range cands {
		if pc := cands[i]; !pc.remembered && !pc.entry.Valid && c.readScratch[pc.l-1].Valid() &&
			path[len(lo)-pc.l] == nil && c.prevViewFor(p, lo[:pc.l]) == nil {
			atomic.AddUint64(&c.stats.FalsePositives, 1)
			c.filter.Delete(wire.Mix64(sfc[pc.l]))
		}
	}
	c.nodeScratch = path
	return slices.DeleteFunc(path, func(n *rart.Node) bool { return n == nil }), nil
}

// readCandidates fetches candidate inner nodes in one doorbell batch.
// Entries whose size hint proved stale are re-read individually. The
// returned slice is client-owned scratch, valid until the next locate step.
//
// With bet, the batch reading the single candidate leads with the CAS for its
// lease (rart.LeaseRead): the landing of a put that may insert is, more often
// than not, the node the put writes, and the lease CAS depends on the hash
// entry, not on the node's image. The image is the same either way; whoever
// drops it for failing a check gives a won lease back (refuted).
func (c *Client) readCandidates(cands []racehash.Candidate, bet bool) ([]*rart.Node, error) {
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageNodeRead))
	if seen := c.eng.TakeLeased(); len(cands) == 1 && seen != nil && seen.Addr == cands[0].Entry.Addr {
		// Read a moment ago at its remembered address, and met leased: the
		// bet is lost already, the image is the one a READ now would return.
		c.nodeScratch = append(c.nodeScratch[:0], seen)
		return c.nodeScratch, nil
	}
	if bet {
		entry := cands[0].Entry
		n, err := c.eng.LeaseRead(entry.Addr, entry.Type, c.pub.landing()...)
		c.pub.fetched(err)
		if err != nil {
			return nil, err
		}
		if n == nil {
			n, _ = c.eng.ReadNode(entry.Addr, entry.Type) // as for a failed Decode below
		}
		c.nodeScratch = append(c.nodeScratch[:0], n)
		return c.nodeScratch, nil
	}
	ops := c.opScratch[:0]
	for _, cand := range cands {
		ops = c.eng.AppendNodeRead(ops, cand.Entry.Addr, cand.Entry.Type)
	}
	ops = append(ops, c.pub.landing()...)
	c.opScratch = ops
	err := c.eng.C.Batch(ops)
	if c.pub.fetched(err); err != nil {
		return nil, err
	}
	nodes := c.nodeScratch[:0]
	for i, cand := range cands {
		n, err := c.eng.Decode(cand.Entry.Addr, ops[i].Data)
		if err != nil {
			// Stale size hint or garbage behind a collided entry: retry
			// once at full fidelity, and treat a second failure as a
			// non-candidate rather than an operation error.
			if n, err = c.eng.ReadNode(cand.Entry.Addr, cand.Entry.Type); err != nil {
				n = nil
			}
		}
		nodes = append(nodes, n)
	}
	c.nodeScratch = nodes
	return nodes, nil
}

// locateParallel is the filter-less locate (§III-A): the bucket pairs of
// every prefix of the key in one doorbell batch (Θ(L) entries, one round
// trip), then the table path's landing on each prefix's candidates, deepest
// first, with no lease bet (DESIGN.md §5.6). It reads the current epoch's
// tables only: during a migration, a prefix whose entry the migrator has not
// moved yet is missed here, and the root descent finds its node.
func (c *Client) locateParallel(key []byte, maxLen int) (*rart.Node, int, error) {
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageHashRead))
	p := c.members.Current()
	c.readScratch = slices.Grow(c.readScratch[:0], maxLen)[:maxLen]
	ops := c.opScratch[:0]
	for l := 1; l <= maxLen; l++ {
		if err := c.viewOf(c.placeIn(p, key[:l])).PrepareInto(&c.readScratch[l-1], racehash.PlacementHash(key[:l])); err != nil {
			return nil, 0, err
		}
		ops = c.readScratch[l-1].AppendOps(ops)
	}
	c.opScratch = ops
	if err := c.eng.C.Batch(ops); err != nil {
		return nil, 0, err
	}
	for l := maxLen; l >= 1; l-- {
		prefix, read := key[:l], &c.readScratch[l-1]
		view, fp := c.viewOf(c.placeIn(p, prefix)), wire.FP12(prefix)
		// With this prefix's directory cache stale, its pair alone is read again.
		var err error
		if read.Valid() {
			c.candScratch = read.AppendCandidates(c.candScratch[:0], fp)
		} else if c.candScratch, err = view.LookupAppend(c.candScratch[:0], racehash.PlacementHash(prefix), fp); err != nil {
			return nil, 0, err
		}
		n, err := c.land(view, prefix, c.candScratch, false)
		if err != nil {
			return nil, 0, err
		}
		if n != nil {
			atomic.AddUint64(&c.stats.FilterFallbacks, 1)
			return n, l, nil
		}
	}
	atomic.AddUint64(&c.stats.RootStarts, 1)
	root, err := c.readRoot()
	return root, 0, err
}

// readRoot reads the root: the landing of a type switch's re-route that
// lands there too, whose READ fetches the swap's entry pair
// (publisher.landing).
func (c *Client) readRoot() (*rart.Node, error) {
	n, err := c.eng.ReadNode(c.shared.Root, wire.Node256, c.pub.landing()...)
	c.pub.fetched(err)
	if err != nil {
		return nil, fmt.Errorf("core: reading root: %w", err)
	}
	return n, nil
}
