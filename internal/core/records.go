// The replicated record store: the one protocol behind both replica layers.
//
// Anchors (replica.go, durability) and hot replicas (hotreplica.go, read
// spreading) keep the same thing on the memory nodes: immutable versioned
// records — (status, key, value, version) — in a dedicated RACE-style table
// per MN, placed on ring successors of the key, published to completion
// before the write that produced them is acknowledged, last-writer-wins per
// node on the table entry CAS, and unioned with the previous epoch's
// replica set while a membership transition is in flight. A recordStore is
// one client's handle on one such layer; find, publish, remove and sweep
// are written here once. What stays with each layer is its placement
// predicate and its callers' policy.
//
// Publication takes no serialising lock, so two publishers that both
// observe "absent" on a node both insert and the table briefly holds two
// entries for one key (the CAS-publish duplicate class of "Hash Table
// Design for RDMA", arXiv:2606.24073). The store therefore never trusts
// the first match: candidates returns every record of the key, readers and
// publishers pick the highest version, and every publish removes the losers
// it saw.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/wire"
)

// Record layout (immutable once written, except the status word):
//
//	word 0: wire.NodeHeader — Status (Idle: servable; Locked: a promotion
//	        placeholder; Invalid: retired), Type Node4, Depth = len(key),
//	        PrefixHash = the key's 42-bit hash. The hash table's segment
//	        split recovers entry placement by reading this word, so records
//	        must carry it exactly like inner nodes do.
//	word 1: version (LWW order: cluster-wide counter ‖ writer ID)
//	word 2: len(key) | len(value)<<16
//	24..  : key bytes, then value bytes
const (
	recordVersionOff = 8
	recordLensOff    = 16
	recordDataOff    = 24
	// recordSpecRead is the speculative first-read size for records of
	// unknown length: header plus a typical small-key/64-byte-value payload
	// in one round trip.
	recordSpecRead = 256
	// publishMaxRaces bounds how many lost same-key swap races one publish
	// absorbs before giving up (each loss means another writer landed a
	// version in the meantime, so starvation needs a pathological
	// single-key write storm).
	publishMaxRaces = 16
)

// record is one record's content: what publish writes and read decodes.
type record struct {
	status  wire.Status
	key     []byte
	value   []byte
	version uint64
}

func (r record) size() int { return recordDataOff + len(r.key) + len(r.value) }

func recordHeader(st wire.Status, key []byte) uint64 {
	return wire.NodeHeader{
		Status:     st,
		Type:       wire.Node4,
		Depth:      uint16(len(key)),
		PrefixHash: wire.PrefixHash42(key),
	}.Encode()
}

func encodeRecord(r record) []byte {
	img := make([]byte, r.size())
	binary.LittleEndian.PutUint64(img[0:], recordHeader(r.status, r.key))
	binary.LittleEndian.PutUint64(img[recordVersionOff:], r.version)
	binary.LittleEndian.PutUint64(img[recordLensOff:], uint64(len(r.key))|uint64(len(r.value))<<16)
	copy(img[recordDataOff:], r.key)
	copy(img[recordDataOff+len(r.key):], r.value)
	return img
}

// decodeRecordWords parses the three fixed words of a record image.
func decodeRecordWords(buf []byte) (st wire.Status, version uint64, keyLen, valLen int) {
	st = wire.DecodeNodeHeader(binary.LittleEndian.Uint64(buf[0:])).Status
	version = binary.LittleEndian.Uint64(buf[recordVersionOff:])
	lens := binary.LittleEndian.Uint64(buf[recordLensOff:])
	return st, version, int(lens & 0xffff), int(lens >> 16)
}

// recordCand is one table entry of a key together with its decoded record.
type recordCand struct {
	entry wire.HashEntry
	record
}

// newest returns the index of the highest-version candidate, -1 for none.
func newest(cands []recordCand) int {
	best := -1
	for i := range cands {
		if best < 0 || cands[i].version > cands[best].version {
			best = i
		}
	}
	return best
}

// recordTables is the cluster-wide half of a record layer, shared by every
// client: the per-MN tables (copy-on-write; grows when elastic scale-out
// gives a joining node a table) and the version counter.
type recordTables struct {
	byNode atomic.Pointer[map[mem.NodeID]racehash.Table]
	// ver issues LWW versions. Shared across clients (modelling a CN-side
	// timestamp oracle) so versions are totally ordered cluster-wide: a
	// fresh client's write must outrank records written earlier by
	// longer-lived clients.
	ver atomic.Uint64
}

// bootstrapTables creates one racehash table sized for perNode entries on
// each of nodes. Runs at cluster-setup time with direct region access.
func bootstrapTables(f *fabric.Fabric, alloc *mem.Allocator, nodes []mem.NodeID, perNode int) (map[mem.NodeID]racehash.Table, error) {
	tables := make(map[mem.NodeID]racehash.Table, len(nodes))
	for _, node := range nodes {
		t, err := racehash.Bootstrap(f.Region(node), alloc, node, perNode)
		if err != nil {
			return nil, fmt.Errorf("table on node %d: %w", node, err)
		}
		tables[node] = t
	}
	return tables, nil
}

func newRecordTables(tables map[mem.NodeID]racehash.Table) *recordTables {
	rt := &recordTables{}
	rt.byNode.Store(&tables)
	return rt
}

// hosts reports whether node holds a table of this layer.
func (rt *recordTables) hosts(node mem.NodeID) bool {
	_, ok := (*rt.byNode.Load())[node]
	return ok
}

// extend registers a joining node's table.
func (rt *recordTables) extend(node mem.NodeID, t racehash.Table) {
	for {
		old := rt.byNode.Load()
		next := extendTables(*old, node, t)
		if rt.byNode.CompareAndSwap(old, &next) {
			return
		}
	}
}

// unionNodes appends to dst every node of more that dst does not hold yet.
func unionNodes(dst, more []mem.NodeID) []mem.NodeID {
	for _, n := range more {
		if !slices.Contains(dst, n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// recordStore is one client's handle on one record layer. Like the Client
// that owns it, it is single-goroutine.
type recordStore struct {
	fc     *fabric.Client
	alloc  *mem.Allocator
	tables *recordTables
	// r and eligible are the layer's placement: a key's replica set is the
	// first r distinct ring successors that are eligible — the one thing the
	// layers genuinely disagree on (anchors: healthy nodes, so writes route
	// around dead ones; hot: nodes hosting a table, health-blind, so writers
	// provably cover every record a reader could reach).
	r        int
	eligible func(mem.NodeID) bool
	// routed says readers cache record addresses (the hot route caches), so
	// an image that leaves the table must be retired — its status word
	// overwritten — or a cached address would keep serving it.
	routed bool
	// stage annotates the store's verbs (StageNone: anchors are unstaged).
	stage fabric.Stage

	views  map[mem.NodeID]*racehash.View // grown lazily, one per node touched
	lookup []racehash.Candidate          // bucket-lookup scratch
	nodes  []mem.NodeID                  // target-resolution scratch
}

// nextVersion returns a fresh LWW version from the layer's cluster-wide
// counter, tagged with the client ID for debuggability. Totally ordered
// across clients — exact when each key has a single writer at a time,
// last-writer-wins under concurrent writers to the same key.
func (s *recordStore) nextVersion() uint64 {
	return s.tables.ver.Add(1)<<8 | uint64(s.fc.ID())&0xff
}

// targets resolves key's replica set under placement p into the store's
// scratch (valid until the next call). withPrev unions in the previous
// epoch's set while a transition is in flight: records published against
// the old ring must stay covered until cutover. curN is how many leading
// entries come from p's own ring.
func (s *recordStore) targets(p *Placement, key []byte, withPrev bool) (ts []mem.NodeID, curN int) {
	ts = s.place(s.nodes[:0], p.Ring, key)
	curN = len(ts)
	if withPrev && p.Prev != nil {
		ts = unionNodes(ts, s.place(nil, p.Prev.Ring, key))
	}
	s.nodes = ts
	return ts, curN
}

// place appends key's replica set on ring to dst (fewer than r nodes when
// fewer are eligible).
func (s *recordStore) place(dst []mem.NodeID, ring *consistenthash.Ring, key []byte) []mem.NodeID {
	start := len(dst)
	for _, o := range ring.OwnersKey(key, len(ring.Nodes())) {
		if len(dst)-start == s.r {
			break
		}
		if s.eligible(o) {
			dst = append(dst, o)
		}
	}
	return dst
}

func (s *recordStore) viewOf(node mem.NodeID) (*racehash.View, error) {
	if v, ok := s.views[node]; ok {
		return v, nil
	}
	t, ok := (*s.tables.byNode.Load())[node]
	if !ok {
		return nil, fmt.Errorf("core: no record table on node %d", node)
	}
	v := racehash.NewView(t, s.fc)
	s.views[node] = v
	return v, nil
}

func entryOfRecord(key []byte, addr mem.Addr) wire.HashEntry {
	return wire.HashEntry{Valid: true, FP: wire.FP12(key), Type: wire.Node4, Addr: addr}
}

// room returns how many bytes lie between addr and the end of its region:
// the clamp every read of a record of unknown or remembered size applies.
func (s *recordStore) room(addr mem.Addr) uint64 {
	size := s.fc.Fabric().RegionSize(addr.Node())
	if addr.Offset() >= size {
		return 0
	}
	return size - addr.Offset()
}

// read fetches and decodes the record at addr: a speculative read clamped
// at the region boundary, with a follow-up read when the record outgrows
// the speculation. The returned key and value alias the read buffer.
func (s *recordStore) read(addr mem.Addr) (record, error) {
	room := s.room(addr)
	if room < recordDataOff {
		return record{}, fmt.Errorf("core: record at %v truncated by region boundary", addr)
	}
	buf := make([]byte, min(recordSpecRead, room))
	if err := s.fc.Read(addr, buf); err != nil {
		return record{}, err
	}
	st, version, keyLen, valLen := decodeRecordWords(buf)
	total := recordDataOff + keyLen + valLen
	if keyLen == 0 || keyLen > wire.MaxDepth || uint64(total) > room {
		return record{}, fmt.Errorf("core: malformed record at %v (keyLen=%d valLen=%d)", addr, keyLen, valLen)
	}
	if total > len(buf) {
		buf = make([]byte, total)
		if err := s.fc.Read(addr, buf); err != nil {
			return record{}, err
		}
	}
	valOff := recordDataOff + keyLen
	return record{status: st, key: buf[recordDataOff:valOff:valOff], value: buf[valOff:total:total], version: version}, nil
}

// write allocates and writes one record image on node — the only place a
// record comes into being.
func (s *recordStore) write(node mem.NodeID, rec record) (mem.Addr, error) {
	img := encodeRecord(rec)
	addr, err := s.alloc.Alloc(node, mem.ClassLeaf, uint64(len(img)))
	if err != nil {
		return 0, err
	}
	return addr, s.fc.Write(addr, img)
}

// retire overwrites a record's status word with StatusInvalid so a cached
// address refutes on its next read instead of serving the image. One 8-byte
// write; the bump allocator cannot reclaim the bytes.
func (s *recordStore) retire(addr mem.Addr, key []byte) error {
	defer s.fc.SetStage(s.fc.SetStage(s.stage))
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], recordHeader(wire.StatusInvalid, key))
	return s.fc.Write(addr, w[:])
}

// candidates returns every record of key on node, decoded: each table entry
// with the key's fingerprint whose record stores exactly key. Beyond the
// bucket-pair read it costs one record read per fingerprint match — one in
// the common case, more only on a 12-bit collision or a duplicate.
func (s *recordStore) candidates(node mem.NodeID, key []byte) ([]recordCand, error) {
	view, err := s.viewOf(node)
	if err != nil {
		return nil, err
	}
	defer s.fc.SetStage(s.fc.SetStage(s.stage))
	s.lookup, err = view.LookupAppend(s.lookup[:0], racehash.PlacementHash(key), wire.FP12(key))
	if err != nil {
		return nil, err
	}
	var out []recordCand
	for _, cand := range s.lookup {
		rec, err := s.read(cand.Entry.Addr)
		if err != nil {
			return nil, err
		}
		if bytes.Equal(rec.key, key) {
			out = append(out, recordCand{cand.Entry, rec})
		}
	}
	return out, nil
}

// drop removes one entry of key from node's table (CAS-exact, so a
// concurrently swapped entry survives) and, in a routed store, retires its
// image — even when the remove failed: an unservable record is the safe
// direction for a cache. A failed retire is an error too: the image may still
// be servable through another CN's route, so the caller must not acknowledge.
func (s *recordStore) drop(node mem.NodeID, key []byte, e wire.HashEntry) error {
	view, err := s.viewOf(node)
	if err != nil {
		return err
	}
	defer s.fc.SetStage(s.fc.SetStage(s.stage))
	err = view.Remove(racehash.PlacementHash(key), e)
	if s.routed {
		if rerr := s.retire(e.Addr, key); err == nil {
			err = rerr
		}
	}
	return err
}

// dedup drops every candidate except keep: losers of racing publishes.
// Best effort — a survivor is dropped by the next publish that sees it.
func (s *recordStore) dedup(node mem.NodeID, key []byte, cands []recordCand, keep int) {
	for i := range cands {
		if i != keep {
			_ = s.drop(node, key, cands[i].entry)
		}
	}
}

// publishMode is what a publish may do to the node's table.
type publishMode int

const (
	// publishUpsert inserts the record or swaps it over an older one:
	// anchor writes, repair, migration.
	publishUpsert publishMode = iota
	// publishSwapOnly only ever replaces an existing record (hot refresh,
	// the promoter's final publish): absence means the key is not, or no
	// longer, kept on the node, and inserting could resurrect a
	// concurrently deleted key.
	publishSwapOnly
	// publishIfAbsent inserts only onto a node that holds nothing for the
	// key (the promoter's Locked placeholder): it must never displace a
	// live record.
	publishIfAbsent
)

// published is the outcome of one publish.
type published struct {
	// addr and size locate the record now live for the key on the node —
	// ours, or the winner's that outranked it; servable says it is Idle.
	// Zero when the node holds nothing for the key.
	addr     mem.Addr
	size     int
	servable bool
	existed  bool // the node already held a record of the key
	wrote    bool // our image went live
}

// publish makes rec the node's record of its key unless a record of equal
// or higher version is already there: pick the highest-version candidate,
// keep it if it outranks rec, else write rec's image (once — it is
// immutable, so one allocation serves every retry) and CAS its entry in,
// Insert onto an empty node and SwapIfPresent over the pick. No lock
// serialises publishers: a lost swap race means another writer landed a
// version in between, so the loser re-reads and re-decides by version. The
// winner retires the superseded image if the store is routed (a publish whose
// retire failed is an error, like one whose entry CAS failed) and drops every
// other candidate it saw.
//
// An exit that provably never published a written image — a newer winner
// adopted after a lost race, the record vanished, the race budget ran out —
// retires it, so no live-looking Idle orphan floats in dead memory. An
// entry CAS that failed with an error is not such an exit: the completion
// may have been lost after the CAS landed, and the image may be live.
func (s *recordStore) publish(node mem.NodeID, rec record, mode publishMode) (published, error) {
	view, err := s.viewOf(node)
	if err != nil {
		return published{}, err
	}
	defer s.fc.SetStage(s.fc.SetStage(s.stage))
	h42 := racehash.PlacementHash(rec.key)
	var own wire.HashEntry // the entry of our image, once written
	abandon := func() {
		if own.Valid {
			// Best effort: no table entry and no route ever named this image.
			_ = s.retire(own.Addr, rec.key)
		}
	}
	for attempt := 0; attempt < publishMaxRaces; attempt++ {
		cands, err := s.candidates(node, rec.key)
		if err != nil {
			abandon()
			return published{}, err
		}
		best := newest(cands)
		switch {
		case best < 0 && mode == publishSwapOnly:
			abandon()
			return published{}, nil
		case best >= 0 && (mode == publishIfAbsent || cands[best].version >= rec.version):
			abandon()
			if mode != publishIfAbsent {
				s.dedup(node, rec.key, cands, best)
			}
			w := cands[best]
			return published{addr: w.entry.Addr, size: w.size(), servable: w.status == wire.StatusIdle, existed: true}, nil
		}
		if !own.Valid {
			addr, err := s.write(node, rec)
			if err != nil {
				return published{}, err
			}
			own = entryOfRecord(rec.key, addr)
		}
		ours := published{addr: own.Addr, size: rec.size(), servable: rec.status == wire.StatusIdle, existed: best >= 0, wrote: true}
		if best < 0 {
			if err := view.Insert(h42, own, s.alloc); err != nil {
				return published{}, err
			}
			return ours, nil
		}
		won, err := view.SwapIfPresent(h42, cands[best].entry, own)
		if err != nil {
			return published{}, err
		}
		if won {
			if s.routed {
				// Our image is live, but until the superseded one is retired
				// another CN's route still serves it: no ack without this.
				if err := s.retire(cands[best].entry.Addr, rec.key); err != nil {
					return published{}, err
				}
			}
			s.dedup(node, rec.key, cands, best)
			return ours, nil
		}
	}
	abandon()
	return published{}, fmt.Errorf("core: publish of %q on node %d lost %d consecutive swap races", rec.key, node, publishMaxRaces)
}

// remove deletes every record of key on node — or, with only, every one
// only accepts — reporting whether it dropped any. No tombstones: see
// docs/failure-model.md.
func (s *recordStore) remove(node mem.NodeID, key []byte, only func(recordCand) bool) (present bool, err error) {
	cands, err := s.candidates(node, key)
	if err != nil {
		return false, err
	}
	for i := range cands {
		if only != nil && !only(cands[i]) {
			continue
		}
		if err := s.drop(node, key, cands[i].entry); err != nil {
			return present, err
		}
		present = true
	}
	return present, nil
}

// sweepTally counts what one table sweep saw and did.
type sweepTally struct {
	scanned uint64 // records read
	copied  uint64 // replicas republished onto a target that lacked the version
	removed uint64 // records retired from a node that left their replica set
	failed  uint64 // publishes or removes that errored; left for the next sweep
	unread  uint64 // records that could not be read; left for the next sweep
}

// sweep walks src's table and LWW-republishes every record onto the other
// members of its key's replica set under p — idempotent, and safe against
// concurrent writers by versioning, so serving never stops. With moveOut,
// a record whose replica set no longer includes src is removed from src
// once every target confirmed the copy (remove-after-copy: the replica
// count never dips mid-transition). The walk is a best-effort snapshot
// under concurrent splits, so callers judge convergence across sweeps.
func (s *recordStore) sweep(p *Placement, src mem.NodeID, moveOut bool) (sweepTally, error) {
	var t sweepTally
	view, err := s.viewOf(src)
	if err != nil {
		return t, err
	}
	defer s.fc.SetStage(s.fc.SetStage(s.stage))
	err = view.Walk(func(e wire.HashEntry) error {
		rec, err := s.read(e.Addr)
		if err != nil {
			t.unread++
			return nil
		}
		t.scanned++
		home, settled := false, true
		targets, _ := s.targets(p, rec.key, false)
		for _, n := range targets {
			if n == src {
				home = true
				continue
			}
			pub, err := s.publish(n, rec, publishUpsert)
			if err != nil {
				settled = false
				t.failed++
			} else if pub.wrote {
				t.copied++
			}
		}
		if moveOut && !home && settled {
			if err := s.drop(src, rec.key, e); err != nil {
				t.failed++
			} else {
				t.removed++
			}
		}
		return nil
	})
	return t, err
}
