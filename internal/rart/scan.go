package rart

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// KV is one scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// BootstrapRoot creates the tree's root — a Node256 with the empty prefix,
// so it never type-switches and its address stays valid forever — using
// direct region access at cluster-setup time.
func BootstrapRoot(region *mem.Region, alloc *mem.Allocator, node mem.NodeID) (mem.Addr, error) {
	root := NewNode(wire.Node256, nil, 0)
	addr, err := alloc.Alloc(node, mem.ClassInner, wire.NodeSize(wire.Node256))
	if err != nil {
		return 0, err
	}
	region.Write(addr.Offset(), root.Encode())
	return addr, nil
}

func keyInRange(k, lo, hi []byte) bool {
	if lo != nil && bytes.Compare(k, lo) < 0 {
		return false
	}
	if hi != nil && bytes.Compare(k, hi) > 0 {
		return false
	}
	return true
}

// scanChunk caps the READs of one scan round (one doorbell batch): large
// enough to amortize round trips, small enough that a round stays one NIC
// burst. It is the only cap; how much of it a limit-bounded round uses is
// worked out from the slots themselves (scanner.plan).
const scanChunk = 32

// scanTries bounds how often one frontier entry is read again — a torn, locked
// or under-read image, a retired object followed through its parent's slot —
// before the scan gives up with ErrRestart and its caller starts over.
const scanTries = 3

// scanYield is the number of keys an unopened inner child is taken to bring,
// by the type its parent's slot records: the midpoint of the fan-out range
// of that type, every child being at least one key. Taking the lower end of
// the range instead saves round trips but fetches nodes the limit never
// reaches; the capacity costs a round more often than it saves a node.
var scanYield = [...]int{wire.Node4: 3, wire.Node16: 10, wire.Node48: 32, wire.Node256: 152}

// The states of a frontier entry.
const (
	entPending uint8 = iota // the object the slot names is still to be read
	entStale                // that object was retired or is off its path: the slot word is to be read again
	entLeaf                 // a leaf image, in range, waiting for everything ahead of it
	entNode                 // an inner node image: a cursor over its children not yet spliced in
	entDropped              // out of range, deleted, or used up
)

// scanEnt is one entry of a scan's frontier: a child slot of a node the scan
// has opened, from before its READ until its keys are emitted. Entries stand
// in key order and cover disjoint key ranges, and an entry keeps its place
// whatever its slot turns out to name.
type scanEnt struct {
	slot   wire.Slot // what the parent's slot word named when last read
	parent mem.Addr  // the node holding that word (unused for the root)
	img    []byte    // entLeaf, entNode: the image, in the engine's arena
	want   uint32    // bytes the next READ of the object asks for; 0 = by slot
	off    uint16    // offset of the slot word within the parent
	base   uint16    // parent's depth + 1: where the partial of an inner child must start
	next   int16     // entNode: -1 before the EOL leaf, else the lowest edge byte not yet spliced in
	ptype  wire.NodeType
	state  uint8
	tries  uint8
	// onLo (onHi) says the prefix the entry hangs off — the parent's full
	// prefix plus the edge byte — is a prefix of lo (hi), so that bound
	// still cuts through the subtree; otherwise every key below lies on the
	// inner side of it. cont says the entry lies past a seeded chain, where
	// the scanner's cont is the lower bound, not lo (scanner.seed).
	onLo, onHi, cont bool
}

// scanner carries one range scan (paper §IV Scan) as an ordered frontier: the
// not-yet-emitted child slots of ALL opened nodes, in key order. A round reads
// the head of the frontier in one doorbell batch; a fetched inner node stays
// in place as a cursor and splices its in-range children in ahead of itself
// as later rounds reach them, a fetched leaf waits in place until everything
// ahead of it is emitted and is never read twice. A scan therefore costs about
// one round per tree level, not one per visited node. The scanner lives in
// the engine so that its frontier and op list are reused; its images are the
// engine's arena's.
type scanner struct {
	e      *Engine
	lo, hi []byte
	limit  int
	out    []KV // the emitted keys and values, in the arena until the scan ends
	size   int  // their bytes

	front, spare []scanEnt // the frontier from head on, and the buffer the next round rebuilds it in
	head         int
	ops          []fabric.Op
	sel          []int // ops[i] reads for front[sel[i]]
	// root is where a seeded scan goes on past its chain, from cont, the
	// successor of the chain top's prefix, cut from succ (seed).
	root       mem.Addr
	cont, succ []byte
	// What the scan cost, booked into EngineStats.Scan* when it ends.
	rounds, reads, nodeReads, reresolved, seeded, continued uint64
}

// ScanFrom collects keys in [lo, hi] (inclusive; nil bounds open) in
// ascending order starting at the root node, stopping after limit results
// when limit > 0. Every key committed before the call and not deleted before
// it returns is among them (up to the limit), none twice; keys written
// meanwhile may or may not be. It is ScanPath with the one-node path.
//
// With batched=true each round reads as many frontier entries as the limit
// still lacks keys, judged by what the slots say, up to scanChunk — the
// mechanism behind the YCSB-E advantage of Sphinx/SMART over the naive ART
// port (§V-B); with batched=false a round is one entry, i.e. one round trip
// per visited object, in depth-first order. Either way a limit-bounded scan
// touches only the subtrees it emits from, plus what the estimate overshoots.
func (e *Engine) ScanFrom(root *Node, lo, hi []byte, limit int, batched bool) ([]KV, error) {
	return e.ScanPath([]*Node{root}, root.Addr, lo, hi, limit, batched)
}

// ScanPath is ScanFrom started where a point operation on lo starts: path
// holds images of inner nodes on lo's path, deepest first, each verified as
// its prefix's live node, and root is the root's address. path[0], the
// landing, is read from lo on; each node above it that the chain reaches
// (seed) from the edge past lo's; the rest of the range, past the prefix of
// the chain's top, from the root. The guarantee is ScanFrom's, piece by
// piece: the two pieces' ranges are disjoint.
func (e *Engine) ScanPath(path []*Node, root mem.Addr, lo, hi []byte, limit int, batched bool) ([]KV, error) {
	defer e.C.SetStage(e.C.SetStage(fabric.StageScan))
	s := &e.scan
	*s = scanner{e: e, lo: lo, hi: hi, limit: limit, root: root, succ: s.succ,
		front: s.front[:0], spare: s.spare[:0], ops: s.ops[:0], sel: s.sel[:0]}
	window := scanChunk
	if !batched {
		window = 1
	}
	s.seed(path)
	var err error
	for err == nil && s.drain() {
		s.plan(window)
		s.rounds++
		if err = e.C.Batch(s.ops); err == nil {
			err = s.settle()
		}
	}
	atomic.AddUint64(&e.stats.ScanRounds, s.rounds)
	atomic.AddUint64(&e.stats.ScanReads, s.reads)
	atomic.AddUint64(&e.stats.ScanNodeReads, s.nodeReads)
	atomic.AddUint64(&e.stats.ScanEmitted, uint64(len(s.out)))
	atomic.AddUint64(&e.stats.ScanReresolved, s.reresolved)
	if s.seeded > 0 {
		atomic.AddUint64(&e.stats.ScanSeeded, 1)
		atomic.AddUint64(&e.stats.ScanSeedNodes, s.seeded)
		atomic.AddUint64(&e.stats.ScanContinued, s.continued)
	}
	// The engine keeps the scratch, not the caller's bounds and results.
	out := s.out
	s.lo, s.hi, s.out, s.cont = nil, nil, nil, nil
	if err != nil {
		return nil, err
	}
	// Only now are the results copied out of the arena: into one block, each
	// key and value with its own capacity, so an append to one cannot reach
	// the next.
	block := make([]byte, 0, s.size)
	for i, kv := range out {
		at, k := len(block), len(kv.Key)
		block = append(append(block, kv.Key...), kv.Value...)
		out[i] = KV{Key: block[at : at+k : at+k], Value: block[at+k : len(block) : len(block)]}
	}
	return out, nil
}

// seed lays the frontier out from path. The landing path[0] is a cursor from
// lo on. A node above it continues the chain while its depth is where the
// partial of the chain's top so far begins, less the edge byte: then it is
// the top's parent, and a cursor past its edge toward lo — its EOL key and
// the children before that edge lie below lo. A node the chain does not reach
// leaves a gap whose keys no cursor holds, so the chain ends below it, and so
// does the cursors' range: the keys with the top's prefix. Past them the scan
// goes on from the root, from cont, the successor of that prefix: the root is
// one more entry behind the cursors, read when a round reaches it like any
// other. A bound cuts through a cursor's subtree — onLo, onHi — only when it
// has the node's prefix, lo[:depth].
func (s *scanner) seed(path []*Node) {
	top := path[0]
	s.front = append(s.front, s.cursor(top, -1, s.lo != nil))
	for _, n := range path[1:] {
		if int(n.Hdr.Depth) != top.Base()-1 {
			break
		}
		top = n
		s.front = append(s.front, s.cursor(n, int16(s.lo[n.Hdr.Depth])+1, false))
	}
	if path[0].Hdr.Depth == 0 {
		return
	}
	s.seeded = uint64(len(s.front))
	if s.cont = successor(s.succ[:0], s.lo[:top.Hdr.Depth]); s.cont != nil {
		s.succ = s.cont[:0]
	}
	if s.cont != nil && (s.hi == nil || bytes.Compare(s.cont, s.hi) <= 0) {
		s.front = append(s.front, scanEnt{slot: wire.Slot{Addr: s.root, ChildType: wire.Node256}, onLo: true, onHi: s.hi != nil, cont: true})
	}
}

// cursor is the frontier entry of an opened node of the chain, its image from
// the caller's path copied into the arena.
func (s *scanner) cursor(n *Node, next int16, onLo bool) scanEnt {
	return scanEnt{state: entNode, slot: wire.Slot{Addr: n.Addr}, next: next, img: s.e.encodeNode(n),
		onLo: onLo, onHi: s.hi != nil && bytes.HasPrefix(s.hi, s.lo[:n.Hdr.Depth])}
}

// successor appends to dst the least key above every key with prefix p: p
// with its trailing 0xff bytes cut and the last byte left raised by one; nil
// when p is all 0xff and nothing follows it.
func successor(dst, p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xff {
			return append(append(dst, p[:i]...), p[i]+1)
		}
	}
	return nil
}

// loOf is the lower bound of ent's part of the range.
func (s *scanner) loOf(ent *scanEnt) []byte {
	if ent.cont {
		return s.cont
	}
	return s.lo
}

// drain emits the resolved head of the frontier and reports whether the scan
// goes on: false once the limit is reached or nothing is left.
func (s *scanner) drain() bool {
	for ; s.head < len(s.front); s.head++ {
		ent := &s.front[s.head]
		switch ent.state {
		case entLeaf:
			// Key and value lie back to back in the image.
			h := wire.DecodeLeafHeader(binary.LittleEndian.Uint64(ent.img))
			k, v := wire.LeafHeaderSize+int(h.KeyLen), wire.LeafHeaderSize+int(h.KeyLen)+int(h.ValLen)
			if s.out == nil && s.limit > 0 {
				s.out = make([]KV, 0, min(s.limit, 2*scanChunk))
			}
			s.out = append(s.out, KV{Key: ent.img[wire.LeafHeaderSize:k], Value: ent.img[k:v]})
			s.size += v - wire.LeafHeaderSize
			if len(s.out) == s.limit {
				return false
			}
		case entNode:
			if _, _, more := s.peek(ent); more {
				return true
			}
		case entPending, entStale:
			return true
		}
	}
	return false
}

// plan rebuilds the frontier for the next round and picks what the round
// reads: walking in key order, it adds up what the limit can already count
// on — a waiting leaf is one key, a leaf slot one, an inner child what
// scanYield says, or one if lo runs through it (its keys from lo on may be
// few) — and posts a READ for every entry it passes, splicing the children
// of opened nodes in as it reaches them, until the limit is covered or the
// window is full. What lies behind that point is carried over unread.
func (s *scanner) plan(window int) {
	next := s.spare[:0]
	s.ops, s.sel = s.ops[:0], s.sel[:0]
	have := len(s.out)
	open := func() bool { return len(s.ops) < window && (s.limit == 0 || have < s.limit) }
	for i := s.head; i < len(s.front); i++ {
		if !open() {
			next = append(next, s.front[i:]...)
			break
		}
		ent := s.front[i]
		switch ent.state {
		case entLeaf:
			have++
			next = append(next, ent)
		case entPending, entStale:
			next = s.post(next, ent)
			have += s.yield(&ent)
		case entNode:
			for open() {
				child, after, ok := s.peek(&ent)
				if !ok {
					ent.state = entDropped
					break
				}
				ent.next = int16(after)
				next = s.post(next, child)
				have += s.yield(&child)
			}
			if ent.state == entNode {
				next = append(next, ent)
			}
		}
	}
	s.front, s.spare, s.head = next, s.front[:0], 0
}

// yield is what reading ent is taken to add to the keys the limit can count on.
func (s *scanner) yield(ent *scanEnt) int {
	switch {
	case ent.slot.Leaf || ent.onLo:
		return 1
	case s.e.Cfg.Prealloc256:
		// Every node is born with the Node256 type, which therefore says
		// nothing about its fan-out; most nodes of a radix tree are small.
		return scanYield[wire.Node16]
	}
	return scanYield[ent.slot.ChildType&3]
}

// post appends ent to the frontier being built together with the READ the
// round owes it: the object its slot names, or the slot word itself.
func (s *scanner) post(next []scanEnt, ent scanEnt) []scanEnt {
	addr, size := ent.slot.Addr, uint64(ent.want)
	switch {
	case ent.state == entStale:
		addr, size = ent.parent.Add(uint64(ent.off)), 8
	case size != 0:
	case ent.slot.Leaf:
		size = s.e.clampRead(addr, defaultLeafSpecRead)
	default:
		size = s.e.nodeSize(ent.slot.ChildType)
	}
	s.sel = append(s.sel, len(next))
	s.ops = append(s.ops, fabric.Op{Kind: fabric.Read, Addr: addr, Data: s.e.arena.buf(size)})
	return append(next, ent)
}

// peek returns the entry for the next in-range child of the opened node n,
// and the cursor position behind that child, without moving the cursor.
func (s *scanner) peek(n *scanEnt) (child scanEnt, after int, ok bool) {
	hdr := wire.DecodeNodeHeader(binary.LittleEndian.Uint64(n.img))
	depth := int(hdr.Depth)
	addr := n.slot.Addr
	child = scanEnt{parent: addr, ptype: hdr.Type, base: hdr.Depth + 1, cont: n.cont}
	// lo cuts below this node only if it runs on past the node's prefix.
	loEdge, hiEdge := -1, 255
	if lo := s.loOf(n); n.onLo && len(lo) > depth {
		loEdge = int(lo[depth])
	}
	if n.onHi {
		hiEdge = -1 // hi ends here: it admits the EOL key and no child
		if len(s.hi) > depth {
			hiEdge = int(s.hi[depth])
		}
	}
	from := int(n.next)
	if from < 0 {
		from = 0
		// The EOL leaf holds the node's own prefix as its key: in range
		// unless lo runs on past it.
		if w := binary.LittleEndian.Uint64(n.img[wire.EOLSlotOff:]); loEdge < 0 && w>>62 == 3 {
			child.slot, child.off = wire.DecodeSlot(w), wire.EOLSlotOff
			return child, 0, true
		}
	}
	w, idx, edge := nextChild(n.img, hdr.Type, max(from, loEdge))
	if edge > hiEdge {
		return child, 256, false
	}
	child.slot = wire.DecodeSlot(w)
	child.off = uint16(wire.SlotsOff(hdr.Type)) + 8*uint16(idx)
	child.onLo, child.onHi = n.onLo && edge == loEdge, n.onHi && edge == hiEdge
	return child, edge + 1, true
}

// nextChild finds, in the raw image of a node of type t, the present child
// with the lowest edge byte ≥ from: its slot word, slot index and edge byte
// (256 if there is none). Nothing is materialised or sorted, so a node the
// scan uses two children of costs two probes.
func nextChild(img []byte, t wire.NodeType, from int) (w uint64, idx, edge int) {
	slots := img[wire.SlotsOff(t):]
	edge = 256
	switch t {
	case wire.Node4, wire.Node16:
		for i := 0; i < t.Capacity(); i++ {
			sw := binary.LittleEndian.Uint64(slots[8*i:])
			if b := int(byte(sw >> 54)); sw>>63 == 1 && b >= from && b < edge {
				w, idx, edge = sw, i, b
			}
		}
	default: // Node48 through its index, Node256 directly: probe the edge bytes upward
		for b := from; b < 256; b++ {
			i := b
			if t == wire.Node48 {
				if i = int(img[wire.SlotBase+b]) - 1; i < 0 || i >= t.Capacity() {
					continue
				}
			}
			if sw := binary.LittleEndian.Uint64(slots[8*i:]); sw>>63 == 1 {
				return sw, i, b
			}
		}
	}
	return w, idx, edge
}

// settle takes in what the round read, entry by entry.
func (s *scanner) settle() error {
	for i, at := range s.sel {
		ent, buf := &s.front[at], s.ops[i].Data
		var err error
		switch {
		case ent.state == entStale:
			err = s.followSlot(ent, binary.LittleEndian.Uint64(buf))
		case ent.slot.Leaf:
			s.reads++
			err = s.gotLeaf(ent, buf)
		default:
			s.reads++
			s.nodeReads++
			err = s.gotNode(ent, buf)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// again leaves ent for the next round to read once more (as it stands, or
// through its parent's slot when stale), unless it has had its tries.
func (s *scanner) again(ent *scanEnt, stale bool, why string) error {
	if ent.tries++; ent.tries > scanTries {
		return fmt.Errorf("scan: %s at %v: %w", why, ent.slot.Addr, ErrRestart)
	}
	if stale {
		ent.state = entStale
		s.reresolved++
	}
	return nil
}

func (s *scanner) gotLeaf(ent *scanEnt, buf []byte) error {
	sight, _, hdr, key, _ := sightOf(buf)
	switch sight {
	case leafRetired:
		// Retired by an out-of-place update, a relocation or a delete; the
		// slot says which.
		return s.again(ent, true, "leaf retired")
	case leafLonger:
		ent.want = uint32(s.e.clampRead(ent.slot.Addr, uint64(hdr.Units)*wire.LeafUnit))
		return s.again(ent, false, "leaf longer than read")
	case leafUnsettled:
		// An in-place update is one WRITE from done, so the next round
		// usually finds the leaf whole. A lock that outlives the tries is
		// ReadLeaf's to wait out or break.
		if ent.tries++; ent.tries <= scanTries {
			return nil
		}
		l, err := s.e.ReadLeaf(ent.slot.Addr, Via{ent.parent, ent.parent.Add(uint64(ent.off))})
		if err != nil {
			return err
		}
		if l.Status == wire.StatusInvalid {
			return s.again(ent, true, "leaf retired")
		}
		key = l.Key
		buf = wire.EncodeLeafInto(s.e.arena.buf(uint64(l.Units)*wire.LeafUnit), l.Status, l.Units, l.Key, l.Value)
	}
	if !keyInRange(key, s.loOf(ent), s.hi) {
		ent.state = entDropped
		return nil
	}
	ent.state, ent.img = entLeaf, buf
	return nil
}

func (s *scanner) gotNode(ent *scanEnt, buf []byte) error {
	hdr, err := decodeNodeHeader(buf)
	if err != nil {
		return s.again(ent, false, err.Error())
	}
	if need := wire.NodeSize(hdr.Type); need > uint64(len(buf)) {
		ent.want = uint32(need)
		return s.again(ent, false, "node larger than its slot says")
	}
	if hdr.Status == wire.StatusInvalid {
		return s.again(ent, true, "node retired")
	}
	if hdr.Depth-uint16(hdr.PartialLen) != ent.base {
		// A compressed-path split shortened the partial after the parent
		// was read: the bytes now missing sit in a node the parent's slot
		// names by now, or will in a moment.
		return s.again(ent, true, "node partial split")
	}
	// Settle the bounds against the partial: the subtree may fall wholly
	// outside the range, or wholly inside a bound that cut its parent.
	partial := buf[wire.PartialOff : wire.PartialOff+int(hdr.PartialLen)]
	var lo, hi int
	if ent.onLo {
		lo = sideOf(partial, s.loOf(ent)[ent.base:])
	}
	if ent.onHi {
		hi = sideOf(partial, s.hi[ent.base:])
	}
	if lo < 0 || hi > 0 {
		ent.state = entDropped
		return nil
	}
	ent.onLo, ent.onHi = ent.onLo && lo == 0, ent.onHi && hi == 0
	ent.state, ent.img, ent.next = entNode, buf, -1
	if ent.cont && hdr.Depth == 0 {
		s.continued = 1
		s.e.note(fabric.StageScan, "scan: seeded chain fell short, going on from the root past its top's prefix")
	}
	return nil
}

// sideOf places a subtree whose prefix runs on with partial against a bound
// that runs on with rest: -1 wholly below the bound, +1 wholly above it (also
// when the partial outruns the bound: every key below extends it), 0 when the
// bound runs on through the subtree.
func sideOf(partial, rest []byte) int {
	m := min(len(partial), len(rest))
	if c := bytes.Compare(partial[:m], rest[:m]); c != 0 || len(rest) >= len(partial) {
		return c
	}
	return 1
}

// followSlot resolves a stale entry from its parent's slot word, read again.
func (s *scanner) followSlot(ent *scanEnt, word uint64) error {
	now := wire.DecodeSlot(word)
	switch {
	case !now.Present || now.KeyByte != ent.slot.KeyByte:
		// Deleted (and the slot perhaps reused for a younger edge).
		ent.state = entDropped
	case now.Addr != ent.slot.Addr || now.Leaf != ent.slot.Leaf:
		ent.slot, ent.state, ent.want = now, entPending, 0
	default:
		// The slot still names the retired object, so the parent image is
		// itself stale — retired with it in it: a leaf leaves the tree before
		// it is retired — or a split is between its two writes. The tries
		// bound the wait.
		return s.again(ent, false, "retired under a stale parent")
	}
	return nil
}
