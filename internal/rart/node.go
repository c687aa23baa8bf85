// Package rart is the remote-ART node engine: the machinery for operating
// adaptive-radix-tree nodes that live in memory-node memory, shared by all
// three systems this repository builds (Sphinx, the SMART baseline and the
// naive DM-ART baseline). It provides decoded node images, one-sided
// read/write/lock protocols, and the structural operations of §IV of the
// paper — child installation, node type switches, leaf conversions and
// compressed-path splits — with the status-field coherence protocol of
// §III-C.
//
// The systems differ in how they *find* a node (hash table + filter vs
// cached traversal vs root walk) and in what they do when structure
// changes (Sphinx maintains its inner-node hash table); those parts live
// in internal/core, internal/smart and internal/artdm. Everything that
// touches node bytes lives here.
package rart

import (
	"encoding/binary"
	"fmt"
	"slices"

	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// Node is a decoded inner-node image together with the address it was read
// from, the raw header word observed, and the raw lease word (the node lock
// — the CAS expectation for acquiring, stealing or releasing it).
type Node struct {
	Addr      mem.Addr
	Hdr       wire.NodeHeader
	HdrWord   uint64
	LeaseWord uint64
	EOL       wire.Slot
	Partial   []byte
	Index     []byte   // Node48 only: 256-byte child index
	Slots     []uint64 // raw slot words; len = capacity
}

// Base returns the length of the full prefix covered before this node's
// partial bytes: Depth - PartialLen. The node's partial spans key bytes
// [Base, Depth).
func (n *Node) Base() int { return int(n.Hdr.Depth) - int(n.Hdr.PartialLen) }

// decodeNodeHeader parses the header word of a node image and rejects
// structurally impossible ones: a torn read or a collided pointer can
// surface arbitrary bytes, and callers must get a clean error to retry on
// rather than a garbage node.
func decodeNodeHeader(buf []byte) (wire.NodeHeader, error) {
	if len(buf) < wire.SlotBase {
		return wire.NodeHeader{}, fmt.Errorf("rart: node image of %d bytes too short", len(buf))
	}
	hdr := wire.DecodeNodeHeader(binary.LittleEndian.Uint64(buf[wire.HeaderOff:]))
	if hdr.PartialLen > wire.MaxPartial {
		return hdr, fmt.Errorf("rart: header partialLen %d exceeds max %d", hdr.PartialLen, wire.MaxPartial)
	}
	if int(hdr.PartialLen) > int(hdr.Depth) {
		return hdr, fmt.Errorf("rart: header partialLen %d exceeds depth %d", hdr.PartialLen, hdr.Depth)
	}
	if hdr.Status > wire.StatusInvalid {
		return hdr, fmt.Errorf("rart: undefined status %d", hdr.Status)
	}
	return hdr, nil
}

// decode parses a node image read from addr into the arena: the Node and its
// slot words are cut from it, Partial and Index alias buf, which must live as
// long (the arena's rule). The buffer must hold at least the node's encoded
// size; a shorter one is an error, so callers that under-read can tell.
func (a *arena) decode(addr mem.Addr, buf []byte) (*Node, error) {
	hdr, err := decodeNodeHeader(buf)
	if err != nil {
		return nil, err
	}
	size := wire.NodeSize(hdr.Type)
	if uint64(len(buf)) < size {
		return nil, fmt.Errorf("rart: %v image needs %d bytes, have %d", hdr.Type, size, len(buf))
	}
	n := one(&a.nodes, Node{
		Addr:      addr,
		Hdr:       hdr,
		HdrWord:   binary.LittleEndian.Uint64(buf[wire.HeaderOff:]),
		LeaseWord: binary.LittleEndian.Uint64(buf[wire.LeaseOff:]),
		EOL:       wire.DecodeSlot(binary.LittleEndian.Uint64(buf[wire.EOLSlotOff:])),
		Partial:   slices.Clip(buf[wire.PartialOff : wire.PartialOff+int(hdr.PartialLen)]),
		Slots:     a.words.cut(hdr.Type.Capacity()),
	})
	if hdr.Type == wire.Node48 {
		n.Index = slices.Clip(buf[wire.SlotBase : wire.SlotBase+wire.Node48IndexSize])
	}
	off := int(wire.SlotsOff(hdr.Type))
	for i := range n.Slots {
		n.Slots[i] = binary.LittleEndian.Uint64(buf[off+8*i:])
	}
	return n, nil
}

// Clone returns a copy of n that owns its storage, for a holder that keeps an
// image past the operation that read it (SMART's node cache).
func (n *Node) Clone() *Node {
	c := *n
	c.Partial, c.Index, c.Slots = slices.Clone(n.Partial), slices.Clone(n.Index), slices.Clone(n.Slots)
	return &c
}

// Encode serializes the node into a fresh buffer of its exact size.
func (n *Node) Encode() []byte {
	return n.encodeInto(make([]byte, wire.NodeSize(n.Hdr.Type)))
}

// encodeInto serializes the node into buf, which must have the node's exact
// size; every byte of it is written.
func (n *Node) encodeInto(buf []byte) []byte {
	binary.LittleEndian.PutUint64(buf[wire.HeaderOff:], n.Hdr.Encode())
	binary.LittleEndian.PutUint64(buf[wire.LeaseOff:], n.LeaseWord)
	binary.LittleEndian.PutUint64(buf[wire.EOLSlotOff:], n.EOL.Encode())
	clear(buf[wire.PartialOff+copy(buf[wire.PartialOff:], n.Partial) : wire.SlotBase])
	if n.Hdr.Type == wire.Node48 {
		copy(buf[wire.SlotBase:], n.Index)
	}
	off := int(wire.SlotsOff(n.Hdr.Type))
	for i, w := range n.Slots {
		binary.LittleEndian.PutUint64(buf[off+8*i:], w)
	}
	return buf
}

// Child returns the slot for edge byte b and the slot's position, or
// ok=false if absent.
func (n *Node) Child(b byte) (slot wire.Slot, idx int, ok bool) {
	switch n.Hdr.Type {
	case wire.Node4, wire.Node16:
		for i, w := range n.Slots {
			s := wire.DecodeSlot(w)
			if s.Present && s.KeyByte == b {
				return s, i, true
			}
		}
	case wire.Node48:
		// A torn or corrupt image can carry index bytes beyond the slot
		// array; treat them as absent (callers re-validate and retry).
		if p := n.Index[b]; p != 0 && int(p) <= len(n.Slots) {
			s := wire.DecodeSlot(n.Slots[p-1])
			if s.Present {
				return s, int(p - 1), true
			}
		}
	case wire.Node256:
		s := wire.DecodeSlot(n.Slots[b])
		if s.Present {
			return s, int(b), true
		}
	}
	return wire.Slot{}, 0, false
}

// edge is the key's edge of a node: its EOL slot when the key ends at the
// node's depth, else the child slot of the key's next byte.
type edge struct {
	slot wire.Slot // what the edge holds; the zero Slot while it is empty
	eol  bool
	b    byte     // child edge: the key byte it hangs off (0 for EOL, as in the slot)
	idx  int      // child edge: the slot's position; for an empty edge, where a child would go
	addr mem.Addr // the slot word; null for an empty child edge of a full node
}

// edge returns n's EOL edge, or its child edge for byte b.
func (n *Node) edge(eol bool, b byte) edge {
	if eol {
		return edge{slot: n.EOL, eol: true, addr: n.EOLAddr()}
	}
	slot, idx, ok := n.Child(b)
	if !ok {
		if idx, ok = n.FreeSlot(b); !ok {
			return edge{b: b}
		}
	}
	return edge{slot: slot, b: b, idx: idx, addr: n.SlotAddr(idx)}
}

// edgeOf returns the edge of n that key runs through. key must reach n's
// depth, as every key on n's path does.
func (n *Node) edgeOf(key []byte) edge {
	if d := int(n.Hdr.Depth); d < len(key) {
		return n.edge(false, key[d])
	}
	return n.edge(true, 0)
}

// FreeSlot returns the position where a child for edge byte b can be
// installed, or ok=false if the node is full for that byte.
func (n *Node) FreeSlot(b byte) (idx int, ok bool) {
	if n.Hdr.Type == wire.Node256 {
		return int(b), n.Slots[b] == 0
	}
	for i, w := range n.Slots {
		if w == 0 {
			return i, true
		}
	}
	return 0, false
}

// Children returns present (edge byte, slot) pairs in ascending edge order.
func (n *Node) Children() []wire.Slot { return n.appendChildren(nil) }

// appendChildren appends n's present child slots to out in ascending edge
// order.
func (n *Node) appendChildren(out []wire.Slot) []wire.Slot {
	switch n.Hdr.Type {
	case wire.Node4, wire.Node16:
		// Slots are unordered on the wire; collect then sort by key byte.
		from := len(out)
		for _, w := range n.Slots {
			if s := wire.DecodeSlot(w); s.Present {
				out = append(out, s)
			}
		}
		for i := from + 1; i < len(out); i++ {
			for j := i; j > from && out[j-1].KeyByte > out[j].KeyByte; j-- {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
	case wire.Node48:
		for b := 0; b < 256; b++ {
			if p := n.Index[b]; p != 0 && int(p) <= len(n.Slots) {
				if s := wire.DecodeSlot(n.Slots[p-1]); s.Present {
					out = append(out, s)
				}
			}
		}
	case wire.Node256:
		for b := 0; b < 256; b++ {
			if s := wire.DecodeSlot(n.Slots[b]); s.Present {
				out = append(out, s)
			}
		}
	}
	return out
}

// SlotAddr returns the global address of slot word idx.
func (n *Node) SlotAddr(idx int) mem.Addr {
	return n.Addr.Add(wire.SlotsOff(n.Hdr.Type) + 8*uint64(idx))
}

// EOLAddr returns the global address of the EOL slot word.
func (n *Node) EOLAddr() mem.Addr { return n.Addr.Add(wire.EOLSlotOff) }

// LeaseAddr returns the global address of the lease (lock) word.
func (n *Node) LeaseAddr() mem.Addr { return n.Addr.Add(wire.LeaseOff) }

// IndexAddr returns the global address of the Node48 index byte for b.
func (n *Node) IndexAddr(b byte) mem.Addr {
	return n.Addr.Add(wire.SlotBase + uint64(b))
}

// grown returns a copy of n in the arena with the next capacity class,
// preserving header fields (depth, partial, prefix hash), EOL and children.
// The copy has no address and Idle status; the caller allocates and publishes
// it.
func (a *arena) grown(n *Node) *Node {
	g := one(&a.nodes, Node{Hdr: n.Hdr, EOL: n.EOL, Partial: n.Partial})
	g.Hdr.Type = n.Hdr.Type.Grow()
	g.Hdr.Status = wire.StatusIdle
	g.Slots = a.words.cut(g.Hdr.Type.Capacity())
	clear(g.Slots)
	if g.Hdr.Type == wire.Node48 {
		g.Index = a.buf(wire.Node48IndexSize)
		clear(g.Index)
	}
	var kids [48]wire.Slot // a node grows from at most 48 children
	for _, s := range n.appendChildren(kids[:0]) {
		g.addChildLocal(s)
	}
	g.HdrWord = g.Hdr.Encode()
	return g
}

// addChildLocal inserts into the decoded image only (used when building
// nodes locally before they are written out), at the key byte's free slot.
func (g *Node) addChildLocal(s wire.Slot) {
	i, ok := g.FreeSlot(s.KeyByte)
	if !ok {
		panic("rart: addChildLocal on full node")
	}
	g.Slots[i] = s.Encode()
	if g.Hdr.Type == wire.Node48 {
		g.Index[s.KeyByte] = uint8(i + 1)
	}
}

// NewNode builds a fresh local node image with the given type, depth and
// partial bytes (full prefix = prefix; partial = its tail).
func NewNode(t wire.NodeType, prefix []byte, partialLen int) *Node {
	return new(arena).newNode(t, prefix, partialLen)
}

// newNode is NewNode in the arena.
func (a *arena) newNode(t wire.NodeType, prefix []byte, partialLen int) *Node {
	if partialLen > wire.MaxPartial {
		panic(fmt.Sprintf("rart: partial of %d exceeds max %d", partialLen, wire.MaxPartial))
	}
	n := one(&a.nodes, Node{
		Hdr: wire.NodeHeader{
			Status:     wire.StatusIdle,
			Type:       t,
			Depth:      uint16(len(prefix)),
			PartialLen: uint8(partialLen),
			PrefixHash: wire.PrefixHash42(prefix),
		},
		Partial: a.buf(uint64(partialLen)),
		Slots:   a.words.cut(t.Capacity()),
	})
	copy(n.Partial, prefix[len(prefix)-partialLen:])
	clear(n.Slots)
	if t == wire.Node48 {
		n.Index = a.buf(wire.Node48IndexSize)
		clear(n.Index)
	}
	n.HdrWord = n.Hdr.Encode()
	return n
}
