package rart

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// The index check ("fsck", DESIGN.md §6): one read-only walk of a quiesced
// tree that says what is wrong with it as typed findings. It reads with raw
// READs, which break no lock, through a client that no fault plan touches;
// no operation calls it, only tests.

// Kind is what a finding says is wrong. The kinds up to AnchorStale fail
// every test; the rest are leftovers a test must name to accept: of a write
// left in doubt (not acknowledged, docs/failure-model.md §5.2) and of a crash
// (§3, §4).
type Kind uint8

const (
	InvalidTarget Kind = iota // a live slot names an Invalid node or leaf
	OffPath                   // a node's depth or prefix hash, or a leaf's key, disagrees with its path, or a node is reached twice
	LiveLock                  // a reachable lease or leaf lock held by a live client
	TornLeaf                  // a reachable leaf fails its checksum
	OutOfRange                // a reachable object lies outside its MN's reserved range
	Unretired                 // a leaf left the tree since the last check but was not retired
	Phantom                   // an INHT entry names a valid node the tree does not reach
	SecondEntry               // an inner node is named by two entries of its home buckets

	AnchorStale    // a key's newest anchor record disagrees with the tree
	HotStale       // a key's newest hot record on a node disagrees with the tree
	CrashedLock    // a lease or leaf lock held by a crashed client
	ShortPartial   // window (a): a split died between its child's head WRITE and the parent repoint
	OrphanOriginal // window (b): a type switch died before its entry swap; the entry names the original
	BlindOrphan    // a blind entry CAS landed outside its home buckets and its writer died
	NoEntry        // a reachable inner node has no entry: its writer died past its commit
)

var kindNames = [...]string{"invalid target", "off path", "live lock", "torn leaf", "out of range",
	"unretired leaf", "phantom entry", "second entry", "stale anchor", "stale hot record",
	"crashed lock", "short partial", "orphaned original", "blind orphan", "no entry"}

func (k Kind) String() string { return kindNames[k] }

// Finding is one thing the check found, at the object it concerns.
type Finding struct {
	Kind Kind
	Addr mem.Addr
	Note string
}

func (f Finding) String() string { return fmt.Sprintf("%v at %v: %s", f.Kind, f.Addr, f.Note) }

// Reached is an inner node the walk reached, with its full prefix: nil below
// a ShortPartial, whose missing bytes no path names.
type Reached struct {
	Node   *Node
	Prefix []byte
}

// Check is what one check found, and what it counted on the way: the bytes
// per MN of the reachable objects and behind the allocator's bump pointer
// (what lies between is tables, records, retired and abandoned objects), the
// objects it could not read — on a killed MN, or behind a breaker that stays
// open — and the INHT entries naming an Invalid node.
type Check struct {
	Findings            []Finding
	Inner               map[mem.Addr]Reached
	Values              map[string][]byte // the value of every reachable key
	Leaves              []mem.Addr
	Reachable, Reserved map[mem.NodeID]uint64
	Skipped, Stale      int
}

// Add records a finding.
func (c *Check) Add(k Kind, at mem.Addr, format string, args ...any) {
	c.Findings = append(c.Findings, Finding{k, at, fmt.Sprintf(format, args...)})
}

// Failures returns the findings of no kind in accept.
func (c *Check) Failures(accept ...Kind) []Finding {
	return slices.DeleteFunc(slices.Clone(c.Findings), func(f Finding) bool { return slices.Contains(accept, f.Kind) })
}

// retried runs read until it succeeds, 64 times at most: enough for an open
// breaker's probe to close it.
func retried(read func() error) (err error) {
	for try := 0; try < 64 && (try == 0 || err != nil); try++ {
		err = read()
	}
	return err
}

// Fsck walks the tree from root through e, whose client no fault plan
// touches, and checks every node and leaf it reaches.
func (e *Engine) Fsck(root mem.Addr) *Check {
	c := &Check{Inner: map[mem.Addr]Reached{}, Values: map[string][]byte{},
		Reachable: map[mem.NodeID]uint64{}, Reserved: map[mem.NodeID]uint64{}}
	e.fsckNode(c, root, wire.Node256, []byte{})
	return c
}

// Reach reads the size bytes at addr into a fresh buffer, nil for bytes it
// cannot read, which are skipped, and for bytes outside the MN's reserved
// range, which are a finding.
func (e *Engine) Reach(c *Check, addr mem.Addr, size uint64) []byte {
	node, buf := addr.Node(), make([]byte, size)
	reserved, ok := c.Reserved[node]
	if !ok && !e.C.Fabric().NodeKilled(node) {
		ok = retried(func() (err error) { u, err := mem.ReadUsage(e.C, node); reserved = u.Total; return err }) == nil
		c.Reserved[node] = reserved
	}
	switch {
	case !ok || e.C.Fabric().NodeKilled(node):
		c.Skipped++
	case addr.Offset() < mem.HeaderSize || addr.Offset()+size > reserved:
		c.Add(OutOfRange, addr, "%d bytes, %d reserved", size, reserved)
	case retried(func() error { return e.C.Read(addr, buf) }) != nil:
		c.Skipped++
	default:
		return buf
	}
	return nil
}

// lock judges a held lock: a crashed owner's is a leftover, a live one's a
// fault.
func (e *Engine) lock(owner uint16, named bool) Kind {
	if e.ownerCrashed(owner, named) {
		return CrashedLock
	}
	return LiveLock
}

// fsckNode checks the node at addr, which its parent's slot names with path:
// the node's prefix up to its partial — nil where the walk came through a
// ShortPartial — and then its children.
func (e *Engine) fsckNode(c *Check, addr mem.Addr, hint wire.NodeType, path []byte) {
	if _, ok := c.Inner[addr]; ok { // a cycle, or two slots naming one node
		c.Add(OffPath, addr, "reached twice, the second time on the path %q", path)
		return
	}
	buf := e.Reach(c, addr, e.nodeSize(hint))
	if buf == nil {
		return
	}
	n, err := e.Decode(addr, buf)
	if err != nil || n.Hdr.Status == wire.StatusInvalid {
		c.Add(InvalidTarget, addr, "a slot names this node: %v", err)
		return
	}
	c.Reachable[addr.Node()] += uint64(len(buf))
	if owner, _, leased := wire.DecodeLease(n.LeaseWord); leased {
		c.Add(e.lock(owner, true), addr, "lease of client %d", owner)
	}
	var full []byte
	switch {
	case path == nil:
	case n.Base() > len(path):
		c.Add(ShortPartial, addr, "partial starts at %d, its slot at %d", n.Base(), len(path))
	case n.Base() < len(path) || n.Hdr.PrefixHash != wire.PrefixHash42(append(path, n.Partial...)):
		c.Add(OffPath, addr, "depth %d, prefix hash %#x on the path %q", n.Hdr.Depth, n.Hdr.PrefixHash, path)
	default:
		full = append(path, n.Partial...)
	}
	c.Inner[addr] = Reached{n, full}
	if n.EOL.Present {
		e.fsckLeaf(c, n.EOL.Addr, full, true)
	}
	for _, s := range n.Children() {
		edge := full
		if full != nil {
			edge = append(slices.Clip(full), s.KeyByte)
		}
		if s.Leaf {
			e.fsckLeaf(c, s.Addr, edge, false)
		} else {
			e.fsckNode(c, s.Addr, s.ChildType, edge)
		}
	}
}

// fsckLeaf checks the leaf at addr, whose key starts with path — and is path,
// for an EOL leaf — where the walk knows its path.
func (e *Engine) fsckLeaf(c *Check, addr mem.Addr, path []byte, eol bool) {
	head := e.Reach(c, addr, wire.LeafUnit)
	if head == nil {
		return
	}
	word := binary.LittleEndian.Uint64(head)
	hdr := wire.DecodeLeafHeader(word)
	buf := e.Reach(c, addr, uint64(hdr.Units)*wire.LeafUnit)
	if buf == nil {
		return
	}
	c.Reachable[addr.Node()] += uint64(len(buf))
	switch owner, named := wire.LeafLockOwner(word); hdr.Status {
	case wire.StatusInvalid:
		c.Add(InvalidTarget, addr, "a slot names this Invalid leaf")
		return
	case wire.StatusLocked:
		c.Add(e.lock(owner, named), addr, "leaf lock of client %d (named %v)", owner, named)
	}
	switch key, value, _, ok := wire.DecodeLeaf(buf); {
	case !ok:
		c.Add(TornLeaf, addr, "the checksum fails: %d units, header %#x", hdr.Units, word)
	case path != nil && (!bytes.HasPrefix(key, path) || eol && len(key) != len(path)):
		c.Add(OffPath, addr, "key %q on the path %q", key, path)
	default:
		c.Values[string(key)] = value
		c.Leaves = append(c.Leaves, addr)
	}
}

// Since holds c to prev, an earlier check of the same tree: a leaf prev
// reached and c does not left the tree the one way there is, retired (§5.17)
// — Invalid, or Locked by a retirer that crashed between its slot WRITE and
// its Invalid WRITE. A check that skipped objects cannot tell.
func (e *Engine) Since(c, prev *Check) {
	reached := make(map[mem.Addr]bool, len(c.Leaves))
	for _, a := range c.Leaves {
		reached[a] = true
	}
	for _, a := range prev.Leaves {
		if reached[a] || c.Skipped > 0 {
			continue
		}
		if head := e.Reach(c, a, 8); head != nil {
			w := binary.LittleEndian.Uint64(head)
			owner, named := wire.LeafLockOwner(w)
			if st := wire.DecodeLeafHeader(w).Status; st == wire.StatusIdle || st == wire.StatusLocked && e.lock(owner, named) == LiveLock {
				c.Add(Unretired, a, "off the tree, header %#x", w)
			}
		}
	}
}
