package mem

import "fmt"

// Class tags each allocation with the kind of object it holds so that
// MN-side memory accounting (paper Fig. 6) can break usage down into inner
// nodes, leaves, hash-table space and metadata.
type Class uint8

// Allocation classes.
const (
	ClassMeta  Class = iota // allocator headers, roots, directories
	ClassInner              // ART inner nodes
	ClassLeaf               // ART leaf nodes
	ClassHash               // inner-node hash-table segments
	NumClasses
)

// String returns the class name for reports.
func (c Class) String() string {
	switch c {
	case ClassMeta:
		return "meta"
	case ClassInner:
		return "inner"
	case ClassLeaf:
		return "leaf"
	case ClassHash:
		return "hash"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Allocator header layout, stored at the start of every region so that
// remote clients can drive allocation with one-sided FAA verbs alone
// (memory nodes have no CPU to run an allocator).
const (
	allocBumpOff  = 0 // uint64: next free offset
	allocClassOff = 8 // NumClasses uint64 counters: bytes allocated per class

	// HeaderSize is the number of bytes reserved at the start of each
	// region for the allocator. Offset 0 therefore never names a user
	// object, which is what makes Addr(0) usable as null.
	HeaderSize = LineSize * 2
)

// RemoteOps is the slice of one-sided verbs the allocator needs. It is
// implemented both by a direct region wrapper (for cluster bootstrap, where
// network cost is irrelevant) and by fabric.Client (for client-driven
// allocation that must pay round trips).
type RemoteOps interface {
	// FetchAdd executes an RDMA FAA on the 8-byte word at addr.
	FetchAdd(addr Addr, delta uint64) (uint64, error)
	// FetchAddPair executes an FAA of delta on the words at a and b in one
	// doorbell batch, one round trip, and returns a's pre-image.
	FetchAddPair(a, b Addr, delta uint64) (uint64, error)
	// ReadUint64 reads the 8-byte word at addr.
	ReadUint64(addr Addr) (uint64, error)
}

// InitRegionHeader prepares a fresh region's allocator header. Must be
// called once per region before any allocation.
func InitRegionHeader(r *Region) {
	r.WriteUint64(allocBumpOff, HeaderSize)
}

// DefaultSlab is the default number of bytes a client reserves from a
// memory node per FAA. Sub-allocating locally from the slab amortizes the
// allocation round trip across many objects, the standard technique in
// one-sided DM systems.
const DefaultSlab = 64 * 1024

type slab struct {
	next uint64 // next free offset within the slab
	end  uint64 // one past the slab
}

// Allocator is a per-client allocator over the cluster's memory nodes.
// It is not safe for concurrent use; every client (worker) owns one, which
// matches the one-allocator-per-coroutine structure of the paper's systems.
type Allocator struct {
	ops      RemoteOps
	slabSize uint64
	slabs    map[slabKey]*slab
}

type slabKey struct {
	node  NodeID
	class Class
}

// NewAllocator returns an allocator that reserves slabSize-byte slabs
// through ops. A slabSize of 0 selects DefaultSlab.
func NewAllocator(ops RemoteOps, slabSize uint64) *Allocator {
	if slabSize == 0 {
		slabSize = DefaultSlab
	}
	if slabSize%LineSize != 0 {
		slabSize = (slabSize + LineSize - 1) &^ uint64(LineSize-1)
	}
	return &Allocator{ops: ops, slabSize: slabSize, slabs: make(map[slabKey]*slab)}
}

// Align rounds size up to the given power-of-two alignment.
func Align(size, align uint64) uint64 { return (size + align - 1) &^ (align - 1) }

// Alloc reserves size bytes of the given class on the given node and
// returns the global address of the new object. Objects are 8-byte aligned;
// leaf-class objects are 64-byte aligned per the paper's leaf layout.
func (a *Allocator) Alloc(node NodeID, class Class, size uint64) (Addr, error) {
	align := uint64(8)
	if class == ClassLeaf {
		align = LineSize
	}
	size = Align(size, align)
	if size > a.slabSize {
		// Large object: dedicated reservation.
		off, err := a.reserve(node, class, Align(size, LineSize))
		if err != nil {
			return 0, err
		}
		return NewAddr(node, off), nil
	}
	key := slabKey{node, class}
	s := a.slabs[key]
	if s != nil {
		s.next = Align(s.next, align)
	}
	if s == nil || s.next+size > s.end {
		off, err := a.reserve(node, class, a.slabSize)
		if err != nil {
			return 0, err
		}
		s = &slab{next: off, end: off + a.slabSize}
		a.slabs[key] = s
	}
	off := s.next
	s.next += size
	return NewAddr(node, off), nil
}

// reserve claims n contiguous bytes from the node's bump pointer and
// charges them to class, both FAAs in one round trip: neither depends on the
// other's result. Slabs are line-aligned because the bump pointer only ever
// moves in line multiples.
func (a *Allocator) reserve(node NodeID, class Class, n uint64) (uint64, error) {
	n = Align(n, LineSize)
	return a.ops.FetchAddPair(NewAddr(node, allocBumpOff), NewAddr(node, allocClassOff+8*uint64(class)), n)
}

// Usage is a snapshot of one memory node's allocation counters.
type Usage struct {
	Node    NodeID
	Total   uint64 // bytes past the bump pointer (includes header)
	ByClass [NumClasses]uint64
}

// ReadUsage fetches the allocation counters of one node.
func ReadUsage(ops RemoteOps, node NodeID) (Usage, error) {
	u := Usage{Node: node}
	bump, err := ops.ReadUint64(NewAddr(node, allocBumpOff))
	if err != nil {
		return u, err
	}
	u.Total = bump
	for c := Class(0); c < NumClasses; c++ {
		v, err := ops.ReadUint64(NewAddr(node, allocClassOff+8*uint64(c)))
		if err != nil {
			return u, err
		}
		u.ByClass[c] = v
	}
	return u, nil
}

// DirectOps adapts a set of local regions into a RemoteOps with zero
// network cost. It is used during cluster bootstrap (e.g., carving out the
// hash-table segments before any client exists) and in tests.
type DirectOps struct {
	Regions map[NodeID]*Region
}

// FetchAdd implements RemoteOps directly against the region.
func (d DirectOps) FetchAdd(addr Addr, delta uint64) (uint64, error) {
	r, ok := d.Regions[addr.Node()]
	if !ok {
		return 0, fmt.Errorf("mem: no region for node %d", addr.Node())
	}
	return r.FetchAdd(addr.Offset(), delta), nil
}

// FetchAddPair implements RemoteOps directly against the regions.
func (d DirectOps) FetchAddPair(a, b Addr, delta uint64) (uint64, error) {
	old, err := d.FetchAdd(a, delta)
	if err == nil {
		_, err = d.FetchAdd(b, delta)
	}
	return old, err
}

// ReadUint64 implements RemoteOps directly against the region.
func (d DirectOps) ReadUint64(addr Addr) (uint64, error) {
	r, ok := d.Regions[addr.Node()]
	if !ok {
		return 0, fmt.Errorf("mem: no region for node %d", addr.Node())
	}
	return r.ReadUint64(addr.Offset()), nil
}
