package mem

import (
	"testing"
	"testing/quick"
)

func newTestOps(size uint64) (DirectOps, *Region) {
	r := NewRegion(0, size)
	InitRegionHeader(r)
	return DirectOps{Regions: map[NodeID]*Region{0: r}}, r
}

func TestAlign(t *testing.T) {
	cases := []struct{ size, align, want uint64 }{
		{0, 8, 0}, {1, 8, 8}, {8, 8, 8}, {9, 8, 16},
		{63, 64, 64}, {64, 64, 64}, {65, 64, 128},
	}
	for _, c := range cases {
		if got := Align(c.size, c.align); got != c.want {
			t.Errorf("Align(%d,%d) = %d, want %d", c.size, c.align, got, c.want)
		}
	}
}

func TestAllocatorBasic(t *testing.T) {
	ops, _ := newTestOps(1 << 20)
	a := NewAllocator(ops, 0)
	addr, err := a.Alloc(0, ClassInner, 100)
	if err != nil {
		t.Fatal(err)
	}
	if addr.IsNull() {
		t.Fatal("allocation returned null address")
	}
	if addr.Offset() < HeaderSize {
		t.Errorf("allocation at %#x overlaps the region header", addr.Offset())
	}
	if addr.Offset()%8 != 0 {
		t.Errorf("allocation at %#x not 8-byte aligned", addr.Offset())
	}
}

func TestAllocatorLeafAlignment(t *testing.T) {
	ops, _ := newTestOps(1 << 20)
	a := NewAllocator(ops, 0)
	for i := 0; i < 10; i++ {
		addr, err := a.Alloc(0, ClassLeaf, 65)
		if err != nil {
			t.Fatal(err)
		}
		if addr.Offset()%LineSize != 0 {
			t.Errorf("leaf allocation %d at %#x not %d-byte aligned", i, addr.Offset(), LineSize)
		}
	}
}

func TestAllocatorNonOverlap(t *testing.T) {
	ops, _ := newTestOps(1 << 22)
	a := NewAllocator(ops, 4096)
	type span struct{ lo, hi uint64 }
	var spans []span
	sizes := []uint64{8, 24, 64, 100, 4096, 8192, 16, 7, 1}
	for i := 0; i < 400; i++ {
		size := sizes[i%len(sizes)]
		class := Class(i % int(NumClasses))
		addr, err := a.Alloc(0, class, size)
		if err != nil {
			t.Fatal(err)
		}
		s := span{addr.Offset(), addr.Offset() + size}
		for _, prev := range spans {
			if s.lo < prev.hi && prev.lo < s.hi {
				t.Fatalf("allocation [%#x,%#x) overlaps [%#x,%#x)", s.lo, s.hi, prev.lo, prev.hi)
			}
		}
		spans = append(spans, s)
	}
}

func TestAllocatorNonOverlapProperty(t *testing.T) {
	ops, _ := newTestOps(1 << 24)
	a := NewAllocator(ops, 0)
	var prev []struct{ lo, hi uint64 }
	f := func(sz uint16, cls uint8) bool {
		size := uint64(sz)%4096 + 1
		class := Class(cls) % NumClasses
		addr, err := a.Alloc(0, class, size)
		if err != nil {
			return false
		}
		lo, hi := addr.Offset(), addr.Offset()+size
		for _, p := range prev {
			if lo < p.hi && p.lo < hi {
				return false
			}
		}
		prev = append(prev, struct{ lo, hi uint64 }{lo, hi})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorUsageAccounting(t *testing.T) {
	ops, _ := newTestOps(1 << 22)
	a := NewAllocator(ops, 4096)
	// One slab's worth of inner allocations plus one large leaf.
	for i := 0; i < 10; i++ {
		if _, err := a.Alloc(0, ClassInner, 64); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(0, ClassLeaf, 8192); err != nil {
		t.Fatal(err)
	}
	u, err := ReadUsage(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.ByClass[ClassInner] != 4096 {
		t.Errorf("inner class usage = %d, want one 4096 slab", u.ByClass[ClassInner])
	}
	if u.ByClass[ClassLeaf] != 8192 {
		t.Errorf("leaf class usage = %d, want 8192", u.ByClass[ClassLeaf])
	}
	if u.Total != HeaderSize+4096+8192 {
		t.Errorf("total usage = %d, want %d", u.Total, HeaderSize+4096+8192)
	}
}

func TestAllocatorSlabAmortization(t *testing.T) {
	// Many small allocations should trigger few bump-pointer FAAs.
	r := NewRegion(0, 1<<22)
	InitRegionHeader(r)
	ops := countingOps{DirectOps{Regions: map[NodeID]*Region{0: r}}, new(int)}
	a := NewAllocator(ops, 4096)
	for i := 0; i < 64; i++ {
		if _, err := a.Alloc(0, ClassInner, 64); err != nil {
			t.Fatal(err)
		}
	}
	// 64 × 64 B = one 4096-byte slab: 2 FAAs (bump + class counter).
	if *ops.faas != 2 {
		t.Errorf("FAA count = %d, want 2", *ops.faas)
	}
}

type countingOps struct {
	DirectOps
	faas *int
}

func (c countingOps) FetchAdd(addr Addr, delta uint64) (uint64, error) {
	*c.faas++
	return c.DirectOps.FetchAdd(addr, delta)
}

func (c countingOps) FetchAddPair(a, b Addr, delta uint64) (uint64, error) {
	*c.faas += 2
	return c.DirectOps.FetchAddPair(a, b, delta)
}

func TestAllocatorMultipleNodes(t *testing.T) {
	r0 := NewRegion(0, 1<<20)
	r1 := NewRegion(1, 1<<20)
	InitRegionHeader(r0)
	InitRegionHeader(r1)
	ops := DirectOps{Regions: map[NodeID]*Region{0: r0, 1: r1}}
	a := NewAllocator(ops, 0)
	a0, err := a.Alloc(0, ClassLeaf, 64)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := a.Alloc(1, ClassLeaf, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a0.Node() != 0 || a1.Node() != 1 {
		t.Errorf("allocations landed on wrong nodes: %v %v", a0, a1)
	}
}

func TestDirectOpsUnknownNode(t *testing.T) {
	ops, _ := newTestOps(1 << 20)
	if _, err := ops.FetchAdd(NewAddr(9, 0), 1); err == nil {
		t.Error("expected error for unknown node")
	}
	if _, err := ops.ReadUint64(NewAddr(9, 0)); err == nil {
		t.Error("expected error for unknown node")
	}
}

func TestAllocatorLargeObjectBypassesSlab(t *testing.T) {
	ops, _ := newTestOps(1 << 22)
	a := NewAllocator(ops, 4096)
	// Larger than the slab: dedicated reservation, still line-rounded.
	addr, err := a.Alloc(0, ClassHash, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if addr.Offset()%LineSize != 0 {
		t.Errorf("large object at %#x not line-aligned", addr.Offset())
	}
	u, err := ReadUsage(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.ByClass[ClassHash] != Align(100_000, LineSize) {
		t.Errorf("large object charged %d bytes", u.ByClass[ClassHash])
	}
	// A following small allocation must not overlap it.
	small, err := a.Alloc(0, ClassHash, 64)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := addr.Offset(), addr.Offset()+Align(100_000, LineSize)
	if small.Offset() >= lo && small.Offset() < hi {
		t.Error("small allocation landed inside the large object")
	}
}

func TestAllocatorSlabRoundsToLine(t *testing.T) {
	ops, _ := newTestOps(1 << 20)
	a := NewAllocator(ops, 1000) // not a line multiple
	addr, err := a.Alloc(0, ClassInner, 64)
	if err != nil {
		t.Fatal(err)
	}
	if addr.Offset()%8 != 0 {
		t.Error("allocation unaligned")
	}
	u, _ := ReadUsage(ops, 0)
	if u.ByClass[ClassInner]%LineSize != 0 {
		t.Errorf("slab reservation %d not line-rounded", u.ByClass[ClassInner])
	}
}

func TestAllocatorMixedAlignmentWithinSlab(t *testing.T) {
	// Leaf-class slabs interleave 64-byte-aligned objects of odd sizes;
	// every returned address must stay aligned and non-overlapping.
	ops, _ := newTestOps(1 << 22)
	a := NewAllocator(ops, 8192)
	type span struct{ lo, hi uint64 }
	var spans []span
	for i := 0; i < 200; i++ {
		size := uint64(65 + i%120)
		addr, err := a.Alloc(0, ClassLeaf, size)
		if err != nil {
			t.Fatal(err)
		}
		if addr.Offset()%LineSize != 0 {
			t.Fatalf("leaf %d at %#x unaligned", i, addr.Offset())
		}
		s := span{addr.Offset(), addr.Offset() + size}
		for _, p := range spans {
			if s.lo < p.hi && p.lo < s.hi {
				t.Fatalf("overlap [%#x,%#x) vs [%#x,%#x)", s.lo, s.hi, p.lo, p.hi)
			}
		}
		spans = append(spans, s)
	}
}
