package fabric

import (
	"bytes"
	"sync"
	"testing"

	"sphinx/internal/mem"
)

func newTestFabric(cfg Config) (*Fabric, mem.NodeID) {
	f := New(cfg)
	id := f.AddNode(1 << 20)
	return f, id
}

func TestReadWriteRoundTrip(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	c := f.NewClient()
	src := []byte("sphinx over simulated rdma")
	addr := mem.NewAddr(id, 4096)
	if err := c.Write(addr, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := c.Read(addr, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Errorf("round trip: %q != %q", dst, src)
	}
}

func TestUint64Helpers(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	c := f.NewClient()
	addr := mem.NewAddr(id, 512)
	if err := c.WriteUint64(addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := c.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Errorf("ReadUint64 = %#x", v)
	}
}

func TestCASAndFAA(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	c := f.NewClient()
	addr := mem.NewAddr(id, 256)
	if err := c.WriteUint64(addr, 7); err != nil {
		t.Fatal(err)
	}
	old, err := c.CompareSwap(addr, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if old != 7 {
		t.Errorf("CAS pre-image = %d", old)
	}
	old, err = c.FetchAdd(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if old != 9 {
		t.Errorf("FAA pre-image = %d", old)
	}
	v, _ := c.ReadUint64(addr)
	if v != 12 {
		t.Errorf("final value = %d, want 12", v)
	}
}

func TestUnknownNodeError(t *testing.T) {
	f, _ := newTestFabric(InstantConfig())
	c := f.NewClient()
	if err := c.Read(mem.NewAddr(42, 0), make([]byte, 8)); err == nil {
		t.Error("expected error reading unknown node")
	}
}

func TestBatchIsOneRoundTrip(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	c := f.NewClient()
	var bufs [8][8]byte
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: Read, Addr: mem.NewAddr(id, uint64(i)*64), Data: bufs[i][:]}
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.RoundTrips != 1 {
		t.Errorf("batch of 8 took %d round trips, want 1", s.RoundTrips)
	}
	if s.Verbs != 8 {
		t.Errorf("verbs = %d, want 8", s.Verbs)
	}
}

func TestSequentialReadsAreSeparateRoundTrips(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	c := f.NewClient()
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		if err := c.Read(mem.NewAddr(id, uint64(i)*64), buf); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.RoundTrips != 5 {
		t.Errorf("round trips = %d, want 5", s.RoundTrips)
	}
}

func TestBatchSpanningNodesIsOneRoundTrip(t *testing.T) {
	f := New(DefaultConfig())
	a := f.AddNode(1 << 16)
	b := f.AddNode(1 << 16)
	c := f.NewClient()
	var b1, b2 [8]byte
	ops := []Op{
		{Kind: Read, Addr: mem.NewAddr(a, 0), Data: b1[:]},
		{Kind: Read, Addr: mem.NewAddr(b, 0), Data: b2[:]},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.RoundTrips != 1 {
		t.Errorf("cross-node batch took %d round trips, want 1", s.RoundTrips)
	}
}

func TestClockAdvancesByCostModel(t *testing.T) {
	cfg := Config{RTTPs: 2_000_000, PerVerbPs: 10_000, PerByteFs: 1_000_000, ClientVerbPs: 100_000}
	f := New(cfg)
	id := f.AddNode(1 << 16)
	c := f.NewClient()
	buf := make([]byte, 64)
	if err := c.Read(mem.NewAddr(id, 0), buf); err != nil {
		t.Fatal(err)
	}
	// client 100000 + nic (10000 + 64*1000) + rtt 2000000
	want := int64(100_000 + 10_000 + 64_000 + 2_000_000)
	if c.Clock() != want {
		t.Errorf("clock = %d, want %d", c.Clock(), want)
	}
}

func TestInstantConfigZeroTime(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	c := f.NewClient()
	if err := c.Write(mem.NewAddr(id, 0), make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if c.Clock() != 0 {
		t.Errorf("instant config advanced the clock to %d", c.Clock())
	}
}

func TestNICContentionInflatesLatency(t *testing.T) {
	// Saturate one MN NIC with a large transfer from one client; a second
	// client issuing afterwards must queue behind it.
	cfg := Config{RTTPs: 1_000_000, PerVerbPs: 0, PerByteFs: 1_000_000_000} // 1ns per byte
	f := New(cfg)
	id := f.AddNode(1 << 20)
	hog := f.NewClient()
	late := f.NewClient()
	if err := hog.Write(mem.NewAddr(id, 0), make([]byte, 100_000)); err != nil {
		t.Fatal(err)
	}
	if err := late.Read(mem.NewAddr(id, 0), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// The hog reserved 100 µs of NIC time starting at 0; the late client's
	// 8-byte read must start after it.
	minLate := int64(100_000 * 1_000_000) // 100 µs in ps
	if late.Clock() < minLate {
		t.Errorf("late client clock %d shows no queueing (want ≥ %d)", late.Clock(), minLate)
	}
}

func TestNICStatsAccumulate(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	c := f.NewClient()
	if err := c.Write(mem.NewAddr(id, 0), make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	st := f.NICStats()
	if len(st) != 1 || st[0].Verbs != 1 || st[0].Bytes != 256 {
		t.Errorf("NIC stats = %+v", st)
	}
}

func TestStatsSubAdd(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	c := f.NewClient()
	before := c.Stats()
	_ = c.Write(mem.NewAddr(id, 0), make([]byte, 8))
	_ = c.Read(mem.NewAddr(id, 0), make([]byte, 8))
	delta := c.Stats().Sub(before)
	if delta.RoundTrips != 2 || delta.BytesRead != 8 || delta.BytesWrite != 8 {
		t.Errorf("delta = %+v", delta)
	}
	sum := delta.Add(delta)
	if sum.RoundTrips != 4 {
		t.Errorf("sum round trips = %d", sum.RoundTrips)
	}
}

func TestBatchExecutesInPostingOrder(t *testing.T) {
	f, id := newTestFabric(InstantConfig())
	c := f.NewClient()
	addr := mem.NewAddr(id, 128)
	// Write 5 then CAS 5→6 in one batch: CAS must observe the write.
	var five [8]byte
	five[0] = 5
	ops := []Op{
		{Kind: Write, Addr: addr, Data: five[:]},
		{Kind: CAS, Addr: addr, Expect: 5, Desired: 6},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if ops[1].Old != 5 {
		t.Errorf("CAS pre-image = %d, want 5 (ordering violated)", ops[1].Old)
	}
	v, _ := c.ReadUint64(addr)
	if v != 6 {
		t.Errorf("final = %d, want 6", v)
	}
}

func TestConcurrentClientsFAA(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	addr := mem.NewAddr(id, 512) // clear of the allocator header
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.NewClient()
			for i := 0; i < each; i++ {
				if _, err := c.FetchAdd(addr, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := f.NewClient()
	v, _ := c.ReadUint64(addr)
	if v != workers*each {
		t.Errorf("FAA total = %d, want %d", v, workers*each)
	}
}

// TestAllocatorOverFabricPaysRoundTrips: a slab refill moves the bump pointer
// and the class counter, two FAAs that wait on nothing of each other: one
// doorbell batch, one round trip.
func TestAllocatorOverFabricPaysRoundTrips(t *testing.T) {
	f, id := newTestFabric(DefaultConfig())
	c := f.NewClient()
	a := mem.NewAllocator(c, 4096)
	if _, err := a.Alloc(id, mem.ClassInner, 64); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.RoundTrips != 1 || s.Verbs != 2 || s.ByKind[FAA] != 2 {
		t.Errorf("slab refill took %d round trips, %d verbs (%d FAAs), want 1, 2, 2 (bump FAA + class FAA in one batch)", s.RoundTrips, s.Verbs, s.ByKind[FAA])
	}
	u, err := mem.ReadUsage(f.Regions(), id)
	if err != nil || u.Total != mem.HeaderSize+4096 || u.ByClass[mem.ClassInner] != 4096 {
		t.Errorf("usage after the refill = %+v, %v; want the bump pointer and the class counter both 4096 further", u, err)
	}
}

func TestVerbKindString(t *testing.T) {
	if Read.String() != "READ" || Write.String() != "WRITE" || CAS.String() != "CAS" || FAA.String() != "FAA" {
		t.Error("verb names wrong")
	}
}
