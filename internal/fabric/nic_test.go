package fabric

import (
	"sync"
	"testing"

	"sphinx/internal/mem"
)

// TestNICBackfill verifies the slotted-timeline property that motivated
// it: a client whose virtual clock is far behind another's must be able
// to use NIC capacity in its own (earlier) time region, instead of
// queueing behind work that is later in virtual time.
func TestNICBackfill(t *testing.T) {
	cfg := Config{RTTPs: 1_000_000, PerVerbPs: 10_000}
	f := New(cfg)
	id := f.AddNode(1 << 16)

	// Client A runs far ahead in virtual time.
	a := f.NewClient()
	a.AdvanceClock(1_000_000_000) // 1 ms
	if err := a.Read(mem.NewAddr(id, 0), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// Client B arrives later in real time but earlier in virtual time;
	// the NIC was idle then, so B must complete near its own clock.
	b := f.NewClient()
	if err := b.Read(mem.NewAddr(id, 0), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	want := cfg.RTTPs + cfg.PerVerbPs
	if b.Clock() > want+nicSlotPs {
		t.Errorf("late-arriving early-clock client pushed to %d ps; want ≈%d (no backfill)", b.Clock(), want)
	}
}

// TestNICSaturation verifies that overload at one virtual instant spills
// work into later slots: N clients all issuing at t=0 must see growing
// completion times once demand exceeds slot capacity.
func TestNICSaturation(t *testing.T) {
	// Each verb costs 400000 ps of NIC time: one 1 µs slot holds 2.5.
	cfg := Config{RTTPs: 0, PerVerbPs: 400_000}
	f := New(cfg)
	id := f.AddNode(1 << 16)
	const n = 20
	clocks := make([]int64, n)
	for i := 0; i < n; i++ {
		c := f.NewClient()
		if err := c.Read(mem.NewAddr(id, 0), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		clocks[i] = c.Clock()
	}
	// 20 × 0.4 µs = 8 µs of demand at t=0: the last completions must be
	// pushed several slots out.
	var max int64
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	if max < 6_000_000 {
		t.Errorf("max completion %d ps; saturation did not spill into later slots", max)
	}
}

func TestResetTimelines(t *testing.T) {
	f := New(Config{RTTPs: 1_000_000, PerVerbPs: 900_000})
	id := f.AddNode(1 << 16)
	// Saturate the early timeline.
	for i := 0; i < 10; i++ {
		c := f.NewClient()
		if err := c.Read(mem.NewAddr(id, 0), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	f.ResetTimelines()
	c := f.NewClient()
	if err := c.Read(mem.NewAddr(id, 0), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if c.Clock() > 2_000_000+nicSlotPs {
		t.Errorf("post-reset client queued to %d ps; timeline not cleared", c.Clock())
	}
}

func TestNICBackfillConcurrent(t *testing.T) {
	// Hammer the timeline from goroutines with wildly different virtual
	// clocks; the map-based slots must stay consistent under -race.
	f := New(Config{RTTPs: 100_000, PerVerbPs: 50_000})
	id := f.AddNode(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := f.NewClient()
			c.AdvanceClock(int64(w) * 10_000_000)
			for i := 0; i < 200; i++ {
				if err := c.Read(mem.NewAddr(id, 0), make([]byte, 8)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := f.NICStats()
	if st[0].Verbs != 8*200 {
		t.Errorf("verbs = %d, want %d", st[0].Verbs, 8*200)
	}
}

func TestCostModelByteRounding(t *testing.T) {
	// Per-byte costs are charged in femtoseconds and rounded up to whole
	// picoseconds per op, never down to zero.
	cfg := Config{PerByteFs: 1} // 1 fs/B: 64 B = 0.064 ps → must charge ≥1 ps
	f := New(cfg)
	id := f.AddNode(1 << 16)
	c := f.NewClient()
	if err := c.Read(mem.NewAddr(id, 0), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st := f.NICStats()
	if st[0].BusyPs < 1 {
		t.Errorf("sub-picosecond byte cost rounded to zero: %d", st[0].BusyPs)
	}
}

func TestBatchChargesEachTargetNIC(t *testing.T) {
	cfg := Config{PerVerbPs: 1000}
	f := New(cfg)
	a := f.AddNode(1 << 16)
	b := f.AddNode(1 << 16)
	c := f.NewClient()
	ops := []Op{
		{Kind: Read, Addr: mem.NewAddr(a, 0), Data: make([]byte, 8)},
		{Kind: Read, Addr: mem.NewAddr(a, 64), Data: make([]byte, 8)},
		{Kind: Read, Addr: mem.NewAddr(b, 0), Data: make([]byte, 8)},
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	st := f.NICStats()
	if st[0].Verbs != 2 || st[1].Verbs != 1 {
		t.Errorf("per-NIC verb split wrong: %+v", st)
	}
	if st[0].BusyPs != 2000 || st[1].BusyPs != 1000 {
		t.Errorf("per-NIC busy split wrong: %+v", st)
	}
}
