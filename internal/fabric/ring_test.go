package fabric

import (
	"math/rand/v2"
	"testing"
)

// unboundedNIC is the NIC timeline before it became a ring, kept as the
// reference model: every page of virtual time ever touched, allocated on
// first touch and never freed, so no booking is ever late.
type unboundedNIC struct {
	slots [][]int32
}

func (n *unboundedNIC) used(slot int64) *int32 {
	p := int(slot / nicPage)
	if p >= len(n.slots) {
		n.slots = append(n.slots, make([][]int32, p+1-len(n.slots))...)
	}
	if n.slots[p] == nil {
		n.slots[p] = make([]int32, nicPage)
	}
	return &n.slots[p][slot%nicPage]
}

func (n *unboundedNIC) reserve(notBefore, cost int64) int64 {
	slot := notBefore / nicSlotPs
	start := int64(-1)
	for rem := cost; rem > 0; slot++ {
		used := n.used(slot)
		if avail := nicSlotPs - int64(*used); avail > 0 {
			if start < 0 {
				start = max(slot*nicSlotPs, notBefore)
			}
			take := min(avail, rem)
			*used += int32(take)
			rem -= take
		}
	}
	if start < 0 {
		start = notBefore
	}
	return start
}

// TestNICRingMatchesUnboundedTimeline: bookings that arrive out of order but
// within the ring's window — a frontier moving across a few windows' worth of
// virtual time, half the bookings just behind it, where they queue, and half
// up to most of a window behind it — start where the unbounded timeline starts
// them, and none is late.
func TestNICRingMatchesUnboundedTimeline(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	var ring nic
	var ref unboundedNIC
	const window = (nicPages - 2) * nicPage * nicSlotPs
	var frontier int64
	queued := 0
	for i := 0; i < 100_000; i++ {
		frontier += rng.Int64N(60 * nicSlotPs)
		notBefore := max(0, frontier-rng.Int64N(window))
		if rng.IntN(2) == 0 {
			notBefore = max(0, frontier-rng.Int64N(4*nicSlotPs))
		}
		cost := 1 + rng.Int64N(3*nicSlotPs)
		got, want := ring.reserve(notBefore, cost, 1, 0), ref.reserve(notBefore, cost)
		if got != want {
			t.Fatalf("booking %d at %d ps, cost %d: ring starts it at %d, the unbounded timeline at %d", i, notBefore, cost, got, want)
		}
		if got > notBefore {
			queued++
		}
	}
	if frontier < 2*window || queued < 5_000 {
		t.Fatalf("frontier reached %d ps, %d bookings queued: the test wrapped the ring less than twice or barely queued", frontier, queued)
	}
	if ring.late != 0 {
		t.Errorf("%d late bookings inside the window", ring.late)
	}
}

// TestNICLateBookingBookedIdle: a booking behind the ring's window finds its
// history forgotten. It starts at its own time, as on an idle NIC, whatever
// was booked there before, and is counted per NIC in NICStats.
func TestNICLateBookingBookedIdle(t *testing.T) {
	f := New(Config{})
	id := f.AddNode(1 << 16)
	n := &f.nodes[id].nic
	for i := 0; i < 3; i++ {
		// Fill slot 0 while its page is in the ring: the next booking queues.
		n.reserve(0, nicSlotPs, 1, 0)
	}
	if got := n.reserve(0, 1, 1, 0); got != 3*nicSlotPs {
		t.Fatalf("booking behind three full slots starts at %d ps, want %d", got, 3*nicSlotPs)
	}
	far := int64(nicPages*nicPage) * nicSlotPs // page nicPages: slot 0's ring position
	if got := n.reserve(far, nicSlotPs, 1, 0); got != far {
		t.Fatalf("booking at %d ps on an idle page starts at %d", far, got)
	}
	for i := 0; i < 2; i++ {
		if got := n.reserve(0, nicSlotPs, 1, 0); got != 0 {
			t.Errorf("late booking %d starts at %d ps, want 0: booked as idle", i, got)
		}
	}
	if st := f.NICStats()[id]; st.LateBookings != 2 || st.Verbs != 7 {
		t.Errorf("late bookings %d, verbs %d; want 2 late of 7", st.LateBookings, st.Verbs)
	}
}

// TestResetTimelinesKeepsRing: a reset clears the ring in place — the next
// phase books on an idle timeline and allocates no page again.
func TestResetTimelinesKeepsRing(t *testing.T) {
	f := New(Config{})
	id := f.AddNode(1 << 16)
	n := &f.nodes[id].nic
	for p := int64(0); p < nicPages; p++ {
		n.reserve(p*nicPage*nicSlotPs, nicSlotPs, 1, 0)
	}
	pages := n.ring
	f.ResetTimelines()
	if n.ring != pages {
		t.Fatal("reset replaced the ring's pages")
	}
	if got := n.reserve(0, 1, 1, 0); got != 0 {
		t.Errorf("first booking after a reset starts at %d ps, want 0", got)
	}
	if n.late != 0 {
		t.Errorf("%d late bookings after a reset", n.late)
	}
	if a := testing.AllocsPerRun(10, func() { n.reserve(nicSlotPs, 1, 1, 0) }); a != 0 && !raceEnabled {
		t.Errorf("%.0f allocations per booking after a reset, want 0", a)
	}
}

// TestNICRingStopsAllocating: once every ring position holds a page, a
// booking on a page never touched before takes one over in place.
func TestNICRingStopsAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var n nic
	page := int64(0)
	book := func() {
		n.reserve(page*nicPage*nicSlotPs, 3*nicSlotPs/2, 1, 64)
		page++
	}
	for range nicPages {
		book()
	}
	if a := testing.AllocsPerRun(4*nicPages, book); a != 0 {
		t.Errorf("%.2f allocations per booking on a new page of a full ring, want 0", a)
	}
	if n.late != 0 {
		t.Errorf("%d late bookings", n.late)
	}
}
