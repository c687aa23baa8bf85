package obs

import (
	"math"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// TestLoadWindow walks the one per-MN window definition: a node that
// joined mid-window counts from zero, a non-member's traffic is in the
// totals and the shares but not in the member summaries, the round-trip
// deltas sum to the window's total, and a window without traffic has zero
// shares and no NaN or Inf anywhere.
func TestLoadWindow(t *testing.T) {
	nic := func(node mem.NodeID, rts, verbs uint64, busy int64) fabric.NICStats {
		return fabric.NICStats{Node: node, RoundTrips: rts, Verbs: verbs, Bytes: 64 * verbs, BusyPs: busy, WaitPs: busy / 2}
	}
	start := []fabric.NICStats{nic(0, 100, 200, 1000), nic(1, 50, 80, 400), nic(2, 10, 10, 100)}
	// Node 3 joined mid-window: it is absent from the start counters.
	end := []fabric.NICStats{nic(0, 160, 300, 1600), nic(1, 80, 130, 700), nic(2, 80, 15, 300), nic(3, 20, 10, 200)}
	// Node 2 is off the ring (draining): its traffic counts in the totals
	// and the shares only. It has the most round trips and the fewest verbs,
	// so counting it in a member summary would move that summary.
	w := NewLoadWindow(start, end, []mem.NodeID{0, 1, 3})

	wantRTs := []uint64{60, 30, 70, 20}
	wantVerbs := []uint64{100, 50, 5, 10}
	var rts, verbs uint64
	for i, l := range w.Loads {
		if l.Node != mem.NodeID(i) || l.RoundTrips != wantRTs[i] || l.Verbs != wantVerbs[i] || l.Bytes != 64*wantVerbs[i] {
			t.Errorf("node %d load = %+v, want %d round trips, %d verbs", i, l, wantRTs[i], wantVerbs[i])
		}
		if l.Member != (i != 2) {
			t.Errorf("node %d member = %v", i, l.Member)
		}
		rts += l.RoundTrips
		verbs += l.Verbs
	}
	if w.Loads[3].BusyPs != 200 || w.Loads[3].WaitPs != 100 {
		t.Errorf("joined node did not count from zero: %+v", w.Loads[3])
	}
	if rts != w.RoundTrips || verbs != w.Verbs || w.RoundTrips != 180 || w.Verbs != 165 {
		t.Errorf("totals %d round trips / %d verbs, loads sum to %d / %d", w.RoundTrips, w.Verbs, rts, verbs)
	}
	// Shares divide by every node's total, the non-member's included.
	if got := w.Loads[2].RTShare; got != 70.0/180 {
		t.Errorf("non-member round-trip share = %v, want %v", got, 70.0/180)
	}
	if got := w.Loads[0].VerbShare; got != 100.0/165 {
		t.Errorf("node 0 verb share = %v, want %v", got, 100.0/165)
	}
	// Summaries take members only: node 3's 10 verbs are the smallest
	// member share, not the non-member's 5.
	if w.MaxShare != 100.0/165 || w.MinShare != 10.0/165 || w.MaxMinRatio != w.MaxShare/w.MinShare {
		t.Errorf("member shares max %v min %v ratio %v", w.MaxShare, w.MinShare, w.MaxMinRatio)
	}
	// The busiest member's round trips (node 0's 60, not the non-member's
	// 70) over all nodes' round trips per member.
	if want := 60 / (180.0 / 3); w.Imbalance != want {
		t.Errorf("imbalance = %v, want %v", w.Imbalance, want)
	}

	// A window without traffic: the same counters at both ends.
	idle := NewLoadWindow(end, end, []mem.NodeID{0, 1, 3})
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if !finite(idle.MaxShare, idle.MinShare, idle.MaxMinRatio, idle.Imbalance) ||
		idle.MaxShare != 0 || idle.MinShare != 0 || idle.MaxMinRatio != 0 || idle.Imbalance != 0 {
		t.Errorf("idle window summaries = %+v", idle)
	}
	for _, l := range idle.Loads {
		if !finite(l.VerbShare, l.RTShare) || l.VerbShare != 0 || l.RTShare != 0 || l.RoundTrips != 0 {
			t.Errorf("idle window node %d = %+v", l.Node, l)
		}
	}
	// No members at all: the summaries stay zero too.
	if none := NewLoadWindow(start, end, nil); none.Imbalance != 0 || none.MaxShare != 0 || none.MaxMinRatio != 0 {
		t.Errorf("memberless window summaries = %+v", none)
	}
}
