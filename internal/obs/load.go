package obs

import (
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// NodeLoad is what one memory node's NIC did over a window: its counters'
// deltas between the window's start and end, and its shares of the
// window's verbs and round trips over every node.
type NodeLoad struct {
	fabric.NICStats
	Member    bool    `json:"member"` // on the placement ring
	VerbShare float64 `json:"verb_share"`
	RTShare   float64 `json:"rt_share"`
}

// LoadWindow is every memory node's load over one window (Loads in the
// order of the end counters: node id order for Fabric.NICStats), the
// window's totals over every node, and the summaries over the ring
// members alone.
type LoadWindow struct {
	Members    []mem.NodeID `json:"members"`
	Loads      []NodeLoad   `json:"loads"`
	Verbs      uint64       `json:"verbs"`
	RoundTrips uint64       `json:"round_trips"`
	// MaxShare and MinShare are the members' largest and smallest verb
	// shares; MaxMinRatio is their quotient, 0 when a member served
	// nothing (the worst imbalance there is).
	MaxShare    float64 `json:"max_share"`
	MinShare    float64 `json:"min_share"`
	MaxMinRatio float64 `json:"max_min_ratio"`
	// Imbalance is the busiest member's round trips over the member mean
	// of the window's round trips (1 = balanced, N = everything on one of
	// N members).
	Imbalance float64 `json:"imbalance"`
}

// NewLoadWindow is the one definition of what the memory nodes did over a
// window, from their NIC counters at its start and end and the ring's
// members. A node absent from start (it joined mid-window) counts from
// zero. Shares divide by the totals over every node, members or not; the
// summaries take members only. A window without traffic has zero shares
// and zero summaries.
func NewLoadWindow(start, end []fabric.NICStats, members []mem.NodeID) LoadWindow {
	prev := make(map[mem.NodeID]fabric.NICStats, len(start))
	for _, s := range start {
		prev[s.Node] = s
	}
	member := make(map[mem.NodeID]bool, len(members))
	for _, n := range members {
		member[n] = true
	}
	w := LoadWindow{Members: members, Loads: make([]NodeLoad, len(end))}
	for i, e := range end {
		p := prev[e.Node]
		w.Loads[i] = NodeLoad{Member: member[e.Node], NICStats: fabric.NICStats{Node: e.Node,
			RoundTrips: e.RoundTrips - p.RoundTrips, Verbs: e.Verbs - p.Verbs, Bytes: e.Bytes - p.Bytes,
			Faults: e.Faults - p.Faults, BusyPs: e.BusyPs - p.BusyPs, WaitPs: e.WaitPs - p.WaitPs}}
		w.Verbs += w.Loads[i].Verbs
		w.RoundTrips += w.Loads[i].RoundTrips
	}
	var busiest uint64
	first := true
	for i := range w.Loads {
		l := &w.Loads[i]
		l.VerbShare, l.RTShare = fraction(l.Verbs, w.Verbs), fraction(l.RoundTrips, w.RoundTrips)
		if !l.Member {
			continue
		}
		if first || l.VerbShare > w.MaxShare {
			w.MaxShare = l.VerbShare
		}
		if first || l.VerbShare < w.MinShare {
			w.MinShare = l.VerbShare
		}
		first = false
		busiest = max(busiest, l.RoundTrips)
	}
	if w.MinShare > 0 {
		w.MaxMinRatio = w.MaxShare / w.MinShare
	}
	if n := len(member); n > 0 && w.RoundTrips > 0 {
		w.Imbalance = float64(busiest) / (float64(w.RoundTrips) / float64(n))
	}
	return w
}

// fraction is n/d, 0 for d == 0.
func fraction(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
