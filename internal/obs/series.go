package obs

import (
	"errors"
	"sync"
)

// ErrZeroWindow is returned by NewSeries when the window length or the
// window count is not positive.
var ErrZeroWindow = errors.New("obs: series window length and window count must be positive")

// Window is one fixed-length aggregation window of a Series. Count is
// the number of samples recorded in [StartPs, StartPs+windowPs); Sum,
// Min, Max and Last summarize them. A window with Count == 0 carries no
// samples (Min/Max/Sum/Last are zero).
type Window struct {
	StartPs int64   `json:"start_ps"`
	Count   uint64  `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Last    float64 `json:"last"`
}

// Mean returns the window's average sample, or 0 for an empty window.
func (w Window) Mean() float64 {
	if w.Count == 0 {
		return 0
	}
	return w.Sum / float64(w.Count)
}

// Series is a bounded ring of fixed-length time windows. Record places
// a sample into the window owning its timestamp, advancing the ring and
// zeroing skipped windows when time moves forward (virtual-clock jumps
// across many windows are fine: intermediate windows stay empty, and a
// jump past the whole ring simply restarts it at the new position).
// Samples older than the newest window are folded into the newest
// window rather than dropped, so slightly stale virtual clocks from
// concurrent recorders cannot corrupt the ring.
//
// The hot path (Record) is allocation-free; the ring is allocated once
// at construction. All methods are safe for concurrent use, so a scrape
// (Windows) can race a rotation.
type Series struct {
	mu       sync.Mutex
	windowPs int64
	ring     []Window
	head     int // ring index of the newest window
	n        int // number of populated windows, 0..len(ring)
}

// NewSeries builds a series of `windows` ring slots, each covering
// windowPs picoseconds. Both must be positive or ErrZeroWindow is
// returned.
func NewSeries(windowPs int64, windows int) (*Series, error) {
	if windowPs <= 0 || windows <= 0 {
		return nil, ErrZeroWindow
	}
	return &Series{windowPs: windowPs, ring: make([]Window, windows)}, nil
}

// Record adds sample v at time nowPs.
func (s *Series) Record(nowPs int64, v float64) {
	if s == nil {
		return
	}
	if nowPs < 0 {
		nowPs = 0
	}
	start := nowPs - nowPs%s.windowPs
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		s.ring[s.head] = Window{StartPs: start}
		s.n = 1
	}
	cur := s.ring[s.head].StartPs
	switch {
	case start > cur:
		steps := (start - cur) / s.windowPs
		if steps >= int64(len(s.ring)) {
			// Jumped past the whole ring: restart it at the new window.
			s.head = 0
			s.n = 1
			for i := range s.ring {
				s.ring[i] = Window{}
			}
			s.ring[0] = Window{StartPs: start}
		} else {
			for i := int64(0); i < steps; i++ {
				cur += s.windowPs
				s.head = (s.head + 1) % len(s.ring)
				s.ring[s.head] = Window{StartPs: cur}
				if s.n < len(s.ring) {
					s.n++
				}
			}
		}
	case start < cur:
		// Stale clock: fold into the newest window.
	}
	w := &s.ring[s.head]
	if w.Count == 0 || v < w.Min {
		w.Min = v
	}
	if w.Count == 0 || v > w.Max {
		w.Max = v
	}
	w.Count++
	w.Sum += v
	w.Last = v
}

// Windows returns a copy of the populated windows, oldest first. The
// newest window may still be accumulating.
func (s *Series) Windows() []Window {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]Window, s.n)
	first := (s.head - s.n + 1 + len(s.ring)*2) % len(s.ring)
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(first+i)%len(s.ring)]
	}
	return out
}

// Latest returns the newest window and whether any window exists.
func (s *Series) Latest() (Window, bool) {
	if s == nil {
		return Window{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Window{}, false
	}
	return s.ring[s.head], true
}
