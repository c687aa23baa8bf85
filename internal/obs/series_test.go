package obs

import (
	"errors"
	"sync"
	"testing"
)

// TestSeriesRejectsZeroWindows checks the typed construction error for
// non-positive window length or count.
func TestSeriesRejectsZeroWindows(t *testing.T) {
	for _, tc := range []struct {
		ps int64
		n  int
	}{
		{0, 8}, {-1, 8}, {1000, 0}, {1000, -3}, {0, 0},
	} {
		if _, err := NewSeries(tc.ps, tc.n); !errors.Is(err, ErrZeroWindow) {
			t.Fatalf("NewSeries(%d,%d) err = %v, want ErrZeroWindow", tc.ps, tc.n, err)
		}
	}
	if s, err := NewSeries(1000, 4); err != nil || s == nil {
		t.Fatalf("valid NewSeries failed: %v", err)
	}
}

// TestSeriesAggregation checks per-window count/sum/min/max/last and
// ordering of Windows().
func TestSeriesAggregation(t *testing.T) {
	s, _ := NewSeries(100, 8)
	s.Record(10, 3)
	s.Record(20, 1)
	s.Record(99, 7)
	s.Record(150, 5) // next window
	ws := s.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	w0 := ws[0]
	if w0.StartPs != 0 || w0.Count != 3 || w0.Sum != 11 || w0.Min != 1 || w0.Max != 7 || w0.Last != 7 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.Mean() != 11.0/3.0 {
		t.Fatalf("mean = %v", w0.Mean())
	}
	if ws[1].StartPs != 100 || ws[1].Count != 1 || ws[1].Last != 5 {
		t.Fatalf("window 1 = %+v", ws[1])
	}
	if latest, ok := s.Latest(); !ok || latest.StartPs != 100 {
		t.Fatalf("latest = %+v ok=%v", latest, ok)
	}
}

// TestSeriesWrapAround fills more windows than the ring holds and
// checks that only the newest `windows` survive, in order.
func TestSeriesWrapAround(t *testing.T) {
	s, _ := NewSeries(10, 4)
	for i := int64(0); i < 10; i++ { // windows 0..9, ring keeps 6..9
		s.Record(i*10, float64(i))
	}
	ws := s.Windows()
	if len(ws) != 4 {
		t.Fatalf("windows = %d, want ring capacity 4", len(ws))
	}
	for i, w := range ws {
		wantStart := int64(60 + 10*i)
		if w.StartPs != wantStart || w.Count != 1 || w.Last != float64(6+i) {
			t.Fatalf("window %d = %+v, want start %d", i, w, wantStart)
		}
	}
}

// TestSeriesClockJumps checks virtual-clock jumps: a jump across a few
// windows leaves empty intermediates in the ring; a jump past the whole
// ring restarts it; a stale (backwards) clock folds into the newest
// window instead of corrupting the ring.
func TestSeriesClockJumps(t *testing.T) {
	s, _ := NewSeries(10, 8)
	s.Record(5, 1)
	s.Record(35, 2) // skips windows 10 and 20
	ws := s.Windows()
	if len(ws) != 4 {
		t.Fatalf("windows = %d, want 4 (two empty intermediates)", len(ws))
	}
	if ws[1].Count != 0 || ws[2].Count != 0 {
		t.Fatalf("intermediate windows not empty: %+v %+v", ws[1], ws[2])
	}
	if ws[3].StartPs != 30 || ws[3].Count != 1 {
		t.Fatalf("newest window = %+v", ws[3])
	}

	// Jump far beyond the ring: everything resets to one fresh window.
	s.Record(1_000_000, 9)
	ws = s.Windows()
	if len(ws) != 1 || ws[0].StartPs != 1_000_000 || ws[0].Last != 9 {
		t.Fatalf("after huge jump windows = %+v", ws)
	}

	// Stale clock: folded into the newest window.
	s.Record(500, 4)
	ws = s.Windows()
	if len(ws) != 1 || ws[0].Count != 2 || ws[0].Last != 4 {
		t.Fatalf("after stale record windows = %+v", ws)
	}
}

// TestSeriesConcurrentScrape races recorders advancing the ring against
// scrapers; run under -race this checks the locking discipline, and the
// final state must account for every sample in the retained windows.
func TestSeriesConcurrentScrape(t *testing.T) {
	s, _ := NewSeries(100, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Record(int64(i)*7, 1)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, w := range s.Windows() {
					if w.Count == 0 && w.Sum != 0 {
						t.Error("torn window: zero count with nonzero sum")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// All four recorders end in the top window range; everything still
	// in the ring must sum consistently (count == sum since v == 1).
	var count uint64
	var sum float64
	for _, w := range s.Windows() {
		count += w.Count
		sum += w.Sum
	}
	if float64(count) != sum {
		t.Fatalf("count %d != sum %v", count, sum)
	}
	if count == 0 || count > 4000 {
		t.Fatalf("retained count %d out of range", count)
	}

	// The nil series (plane disabled) is inert.
	var nils *Series
	nils.Record(0, 1)
	if nils.Windows() != nil {
		t.Fatal("nil series not inert")
	}
}
