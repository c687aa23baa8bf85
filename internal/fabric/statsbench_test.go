package fabric

import (
	"sync/atomic"
	"testing"

	"sphinx/internal/mem"
)

// handLoadedStats is Client.Stats as it was written before the word walker
// (internal/counters): one line per field. Kept as the baseline of the
// benchmark pair below, which also holds the two to the same answer.
func handLoadedStats(c *Client) Stats {
	var s Stats
	s.RoundTrips = atomic.LoadUint64(&c.stats.RoundTrips)
	s.Verbs = atomic.LoadUint64(&c.stats.Verbs)
	s.BytesRead = atomic.LoadUint64(&c.stats.BytesRead)
	s.BytesWrite = atomic.LoadUint64(&c.stats.BytesWrite)
	for i := range s.ByKind {
		s.ByKind[i] = atomic.LoadUint64(&c.stats.ByKind[i])
	}
	s.Transients = atomic.LoadUint64(&c.stats.Transients)
	s.Timeouts = atomic.LoadUint64(&c.stats.Timeouts)
	s.NodeDownRejects = atomic.LoadUint64(&c.stats.NodeDownRejects)
	s.HealthRejects = atomic.LoadUint64(&c.stats.HealthRejects)
	s.Delays = atomic.LoadUint64(&c.stats.Delays)
	return s
}

var statsSink Stats

// trafficClient returns a client whose every counter kind has moved.
func trafficClient(b *testing.B) *Client {
	f := New(InstantConfig())
	node := f.AddNode(1 << 20)
	c := f.NewClient()
	addr := mem.NewAddr(node, 4096)
	if err := c.Write(addr, make([]byte, 64)); err != nil {
		b.Fatal(err)
	}
	if err := c.Read(addr, make([]byte, 64)); err != nil {
		b.Fatal(err)
	}
	if _, err := c.FetchAdd(addr, 1); err != nil {
		b.Fatal(err)
	}
	if got, want := c.Stats(), handLoadedStats(c); got != want || got.RoundTrips != 3 {
		b.Fatalf("Client.Stats() = %+v, hand-written loader = %+v", got, want)
	}
	return c
}

func BenchmarkClientStats(b *testing.B) {
	c := trafficClient(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		statsSink = c.Stats()
	}
}

func BenchmarkClientStatsHandWritten(b *testing.B) {
	c := trafficClient(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		statsSink = handLoadedStats(c)
	}
}
