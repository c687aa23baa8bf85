package rart

import (
	"sync/atomic"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// handLoadedEngineStats is Engine.Stats as it was written before the word
// walker (internal/counters): one line per field. Kept as the baseline of the
// benchmark pair below, which also holds the two to the same answer.
func handLoadedEngineStats(e *Engine) EngineStats {
	return EngineStats{
		Restarts:          atomic.LoadUint64(&e.stats.Restarts),
		LockSteals:        atomic.LoadUint64(&e.stats.LockSteals),
		LeafLockBreaks:    atomic.LoadUint64(&e.stats.LeafLockBreaks),
		PublishRetries:    atomic.LoadUint64(&e.stats.PublishRetries),
		AbandonedObjects:  atomic.LoadUint64(&e.stats.AbandonedObjects),
		AbandonedBytes:    atomic.LoadUint64(&e.stats.AbandonedBytes),
		LeaseBets:         atomic.LoadUint64(&e.stats.LeaseBets),
		LeaseBetsLost:     atomic.LoadUint64(&e.stats.LeaseBetsLost),
		LeaseBetsReturned: atomic.LoadUint64(&e.stats.LeaseBetsReturned),
		ScanRounds:        atomic.LoadUint64(&e.stats.ScanRounds),
		ScanReads:         atomic.LoadUint64(&e.stats.ScanReads),
		ScanNodeReads:     atomic.LoadUint64(&e.stats.ScanNodeReads),
		ScanEmitted:       atomic.LoadUint64(&e.stats.ScanEmitted),
		ScanReresolved:    atomic.LoadUint64(&e.stats.ScanReresolved),
	}
}

var engineStatsSink EngineStats

// countedEngine returns an engine each of whose counters holds its own value.
func countedEngine(b *testing.B) *Engine {
	f := fabric.New(fabric.InstantConfig())
	ring := consistenthash.New([]mem.NodeID{f.AddNode(1 << 20)}, 8)
	c := f.NewClient()
	e := NewEngine(c, mem.NewAllocator(c, 0), ring, Config{})
	e.stats = EngineStats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	if got, want := e.Stats(), handLoadedEngineStats(e); got != want || got != e.stats {
		b.Fatalf("Engine.Stats() = %+v, hand-written loader = %+v", got, want)
	}
	return e
}

func BenchmarkEngineStats(b *testing.B) {
	e := countedEngine(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engineStatsSink = e.Stats()
	}
}

func BenchmarkEngineStatsHandWritten(b *testing.B) {
	e := countedEngine(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engineStatsSink = handLoadedEngineStats(e)
	}
}
