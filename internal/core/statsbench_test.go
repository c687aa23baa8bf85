package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// reflectLoadedStats is Client.Stats as it was written before the word walker
// (internal/counters): a reflective walk pairing every field of the snapshot
// with the client's. Kept as the baseline of the benchmark pair below, which
// also holds the two to the same answer.
func reflectLoadedStats(c *Client) Stats {
	var s Stats
	d, src := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&c.stats).Elem()
	for i := 0; i < d.NumField(); i++ {
		*d.Field(i).Addr().Interface().(*uint64) = atomic.LoadUint64(src.Field(i).Addr().Interface().(*uint64))
	}
	return s
}

var coreStatsSink Stats

// servedClient returns a client that has inserted, found and missed a key.
func servedClient(b *testing.B) *Client {
	f := fabric.New(fabric.InstantConfig())
	ring := consistenthash.New([]mem.NodeID{f.AddNode(64 << 20)}, 0)
	shared, err := Bootstrap(f, ring, 100)
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(shared, f.NewClient(), withCaches(shared, Options{}, 0))
	if _, err := c.Insert([]byte("key"), []byte("value")); err != nil {
		b.Fatal(err)
	}
	for _, k := range []string{"key", "kex"} {
		if _, _, err := c.Search([]byte(k)); err != nil {
			b.Fatal(err)
		}
	}
	if got, want := c.Stats(), reflectLoadedStats(c); got != want || got.Searches != 2 {
		b.Fatalf("Client.Stats() = %+v, reflective loader = %+v", got, want)
	}
	return c
}

func BenchmarkClientStats(b *testing.B) {
	c := servedClient(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coreStatsSink = c.Stats()
	}
}

func BenchmarkClientStatsReflective(b *testing.B) {
	c := servedClient(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coreStatsSink = reflectLoadedStats(c)
	}
}
