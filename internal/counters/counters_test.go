package counters_test

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"sphinx/internal/consistenthash"
	"sphinx/internal/core"
	"sphinx/internal/counters"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
)

// TestCheck: the six counter structs the walker serves pass; anything whose
// word view would walk a non-counter byte panics.
func TestCheck(t *testing.T) {
	counters.Check[fabric.Stats]() // [4]uint64 inside
	counters.Check[racehash.Stats]()
	counters.Check[rart.EngineStats]()
	counters.Check[core.Stats]()
	counters.Check[core.LACStats]()
	counters.Check[cuckoo.Stats]()
	counters.Check[struct{ Net fabric.Stats }]() // nested counter struct

	panics := func(name string, check func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Check accepted a struct with %s", name)
			}
		}()
		check()
	}
	panics("a bool", counters.Check[struct {
		N  uint64
		On bool
	}])
	panics("an int32 pair", counters.Check[struct{ A, B int32 }]) // 8 bytes, no uint64
	panics("a pointer", counters.Check[struct {
		N    uint64
		Next *uint64
	}])
	panics("a nested non-counter struct", counters.Check[struct {
		N   uint64
		Sub struct{ F float64 }
	}])
}

// walked checks the three walkers on one counter type against plain
// per-word arithmetic over W, a [N]uint64 of the same size.
func walked[T any, W any](t *testing.T, rng *rand.Rand) {
	t.Helper()
	words := func(v T) []uint64 {
		var w W
		if unsafe.Sizeof(w) != unsafe.Sizeof(v) {
			t.Fatalf("%T is %d bytes, %T is %d", v, unsafe.Sizeof(v), w, unsafe.Sizeof(w))
		}
		w = *(*W)(unsafe.Pointer(&v))
		rv := reflect.ValueOf(w)
		out := make([]uint64, rv.Len())
		for i := range out {
			out[i] = rv.Index(i).Uint()
		}
		return out
	}
	a, b := random[T](rng), random[T](rng)
	sum, diff := a, a
	counters.Add(&sum, &b)
	counters.Sub(&diff, &b)
	wa, wb, ws, wd := words(a), words(b), words(sum), words(diff)
	for i := range wa {
		if ws[i] != wa[i]+wb[i] || wd[i] != wa[i]-wb[i] {
			t.Errorf("%T word %d: Add %d Sub %d, want %d and %d", a, i, ws[i], wd[i], wa[i]+wb[i], wa[i]-wb[i])
		}
	}
	if got := counters.Load(&a); !reflect.DeepEqual(got, a) {
		t.Errorf("%T: Load = %+v, want %+v", a, got, a)
	}
}

func TestAddSubLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		walked[fabric.Stats, [13]uint64](t, rng)
		walked[racehash.Stats, [17]uint64](t, rng)
		walked[rart.EngineStats, [14]uint64](t, rng)
		walked[core.Stats, [48]uint64](t, rng)
		walked[core.LACStats, [7]uint64](t, rng)
		walked[cuckoo.Stats, [10]uint64](t, rng)
	}
}

// TestStatsCallsDoNotAllocate: the repo benchmark reads fabric.Client.Stats
// once per operation, and a scrape reads the other two per worker.
func TestStatsCallsDoNotAllocate(t *testing.T) {
	f := fabric.New(fabric.InstantConfig())
	ring, err := consistenthash.NewChecked([]mem.NodeID{f.AddNode(64 << 20)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := core.Bootstrap(f, ring, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fc := f.NewClient()
	c := core.NewClient(shared, fc, core.Options{})
	if _, err := c.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"fabric.Client.Stats": func() { _ = fc.Stats() },
		"rart.Engine.Stats":   func() { _ = c.Engine().Stats() },
		"core.Client.Stats":   func() { _ = c.Stats() },
	} {
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

// TestLoadWhileBumped scrapes a counter struct while a worker bumps its words
// atomically: every word a scrape sees is monotone, and under -race the walk
// is clean against atomic adds.
func TestLoadWhileBumped(t *testing.T) {
	var st fabric.Stats
	const bumps = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			atomic.AddUint64(&st.RoundTrips, 1)
			atomic.AddUint64(&st.ByKind[i%4], 1)
			atomic.AddUint64(&st.Delays, 2)
		}
	}()
	var last fabric.Stats
	for last.RoundTrips < bumps {
		cur := counters.Load(&st)
		if cur.RoundTrips < last.RoundTrips || cur.Delays < last.Delays || cur.ByKind[3] < last.ByKind[3] {
			t.Fatalf("a scrape went backwards: %+v after %+v", cur, last)
		}
		last = cur
	}
	wg.Wait()
	if got := counters.Load(&st); got.Delays != 2*bumps || got.ByKind[0]+got.ByKind[1]+got.ByKind[2]+got.ByKind[3] != bumps {
		t.Errorf("final scrape %+v", got)
	}
}
