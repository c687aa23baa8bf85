package racehash

import (
	"fmt"
	"sync"
	"testing"

	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// TestConcurrentReplaceDuringSplits mixes entry replacement (the type-
// switch path) with inserts that force segment splits, from multiple
// clients. Every key must resolve to exactly its latest entry.
func TestConcurrentReplaceDuringSplits(t *testing.T) {
	env := newEnv(t, 1)
	const workers = 5
	const perWorker = 250
	type slotState struct {
		mu   sync.Mutex
		last map[int]wire.HashEntry
	}
	states := make([]*slotState, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		states[w] = &slotState{last: make(map[int]wire.HashEntry)}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := env.f.NewClient()
			alloc := mem.NewAllocator(c, 0)
			v := NewView(env.table, c)
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				h, fp := hashFP(id)
				e := env.makeEntry(t, c, alloc, h, fp)
				if err := v.Insert(h, e, alloc); err != nil {
					errs <- fmt.Errorf("w%d insert %d: %w", w, i, err)
					return
				}
				states[w].mu.Lock()
				states[w].last[id] = e
				states[w].mu.Unlock()
				// Replace an earlier own entry every few inserts (the
				// node-type-switch pattern: same prefix, new address).
				if i%5 == 4 {
					victim := w*perWorker + i - 3
					states[w].mu.Lock()
					old := states[w].last[victim]
					states[w].mu.Unlock()
					vh, vfp := hashFP(victim)
					newE := env.makeEntry(t, c, alloc, vh, vfp)
					if err := v.Replace(vh, old, newE, alloc); err != nil {
						errs <- fmt.Errorf("w%d replace %d: %w", w, victim, err)
						return
					}
					states[w].mu.Lock()
					states[w].last[victim] = newE
					states[w].mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Verify: each id resolves to its final entry.
	c := env.f.NewClient()
	v := NewView(env.table, c)
	for w := 0; w < workers; w++ {
		for id, want := range states[w].last {
			h, fp := hashFP(id)
			got, err := v.LookupAppend(nil, h, fp)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, cand := range got {
				if cand.Entry == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("id %d: latest entry missing (candidates %d)", id, len(got))
			}
		}
	}
	if v2 := NewView(env.table, env.f.NewClient()); v2.Stats().Splits != 0 {
		t.Error("fresh view reports splits")
	}
}

// TestConcurrentRemoveDuringSplits interleaves removals with inserts that
// split segments; removed entries must stay gone.
func TestConcurrentRemoveDuringSplits(t *testing.T) {
	env := newEnv(t, 1)
	const workers = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := env.f.NewClient()
			alloc := mem.NewAllocator(c, 0)
			v := NewView(env.table, c)
			var prev wire.HashEntry
			for i := 0; i < 300; i++ {
				id := w*1000 + i
				h, fp := hashFP(id)
				e := env.makeEntry(t, c, alloc, h, fp)
				if err := v.Insert(h, e, alloc); err != nil {
					errs <- fmt.Errorf("w%d insert: %w", w, err)
					return
				}
				if i%2 == 1 {
					// Remove exactly the previous entry (never collided
					// candidates belonging to other keys — as Sphinx's
					// delete path does under node locks).
					ph, _ := hashFP(id - 1)
					if err := v.Remove(ph, prev); err != nil {
						errs <- fmt.Errorf("w%d remove: %w", w, err)
						return
					}
				}
				prev = e
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Odd-indexed ids survive; even-indexed were removed.
	c := env.f.NewClient()
	v := NewView(env.table, c)
	for w := 0; w < workers; w++ {
		for i := 0; i < 300; i++ {
			id := w*1000 + i
			h, fp := hashFP(id)
			got, err := v.LookupAppend(nil, h, fp)
			if err != nil {
				t.Fatal(err)
			}
			// Fingerprint collisions can surface other ids' candidates;
			// verify via the node's placement hash.
			live := 0
			for _, cand := range got {
				hdr, err := c.ReadUint64(cand.Entry.Addr)
				if err != nil {
					t.Fatal(err)
				}
				if wire.DecodeNodeHeader(hdr).PrefixHash == h {
					live++
				}
			}
			even := i%2 == 0 && i+1 < 300 // removed by the i+1 iteration
			if even && live != 0 {
				t.Fatalf("id %d (removed) still has %d live candidates", id, live)
			}
			if !even && live == 0 {
				t.Fatalf("id %d (kept) lost", id)
			}
		}
	}
}

// TestConcurrentBlindInsertsRaceSplits: clients insert blind into a table
// that starts at one segment, so their CASes race the splits other clients'
// inserts set off, and their directory caches go stale under them. Every entry
// is found, in exactly one slot.
func TestConcurrentBlindInsertsRaceSplits(t *testing.T) {
	env := newEnv(t, 1)
	const workers, perWorker = 5, 300
	entries := make([][]wire.HashEntry, workers)
	stats := make([]Stats, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := env.f.NewClient()
			alloc := mem.NewAllocator(c, 0)
			v := NewView(env.table, c)
			defer func() { stats[w] = v.Stats() }()
			for i := 0; i < perWorker; i++ {
				h, fp := hashFP(w*perWorker + i)
				e := env.makeEntry(t, c, alloc, h, fp)
				if _, err := blindInsert(v, h, e, alloc, nil); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				entries[w] = append(entries[w], e)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var sum Stats
	for _, st := range stats {
		sum = sum.Add(st)
	}
	if sum.Splits == 0 || sum.BlindInserts != workers*perWorker || sum.BlindLost == 0 {
		t.Errorf("%d splits, %d blind inserts, %d lost; want splits racing blind inserts that lost some", sum.Splits, sum.BlindInserts, sum.BlindLost)
	}
	seen := make(map[wire.HashEntry]int)
	if err := NewView(env.table, env.f.NewClient()).Walk(func(e wire.HashEntry) error { seen[e]++; return nil }); err != nil {
		t.Fatal(err)
	}
	v := NewView(env.table, env.f.NewClient())
	for w := range entries {
		for i, e := range entries[w] {
			h, fp := hashFP(w*perWorker + i)
			cands, err := v.LookupAppend(nil, h, fp)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, c := range cands {
				found = found || c.Entry == e
			}
			if !found || seen[e] != 1 {
				t.Fatalf("worker %d entry %d: found %v, in %d slots; want found, 1", w, i, found, seen[e])
			}
		}
	}
}
