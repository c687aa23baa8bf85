package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sphinx/internal/fabric"
)

// TestReadMonotonicity is a linearizability-lite check on the coherence
// protocols: one writer per key bumps a version number with in-place
// updates; concurrent readers on other clients must never observe a key's
// version move backwards. A stale filter entry, a resurrected leaf, or a
// mis-ordered pointer swing would all surface as time travel here.
func TestReadMonotonicity(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
	const keys = 6
	const versionsPerKey = 400

	setup := newTestClient(f, shared, Options{})
	val := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, v)
		return b
	}
	for k := 0; k < keys; k++ {
		if _, err := setup.Insert([]byte(fmt.Sprintf("mono-%d", k)), val(0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, keys+4)

	// One writer per key: strictly increasing versions.
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newSeededClient(f, shared, uint64(k+1))
			key := []byte(fmt.Sprintf("mono-%d", k))
			for v := uint64(1); v <= versionsPerKey; v++ {
				if _, err := c.Update(key, val(v)); err != nil {
					errs <- fmt.Errorf("writer %d v%d: %w", k, v, err)
					return
				}
			}
		}(k)
	}
	// Readers: per-key high-water marks must never regress.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := newSeededClient(f, shared, uint64(100+r))
			high := make([]uint64, keys)
			for i := 0; !stop.Load(); i++ {
				k := i % keys
				key := []byte(fmt.Sprintf("mono-%d", k))
				b, ok, err := c.Search(key)
				if err != nil || !ok || len(b) != 8 {
					errs <- fmt.Errorf("reader %d key %d: ok=%v len=%d err=%v", r, k, ok, len(b), err)
					return
				}
				v := binary.BigEndian.Uint64(b)
				if v < high[k] {
					errs <- fmt.Errorf("reader %d: key %d went backwards %d → %d", r, k, high[k], v)
					return
				}
				high[k] = v
			}
		}(r)
	}

	// Stop readers once writers are done.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	writerWait := sync.WaitGroup{}
	writerWait.Add(1)
	go func() {
		defer writerWait.Done()
		// Poll until all writers finished: final values reach max version.
		c := newSeededClient(f, shared, 999)
		for {
			allDone := true
			for k := 0; k < keys; k++ {
				b, ok, err := c.Search([]byte(fmt.Sprintf("mono-%d", k)))
				if err != nil || !ok {
					allDone = false
					break
				}
				if binary.BigEndian.Uint64(b) < versionsPerKey {
					allDone = false
					break
				}
			}
			if allDone {
				stop.Store(true)
				return
			}
			select {
			case <-done:
				stop.Store(true)
				return
			default:
			}
		}
	}()
	<-done
	writerWait.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
