package mem

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestRegionRoundsUpSize(t *testing.T) {
	r := NewRegion(0, 100)
	if r.Size() != 128 {
		t.Errorf("size = %d, want 128", r.Size())
	}
}

func TestRegionReadWriteRoundTrip(t *testing.T) {
	r := NewRegion(2, 4096)
	src := []byte("the quick brown fox jumps over the lazy dog, twice over, for length")
	r.Write(100, src)
	dst := make([]byte, len(src))
	r.Read(100, dst)
	if !bytes.Equal(src, dst) {
		t.Errorf("round trip mismatch: %q != %q", dst, src)
	}
}

func TestRegionReadWriteProperty(t *testing.T) {
	r := NewRegion(0, 1<<16)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		offset := uint64(off)
		if offset+uint64(len(data)) > r.Size() {
			offset = r.Size() - uint64(len(data))
			if uint64(len(data)) > r.Size() {
				return true
			}
		}
		r.Write(offset, data)
		out := make([]byte, len(data))
		r.Read(offset, out)
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegionUint64(t *testing.T) {
	r := NewRegion(0, 1024)
	r.WriteUint64(64, 0xdeadbeefcafebabe)
	if got := r.ReadUint64(64); got != 0xdeadbeefcafebabe {
		t.Errorf("ReadUint64 = %#x", got)
	}
}

func TestRegionCompareSwap(t *testing.T) {
	r := NewRegion(0, 1024)
	r.WriteUint64(8, 10)
	if old := r.CompareSwap(8, 10, 20); old != 10 {
		t.Errorf("CAS pre-image = %d, want 10", old)
	}
	if got := r.ReadUint64(8); got != 20 {
		t.Errorf("after CAS = %d, want 20", got)
	}
	if old := r.CompareSwap(8, 10, 30); old != 20 {
		t.Errorf("failed CAS pre-image = %d, want 20", old)
	}
	if got := r.ReadUint64(8); got != 20 {
		t.Errorf("failed CAS must not write, got %d", got)
	}
}

func TestRegionFetchAdd(t *testing.T) {
	r := NewRegion(0, 1024)
	r.WriteUint64(16, 5)
	if old := r.FetchAdd(16, 7); old != 5 {
		t.Errorf("FAA pre-image = %d, want 5", old)
	}
	if got := r.ReadUint64(16); got != 12 {
		t.Errorf("after FAA = %d, want 12", got)
	}
}

func TestRegionFetchAddConcurrent(t *testing.T) {
	r := NewRegion(0, 1024)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.FetchAdd(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := r.ReadUint64(0); got != workers*each {
		t.Errorf("concurrent FAA total = %d, want %d", got, workers*each)
	}
}

func TestRegionCASConcurrentLock(t *testing.T) {
	// A CAS-based lock must admit exactly one holder at a time.
	r := NewRegion(0, 1024)
	var inside, maxInside, violations int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for r.CompareSwap(0, 0, 1) != 0 {
				}
				mu.Lock()
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				if inside > 1 {
					violations++
				}
				inside--
				mu.Unlock()
				r.WriteUint64(0, 0)
			}
		}()
	}
	wg.Wait()
	if violations != 0 {
		t.Errorf("lock admitted %d concurrent holders", violations)
	}
}

func TestRegionOutOfBoundsPanics(t *testing.T) {
	r := NewRegion(0, 128)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds read")
		}
	}()
	r.Read(120, make([]byte, 16))
}

func TestRegionUnalignedAtomicPanics(t *testing.T) {
	r := NewRegion(0, 128)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unaligned atomic")
		}
	}()
	r.ReadUint64(4)
}

func TestRegionSingleLineAtomicity(t *testing.T) {
	// Each 64-byte line of a transfer — of one line or of two — must never be
	// observed torn while a writer rewrites the same lines: a multi-line
	// transfer holds each line's lock while it copies that line.
	for _, lines := range []int{1, 2} {
		r := NewRegion(0, 1024)
		patA := bytes.Repeat([]byte{0xaa}, lines*LineSize)
		patB := bytes.Repeat([]byte{0xbb}, lines*LineSize)
		r.Write(0, patA)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 2000; i++ {
				if i%2 == 0 {
					r.Write(0, patB)
				} else {
					r.Write(0, patA)
				}
			}
		}()
		buf := make([]byte, lines*LineSize)
		for i := 0; i < 2000; i++ {
			r.Read(0, buf)
			for l := 0; l < lines; l++ {
				if line := buf[l*LineSize : (l+1)*LineSize]; !bytes.Equal(line, patA[:LineSize]) && !bytes.Equal(line, patB[:LineSize]) {
					t.Fatalf("line %d of a %d-line read torn: % x", l, lines, line[:8])
				}
			}
		}
		<-done
	}
}
