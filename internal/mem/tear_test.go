package mem_test

import (
	"bytes"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
)

// TestRegionMultiLineWritesCanTear: a transfer spanning 64-byte lines is not
// atomic — exactly like a multi-cache-line one-sided RDMA WRITE — and the
// checksum protocols of the layers above exist for it. A WRITE of two lines
// of 0xbb over two lines of 0xaa, parked after its first line, shows a
// reader the torn image: the first line new, the second old, each line whole.
func TestRegionMultiLineWritesCanTear(t *testing.T) {
	f := fabric.New(fabric.InstantConfig())
	at := mem.NewAddr(f.AddNode(1024), 0)
	w, r := f.NewClient(), f.NewClient()
	patA, patB := bytes.Repeat([]byte{0xaa}, 2*mem.LineSize), bytes.Repeat([]byte{0xbb}, 2*mem.LineSize)
	if err := w.Write(at, patA); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*mem.LineSize)
	script := &fabrictest.Script{Turns: []fabrictest.Turn{{Proc: 0, Until: func(s fabrictest.Step) bool { return s.Line == 1 }}, {Proc: 1}}}
	fabrictest.Run(f, script, fabrictest.Proc{C: w, Lines: true, Fn: func() {
		if err := w.Write(at, patB); err != nil {
			t.Error(err)
		}
	}}, fabrictest.Proc{C: r, Fn: func() {
		if err := r.Read(at, buf); err != nil {
			t.Error(err)
		}
	}})
	if want := append(patB[:mem.LineSize:mem.LineSize], patA[mem.LineSize:]...); script.Turns[0].At == nil || !bytes.Equal(buf, want) {
		t.Fatalf("parked at %+v, the reader saw lines starting %#x, %#x; want the torn image 0xbb, 0xaa", script.Turns[0].At, buf[0], buf[mem.LineSize])
	}
	if err := r.Read(at, buf); err != nil || !bytes.Equal(buf, patB) {
		t.Fatalf("after the WRITE: %v, lines starting %#x, %#x; want it whole", err, buf[0], buf[mem.LineSize])
	}
}
