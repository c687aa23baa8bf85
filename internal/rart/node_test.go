package rart

import (
	"bytes"
	"testing"
	"testing/quick"

	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// Decode and Grown are the arena's decode and grown over a throwaway arena:
// the images are the test's to keep.
func Decode(addr mem.Addr, buf []byte) (*Node, error) { return new(arena).decode(addr, buf) }

func (n *Node) Grown() *Node { return new(arena).grown(n) }

func TestNewNodeFields(t *testing.T) {
	n := NewNode(wire.Node4, []byte("LYRICS"), 3)
	if n.Hdr.Depth != 6 || n.Hdr.PartialLen != 3 {
		t.Errorf("header = %+v", n.Hdr)
	}
	if string(n.Partial) != "ICS" {
		t.Errorf("partial = %q", n.Partial)
	}
	if n.Hdr.PrefixHash != wire.PrefixHash42([]byte("LYRICS")) {
		t.Error("prefix hash not derived from full prefix")
	}
	if n.Base() != 3 {
		t.Errorf("base = %d", n.Base())
	}
}

func TestNewNodeOversizePartialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for partial > MaxPartial")
		}
	}()
	NewNode(wire.Node4, bytes.Repeat([]byte("x"), 40), wire.MaxPartial+1)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, typ := range []wire.NodeType{wire.Node4, wire.Node16, wire.Node48, wire.Node256} {
		n := NewNode(typ, []byte("prefix!"), 4)
		n.Addr = mem.NewAddr(2, 4096)
		n.EOL = wire.Slot{Present: true, Leaf: true, Addr: mem.NewAddr(1, 64)}
		n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: 'a', Addr: mem.NewAddr(0, 128)})
		n.addChildLocal(wire.Slot{Present: true, KeyByte: 'z', ChildType: wire.Node16, Addr: mem.NewAddr(1, 256)})

		buf := n.Encode()
		if uint64(len(buf)) != wire.NodeSize(typ) {
			t.Fatalf("%v image size %d != %d", typ, len(buf), wire.NodeSize(typ))
		}
		got, err := Decode(n.Addr, buf)
		if err != nil {
			t.Fatalf("%v decode: %v", typ, err)
		}
		if got.Hdr != n.Hdr || !bytes.Equal(got.Partial, n.Partial) || got.EOL != n.EOL {
			t.Errorf("%v metadata mismatch", typ)
		}
		a, _, ok := got.Child('a')
		if !ok || !a.Leaf || a.Addr != mem.NewAddr(0, 128) {
			t.Errorf("%v child a = %+v ok=%v", typ, a, ok)
		}
		z, _, ok := got.Child('z')
		if !ok || z.Leaf || z.ChildType != wire.Node16 {
			t.Errorf("%v child z = %+v ok=%v", typ, z, ok)
		}
		if _, _, ok := got.Child('q'); ok {
			t.Errorf("%v phantom child", typ)
		}
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := Decode(0, make([]byte, 8)); err == nil {
		t.Error("short buffer decoded")
	}
	n := NewNode(wire.Node48, []byte("p"), 1)
	if _, err := Decode(0, n.Encode()[:100]); err == nil {
		t.Error("truncated Node48 decoded")
	}
}

func TestChildrenSortedAllTypes(t *testing.T) {
	for _, typ := range []wire.NodeType{wire.Node4, wire.Node16, wire.Node48, wire.Node256} {
		n := NewNode(typ, nil, 0)
		for _, b := range []byte{9, 3, 200, 47} {
			n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: b, Addr: mem.NewAddr(0, 64)})
		}
		kids := n.Children()
		if len(kids) != 4 {
			t.Fatalf("%v children = %d", typ, len(kids))
		}
		for i := 1; i < len(kids); i++ {
			if kids[i-1].KeyByte >= kids[i].KeyByte {
				t.Fatalf("%v children unsorted", typ)
			}
		}
	}
}

func TestGrownPreservesEverything(t *testing.T) {
	n := NewNode(wire.Node4, []byte("abcd"), 2)
	n.Addr = mem.NewAddr(0, 512)
	n.EOL = wire.Slot{Present: true, Leaf: true, Addr: mem.NewAddr(0, 64)}
	for _, b := range []byte{1, 2, 3, 4} {
		n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: b, Addr: mem.NewAddr(0, uint64(b)*64)})
	}
	g := n.Grown()
	if g.Hdr.Type != wire.Node16 {
		t.Errorf("grown type = %v", g.Hdr.Type)
	}
	if g.Hdr.Depth != n.Hdr.Depth || g.Hdr.PrefixHash != n.Hdr.PrefixHash ||
		g.Hdr.PartialLen != n.Hdr.PartialLen {
		t.Error("grown header lost fields")
	}
	if g.Hdr.Status != wire.StatusIdle {
		t.Error("grown copy must be born Idle")
	}
	if g.EOL != n.EOL || !bytes.Equal(g.Partial, n.Partial) {
		t.Error("grown copy lost EOL/partial")
	}
	for _, b := range []byte{1, 2, 3, 4} {
		s, _, ok := g.Child(b)
		if !ok || s.Addr != mem.NewAddr(0, uint64(b)*64) {
			t.Errorf("grown copy lost child %d", b)
		}
	}
	// Room for more children now.
	if _, ok := g.FreeSlot(5); !ok {
		t.Error("grown Node16 has no free slot")
	}
}

func TestGrowChainToNode256(t *testing.T) {
	n := NewNode(wire.Node4, nil, 0)
	for b := 0; b < 4; b++ {
		n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: byte(b), Addr: mem.NewAddr(0, 64)})
	}
	for _, want := range []wire.NodeType{wire.Node16, wire.Node48, wire.Node256} {
		n = n.Grown()
		if n.Hdr.Type != want {
			t.Fatalf("grew to %v, want %v", n.Hdr.Type, want)
		}
		for b := len(n.Children()); b < n.Hdr.Type.Capacity(); b++ {
			n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: byte(b), Addr: mem.NewAddr(0, 64)})
		}
		if _, ok := n.FreeSlot(255); ok && n.Hdr.Type != wire.Node256 {
			t.Fatalf("%v reports free slot while full", n.Hdr.Type)
		}
	}
	if len(n.Children()) != 256 {
		t.Errorf("final children = %d", len(n.Children()))
	}
}

func TestFreeSlotSemantics(t *testing.T) {
	n := NewNode(wire.Node256, nil, 0)
	n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: 7, Addr: mem.NewAddr(0, 64)})
	if _, ok := n.FreeSlot(7); ok {
		t.Error("Node256 slot 7 should be taken")
	}
	if idx, ok := n.FreeSlot(8); !ok || idx != 8 {
		t.Error("Node256 free slot must be the key byte itself")
	}
}

func TestSlotAddrLayout(t *testing.T) {
	n := NewNode(wire.Node48, []byte("xy"), 1)
	n.Addr = mem.NewAddr(3, 8192)
	if n.EOLAddr() != n.Addr.Add(wire.EOLSlotOff) {
		t.Error("EOL addr wrong")
	}
	if n.IndexAddr(10) != n.Addr.Add(wire.SlotBase+10) {
		t.Error("index addr wrong")
	}
	if n.SlotAddr(2) != n.Addr.Add(wire.SlotsOff(wire.Node48)+16) {
		t.Error("slot addr wrong")
	}
}

func TestMatchPartial(t *testing.T) {
	n := NewNode(wire.Node4, []byte("LYRICS"), 3) // base=3 partial="ICS"
	cases := []struct {
		key  string
		m    int
		full bool
	}{
		{"LYRICS", 3, true},
		{"LYRICSAND", 3, true},
		{"LYRICX", 2, false},
		{"LYRI", 1, false},
		{"LYR", 0, false}, // shorter than base+1 but equal to base
		{"LY", 0, false},  // shorter than base
	}
	for _, c := range cases {
		m, full := MatchPartial(n, []byte(c.key))
		if m != c.m || full != c.full {
			t.Errorf("MatchPartial(%q) = (%d,%v), want (%d,%v)", c.key, m, full, c.m, c.full)
		}
	}
}

func TestOnPath(t *testing.T) {
	n := NewNode(wire.Node4, []byte("LYR"), 2)
	if match, inc := OnPath(n, []byte("LYRICS")); !match || inc {
		t.Errorf("on-path key rejected: %v %v", match, inc)
	}
	if match, _ := OnPath(n, []byte("LYX")); match {
		t.Error("diverging key accepted")
	}
	// Corrupt the stored hash: partial matches but hash disagrees →
	// inconsistent observation.
	n.Hdr.PrefixHash ^= 1
	if match, inc := OnPath(n, []byte("LYRICS")); match || !inc {
		t.Errorf("hash mismatch not flagged inconsistent: %v %v", match, inc)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	f := func(a, b []byte) bool {
		n := CommonPrefixLen(a, b)
		if n > len(a) || n > len(b) {
			return false
		}
		if !bytes.Equal(a[:n], b[:n]) {
			return false
		}
		return n == len(a) || n == len(b) || a[n] != b[n]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNode48IndexConsistency(t *testing.T) {
	n := NewNode(wire.Node48, nil, 0)
	for b := 0; b < 48; b++ {
		n.addChildLocal(wire.Slot{Present: true, Leaf: true, KeyByte: byte(b * 5), Addr: mem.NewAddr(0, uint64(b+1)*64)})
	}
	buf := n.Encode()
	got, err := Decode(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 48; b++ {
		s, _, ok := got.Child(byte(b * 5))
		if !ok || s.Addr != mem.NewAddr(0, uint64(b+1)*64) {
			t.Fatalf("child %d lost through encode/decode", b*5)
		}
	}
	if _, ok := got.FreeSlot(1); ok {
		t.Error("full Node48 reports free slot")
	}
}
