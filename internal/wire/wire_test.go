package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"sphinx/internal/mem"
)

func TestNodeTypeCapacity(t *testing.T) {
	cases := []struct {
		t    NodeType
		want int
	}{{Node4, 4}, {Node16, 16}, {Node48, 48}, {Node256, 256}}
	for _, c := range cases {
		if got := c.t.Capacity(); got != c.want {
			t.Errorf("%v.Capacity() = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestNodeTypeGrow(t *testing.T) {
	if Node4.Grow() != Node16 || Node16.Grow() != Node48 || Node48.Grow() != Node256 {
		t.Error("grow chain wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("growing Node256 should panic")
		}
	}()
	Node256.Grow()
}

func TestNodeSize(t *testing.T) {
	cases := []struct {
		t    NodeType
		want uint64
	}{
		{Node4, 40 + 4*8},
		{Node16, 40 + 16*8},
		{Node48, 40 + 256 + 48*8},
		{Node256, 40 + 256*8},
	}
	for _, c := range cases {
		if got := NodeSize(c.t); got != c.want {
			t.Errorf("NodeSize(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	// The paper's motivation quotes inner nodes of 40–2056 bytes; ours are
	// 72–2088 (EOL slot + lease word + larger partial). Sanity-bound them.
	if NodeSize(Node256) > 2100 {
		t.Errorf("Node256 size %d grew beyond paper-comparable bounds", NodeSize(Node256))
	}
}

func TestSlotsOff(t *testing.T) {
	if SlotsOff(Node4) != 40 || SlotsOff(Node16) != 40 || SlotsOff(Node256) != 40 {
		t.Error("SlotsOff for non-48 nodes must be 40")
	}
	if SlotsOff(Node48) != 40+256 {
		t.Errorf("SlotsOff(Node48) = %d", SlotsOff(Node48))
	}
}

func TestNodeHeaderRoundTrip(t *testing.T) {
	cases := []NodeHeader{
		{},
		{Status: StatusLocked, Type: Node48, Depth: 17, PartialLen: 3, PrefixHash: 0x3ffffffffff},
		{Status: StatusInvalid, Type: Node256, Depth: MaxDepth, PartialLen: MaxPartial, PrefixHash: 1},
		{Status: StatusIdle, Type: Node4, Depth: 0, PartialLen: 0, PrefixHash: 0x2aaaaaaaaaa},
	}
	for _, h := range cases {
		got := DecodeNodeHeader(h.Encode())
		if got != h {
			t.Errorf("round trip: %+v != %+v", got, h)
		}
	}
}

func TestNodeHeaderRoundTripProperty(t *testing.T) {
	f := func(st, ty uint8, depth uint16, pl uint8, ph uint64) bool {
		h := NodeHeader{
			Status:     Status(st % 3),
			Type:       NodeType(ty % 4),
			Depth:      depth % (MaxDepth + 1),
			PartialLen: pl % (MaxPartial + 1),
			PrefixHash: ph & (1<<PrefixHashBits - 1),
		}
		return DecodeNodeHeader(h.Encode()) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithStatus(t *testing.T) {
	h := NodeHeader{Status: StatusIdle, Type: Node16, Depth: 9, PartialLen: 2, PrefixHash: 12345}
	w := WithStatus(h.Encode(), StatusLocked)
	got := DecodeNodeHeader(w)
	if got.Status != StatusLocked {
		t.Errorf("status = %v", got.Status)
	}
	got.Status = StatusIdle
	if got != h {
		t.Errorf("WithStatus corrupted other fields: %+v", got)
	}
}

func TestSlotRoundTrip(t *testing.T) {
	cases := []Slot{
		{},
		{Present: true, Leaf: false, KeyByte: 0, ChildType: Node48, Addr: mem.NewAddr(3, 64)},
		{Present: true, Leaf: true, KeyByte: 255, Addr: mem.NewAddr(255, mem.MaxOffset)},
		{Present: true, Leaf: true, KeyByte: 'a', Addr: mem.NewAddr(0, 8)},
		{Present: true, ChildType: Node256, KeyByte: 7, Addr: mem.NewAddr(1, 128)},
	}
	for _, s := range cases {
		got := DecodeSlot(s.Encode())
		if got != s {
			t.Errorf("round trip: %+v != %+v", got, s)
		}
	}
}

func TestSlotRoundTripProperty(t *testing.T) {
	f := func(leaf bool, kb byte, ct uint8, node uint8, off uint64) bool {
		s := Slot{
			Present: true, Leaf: leaf, KeyByte: kb,
			ChildType: NodeType(ct % 4),
			Addr:      mem.NewAddr(mem.NodeID(node), off&mem.MaxOffset),
		}
		return DecodeSlot(s.Encode()) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotZeroIsEmpty(t *testing.T) {
	if DecodeSlot(0).Present {
		t.Error("zero word must decode to an absent slot")
	}
	if (Slot{Present: false, KeyByte: 9, Addr: 42}).Encode() != 0 {
		t.Error("absent slot must encode to zero")
	}
}

func TestHashEntryRoundTrip(t *testing.T) {
	cases := []HashEntry{
		{},
		{Valid: true, FP: 0, Type: Node4, Addr: mem.NewAddr(1, 128)},
		{Valid: true, FP: 1<<FPBits - 1, Type: Node256, Addr: mem.NewAddr(255, mem.MaxOffset)},
	}
	for _, e := range cases {
		got := DecodeHashEntry(e.Encode())
		if got != e {
			t.Errorf("round trip: %+v != %+v", got, e)
		}
	}
}

func TestHashEntryRoundTripProperty(t *testing.T) {
	f := func(fp uint16, ty uint8, node uint8, off uint64) bool {
		e := HashEntry{
			Valid: true,
			FP:    fp & (1<<FPBits - 1),
			Type:  NodeType(ty % 4),
			Addr:  mem.NewAddr(mem.NodeID(node), off&mem.MaxOffset),
		}
		return DecodeHashEntry(e.Encode()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeafRoundTrip(t *testing.T) {
	cases := []struct {
		key, val string
	}{
		{"", ""},
		{"k", "v"},
		{"user1000", "value-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"},
		{"a@example.com", string(bytes.Repeat([]byte{0}, 200))},
	}
	for _, c := range cases {
		buf := EncodeLeaf(StatusIdle, []byte(c.key), []byte(c.val))
		if uint64(len(buf))%LeafUnit != 0 {
			t.Errorf("leaf size %d not padded to %d", len(buf), LeafUnit)
		}
		key, val, st, ok := DecodeLeaf(buf)
		if !ok {
			t.Fatalf("decode failed for %q", c.key)
		}
		if st != StatusIdle || string(key) != c.key || string(val) != c.val {
			t.Errorf("decoded (%q,%q,%v)", key, val, st)
		}
	}
}

func TestLeafRoundTripProperty(t *testing.T) {
	f := func(key, val []byte) bool {
		if len(key) > MaxDepth || len(val) > 4096 {
			return true
		}
		buf := EncodeLeaf(StatusIdle, key, val)
		k, v, _, ok := DecodeLeaf(buf)
		return ok && bytes.Equal(k, key) && bytes.Equal(v, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEncodeLeafIntoReusesAndScrubs: the in-place update's encoder keeps the
// leaf's allocated unit count (not the count the new value needs), reuses the
// caller's buffer, and leaves no byte of whatever the buffer held before.
func TestEncodeLeafIntoReusesAndScrubs(t *testing.T) {
	key := []byte("key")
	scratch := bytes.Repeat([]byte{0xee}, 4*LeafUnit)
	img := EncodeLeafInto(scratch[:0], StatusIdle, 3, key, []byte("short"))
	if &img[0] != &scratch[0] || len(img) != 3*LeafUnit {
		t.Fatalf("image of %d bytes, reused buffer: %v; want the caller's buffer cut to 3 units", len(img), &img[0] == &scratch[0])
	}
	if h := DecodeLeafHeader(leGet(img)); h.Units != 3 || h.Status != StatusIdle {
		t.Errorf("header %+v, want 3 units, Idle", h)
	}
	k, v, _, ok := DecodeLeaf(img)
	if !ok || string(k) != "key" || string(v) != "short" {
		t.Errorf("decoded (%q, %q, %v)", k, v, ok)
	}
	for i, b := range img[LeafHeaderSize+len(key)+len("short"):] {
		if b != 0 {
			t.Fatalf("stale byte %#x survives %d bytes past the value", b, i)
		}
	}
	if fresh := EncodeLeafInto(nil, StatusIdle, 1, key, []byte("short")); !bytes.Equal(fresh, EncodeLeaf(StatusIdle, key, []byte("short"))) {
		t.Error("EncodeLeaf and EncodeLeafInto disagree on a minimal leaf")
	}
}

func TestLeafChecksumDetectsTamper(t *testing.T) {
	key, val := []byte("key"), []byte("value")
	buf := EncodeLeaf(StatusIdle, key, val)
	// Every byte of the checksum word, key and value is covered.
	end := LeafHeaderSize + len(key) + len(val)
	for i := 8; i < end; i++ {
		tampered := append([]byte(nil), buf...)
		tampered[i] ^= 0x01
		if _, _, _, ok := DecodeLeaf(tampered); ok {
			t.Errorf("tampering byte %d went undetected", i)
		}
	}
}

func TestLeafTornReadDetected(t *testing.T) {
	// Simulate a torn read: header of leaf A, body of leaf B.
	a := EncodeLeaf(StatusIdle, []byte("key"), []byte("aaaaaaa"))
	b := EncodeLeaf(StatusIdle, []byte("key"), []byte("bbbbbbb"))
	torn := append([]byte(nil), a[:16]...)
	torn = append(torn, b[16:]...)
	if _, _, _, ok := DecodeLeaf(torn); ok {
		t.Error("torn leaf image passed checksum")
	}
}

func TestLeafStatusChangeKeepsChecksum(t *testing.T) {
	// Locking a leaf must not invalidate its checksum: flip status in word0.
	buf := EncodeLeaf(StatusIdle, []byte("key"), []byte("value"))
	w := DecodeLeafHeader(leGet(buf))
	w.Status = StatusLocked
	lePut(buf, w.Encode())
	_, _, st, ok := DecodeLeaf(buf)
	if !ok || st != StatusLocked {
		t.Errorf("status flip broke decode: ok=%v st=%v", ok, st)
	}
}

func leGet(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func lePut(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func TestLeafHeaderRoundTripProperty(t *testing.T) {
	f := func(st uint8, units uint8, kl uint16, vl uint32) bool {
		h := LeafHeader{
			Status: Status(st % 3),
			Units:  units,
			KeyLen: kl % (MaxDepth + 1),
			ValLen: vl % (MaxValueLen + 1),
		}
		return DecodeLeafHeader(h.Encode()) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeafSize(t *testing.T) {
	cases := []struct {
		k, v int
		want uint64
	}{
		{0, 0, 64},
		{8, 40, 64},
		{8, 48, 128},
		{8, 49, 128},
		{32, 64, 128},
	}
	for _, c := range cases {
		if got := LeafSize(c.k, c.v); got != c.want {
			t.Errorf("LeafSize(%d,%d) = %d, want %d", c.k, c.v, got, c.want)
		}
	}
}

func TestDecodeLeafShortBuffer(t *testing.T) {
	if _, _, _, ok := DecodeLeaf(nil); ok {
		t.Error("nil buffer decoded")
	}
	if _, _, _, ok := DecodeLeaf(make([]byte, 8)); ok {
		t.Error("8-byte buffer decoded")
	}
	// Header claiming more bytes than the buffer holds.
	buf := EncodeLeaf(StatusIdle, []byte("key"), []byte("value"))
	if _, _, _, ok := DecodeLeaf(buf[:20]); ok {
		t.Error("truncated buffer decoded")
	}
}

func TestHashDeterminism(t *testing.T) {
	if Hash64([]byte("LYRICS")) != Hash64([]byte("LYRICS")) {
		t.Error("Hash64 not deterministic")
	}
	if Hash64Seed([]byte("x"), 1) == Hash64Seed([]byte("x"), 2) {
		t.Error("seeds should give different hashes")
	}
}

func TestPrefixHash42Range(t *testing.T) {
	for _, s := range []string{"", "a", "LYR", "some-long-prefix-string"} {
		h := PrefixHash42([]byte(s))
		if h >= 1<<PrefixHashBits {
			t.Errorf("PrefixHash42(%q) = %#x exceeds %d bits", s, h, PrefixHashBits)
		}
	}
}

func TestFP12Range(t *testing.T) {
	for _, s := range []string{"", "a", "LYR"} {
		if fp := FP12([]byte(s)); fp >= 1<<FPBits {
			t.Errorf("FP12(%q) = %#x exceeds %d bits", s, fp, FPBits)
		}
	}
}

func TestHashAvalanche(t *testing.T) {
	// Nearby inputs must not collide: all one-byte prefixes distinct.
	seen := make(map[uint64]byte)
	for b := 0; b < 256; b++ {
		h := Hash64([]byte{byte(b)})
		if prev, ok := seen[h]; ok {
			t.Fatalf("Hash64 collision between %#x and %#x", prev, b)
		}
		seen[h] = byte(b)
	}
}

func TestStatusString(t *testing.T) {
	if StatusIdle.String() != "Idle" || StatusLocked.String() != "Locked" || StatusInvalid.String() != "Invalid" {
		t.Error("status names wrong")
	}
}
