package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// TestLACWordPacking: the packed word must round-trip every field for
// representative corner values — the present bit, the 8-bit unit count, the
// 13-bit fingerprint and every 64-byte-aligned address up to node 127 and the
// largest offset — the zero word must never look like a valid entry, and an
// address the packed form cannot hold (node 128 and up: that field's top bit
// is the reference bit) is dropped by Learn, never stored truncated (a
// truncated address would aim speculative reads at some other object). The
// same for the node word: every node type, every 8-byte-aligned address up to
// node 127 and the last offset below 2³⁷; and neither kind's extreme word
// reads as the other kind. The reference bit is neither tag nor address: a
// referenced word answers, unpacks and is unlearned exactly as before.
func TestLACWordPacking(t *testing.T) {
	const lastLine = mem.MaxOffset &^ (mem.LineSize - 1)
	cases := []struct {
		addr  mem.Addr
		units uint8
		fp    uint64
	}{
		{mem.NewAddr(0, 0), 1, 0}, // the smallest word is still not the empty word
		{mem.NewAddr(0, 64), 1, 0},
		{mem.NewAddr(1, 0), 1, lacFPMask},
		{mem.NewAddr(127, lastLine), lacNodeUnits - 1, 0x1555},
		{mem.NewAddr(3, 0xdead_bec0), 17, 0x0aaa},
	}
	for _, tc := range cases {
		w, ok := packLACWord(lacPresentBit|tc.fp<<lacFPShift, tc.addr, tc.units)
		if !ok {
			t.Errorf("pack(%v,%d,%#x): refused a representable address", tc.addr, tc.units, tc.fp)
			continue
		}
		if w&lacPresentBit == 0 {
			t.Errorf("pack(%v,%d,%#x): present bit clear", tc.addr, tc.units, tc.fp)
		}
		if got, ref := lacAddr(w), lacAddr(w|lacRefBit); got != tc.addr || ref != tc.addr {
			t.Errorf("pack(%v,%d,%#x): addr round-trips to %v, referenced to %v", tc.addr, tc.units, tc.fp, got, ref)
		}
		if got := lacUnits(w); got != tc.units {
			t.Errorf("pack(%v,%d,%#x): units round-trips to %d", tc.addr, tc.units, tc.fp, got)
		}
		if got := (w >> lacFPShift) & lacFPMask; got != tc.fp {
			t.Errorf("pack(%v,%d,%#x): fp round-trips to %#x", tc.addr, tc.units, tc.fp, got)
		}
		if isNodeWord(w) {
			t.Errorf("pack(%v,%d,%#x): a leaf word reads as a node word", tc.addr, tc.units, tc.fp)
		}
	}
	const lastNodeOffset = 1<<(lacMNShift+lacNodeAlignBits) - 8
	for _, tc := range []struct {
		addr mem.Addr
		typ  wire.NodeType
		fp   uint64
	}{
		{mem.NewAddr(0, 0), wire.Node4, 0},
		{mem.NewAddr(0, 8), wire.Node16, lacFPMask},
		{mem.NewAddr(127, lastNodeOffset), wire.Node256, 0x1555},
		{mem.NewAddr(3, 0xdead_bee8), wire.Node48, 0x0aaa},
	} {
		w, ok := packNodeWord(lacPresentBit|tc.fp<<lacFPShift, tc.addr, tc.typ)
		if !ok {
			t.Errorf("packNode(%v,%v,%#x): refused a representable address", tc.addr, tc.typ, tc.fp)
			continue
		}
		if !isNodeWord(w) || w&lacPresentBit == 0 {
			t.Errorf("packNode(%v,%v,%#x) = %#x: not a present node word", tc.addr, tc.typ, tc.fp, w)
		}
		if gotA, gotT, ref := lacNodeAddr(w), lacNodeType(w), lacNodeAddr(w|lacRefBit); gotA != tc.addr || gotT != tc.typ || ref != tc.addr {
			t.Errorf("packNode(%v,%v,%#x): round-trips to (%v,%v), referenced to %v", tc.addr, tc.typ, tc.fp, gotA, gotT, ref)
		}
		if got := (w >> lacFPShift) & lacFPMask; got != tc.fp {
			t.Errorf("packNode(%v,%v,%#x): fp round-trips to %#x", tc.addr, tc.typ, tc.fp, got)
		}
	}
	if lacTagMask&lacAddrMask != 0 || (lacTagMask|lacAddrMask)&lacRefBit != 0 ||
		lacTagMask|lacRefBit|lacAddrMask|0xff<<lacUnitsShift != ^uint64(0) {
		t.Error("present, units, fingerprint, reference and address fields do not tile the word")
	}

	lc := NewLeafCache(64, 1)
	key := []byte("alpha")
	for _, addr := range []mem.Addr{
		mem.NewAddr(2, 4096+8),          // 8-byte aligned only: a node-class object
		mem.NewAddr(255, mem.MaxOffset), // unaligned last byte
		mem.NewAddr(128, 0),             // the memory node's top bit is the reference bit
		mem.NewAddr(255, lastLine),
		mem.Addr(1)<<mem.AddrBits | 64, // above the 48 address bits
		mem.NewAddr(3, 0xdead_beef),
	} {
		if _, ok := packLACWord(lacPresentBit, addr, 1); ok {
			t.Errorf("pack(%#x): accepted an unrepresentable address", uint64(addr))
		}
		lc.Learn(key, addr, 1)
		if got, _, ok := lc.Lookup(key); ok {
			t.Errorf("Learn(%#x) stored %v: an unrepresentable address must be dropped", uint64(addr), got)
		}
		lc.UnlearnAt(key, addr) // must not match anything either
	}
	// The sizes that mark node words are no leaf's.
	for _, units := range []uint8{lacNodeUnits, 255} {
		lc.Learn(key, mem.NewAddr(1, 4096), units)
		if _, got, ok := lc.Lookup(key); ok {
			t.Errorf("Learn(units %d) stored a leaf of %d units: the range is reserved", units, got)
		}
	}
	for _, tc := range []struct {
		addr mem.Addr
		typ  wire.NodeType
	}{
		{mem.NewAddr(2, 4096+4), wire.Node4},                      // not 8-byte aligned
		{mem.NewAddr(2, lastNodeOffset+8), wire.Node4},            // offset 2³⁷
		{mem.NewAddr(128, 0), wire.Node4},                         // the reference bit's memory node
		{mem.NewAddr(255, mem.MaxOffset&^7), wire.Node256},        // the last aligned offset of a region
		{mem.Addr(1)<<mem.AddrBits | 64, wire.Node4},              // above the 48 address bits
		{mem.NewAddr(2, 4096), wire.Node256 + 1},                  // no such type
		{mem.NewAddr(2, 4096), wire.NodeType(lacNodeUnits)},       // would wrap into the units field
		{mem.NewAddr(2, 4096), wire.NodeType(256 - lacNodeUnits)}, // would overflow it
	} {
		if _, ok := packNodeWord(lacPresentBit, tc.addr, tc.typ); ok {
			t.Errorf("packNode(%#x,%d): accepted an unrepresentable node", uint64(tc.addr), tc.typ)
		}
		lc.LearnNode(lc.NodeHash(key), len(key), tc.addr, tc.typ)
		if got, _, ok := lc.LookupNode(lc.NodeHash(key)); ok {
			t.Errorf("LearnNode(%#x,%d) stored %v: an unrepresentable node must be dropped", uint64(tc.addr), tc.typ, got)
		}
		lc.UnlearnNodeAt(lc.NodeHash(key), tc.addr)
	}
	if occupied, _, _, _ := lc.Occupancy(); occupied != 0 || lc.Stats() != (LACStats{}) {
		t.Errorf("dropped learns left occupancy %d, stats %+v", occupied, lc.Stats())
	}

	// The extreme words, looked up twice: the second lookup meets the word the
	// first referenced. A relearn keeps the reference, as a descent relearns
	// the node it landed on.
	top, topNode := mem.NewAddr(127, lastLine), mem.NewAddr(127, lastNodeOffset)
	lc.Learn(key, top, 3)
	lc.LearnNode(lc.NodeHash(key), len(key), topNode, wire.Node256)
	for i := 0; i < 2; i++ {
		if got, units, ok := lc.Lookup(key); !ok || got != top || units != 3 {
			t.Errorf("lookup %d = (%v, %d, %v), want (%v, 3, true)", i, got, units, ok, top)
		}
		if got, typ, ok := lc.LookupNode(lc.NodeHash(key)); !ok || got != topNode || typ != wire.Node256 {
			t.Errorf("node lookup %d = (%v, %v, %v), want (%v, Node256, true)", i, got, typ, ok, topNode)
		}
	}
	lc.Learn(key, top, 3)
	lc.LearnNode(lc.NodeHash(key), len(key), topNode, wire.Node256)
	for _, w := range lc.words {
		if w != 0 && w&lacRefBit == 0 {
			t.Errorf("word %#x was looked up and is not referenced", w)
		}
	}
	lc.UnlearnAt(key, top)
	lc.UnlearnNodeAt(lc.NodeHash(key), topNode)
	if occupied, _, _, _ := lc.Occupancy(); occupied != 0 {
		t.Errorf("%d referenced words survived their exact unlearns", occupied)
	}
}

// lacCollidingPrefix returns a prefix whose node word shares bucket AND
// fingerprint with key's leaf word: the two kinds hash under different seeds,
// so the pair is searched for.
func lacCollidingPrefix(lc *LeafCache, key []byte) []byte {
	bucket, tag := lacSlotOf(lc, key, lacSeed)
	for i := 0; ; i++ {
		cand := []byte(fmt.Sprintf("prefix-%d", i))
		if b, tg := lacSlotOf(lc, cand, lacNodeSeed); &b[0] == &bucket[0] && tg == tag {
			return cand
		}
	}
}

// TestLACKindsNeverAnswerForEachOther: a leaf word and a node word that share
// bucket and fingerprint — even address bits — are invisible to the other
// kind's Lookup, Learn and UnlearnAt. A node lookup that returned a leaf word
// would aim a lease CAS at a leaf; a leaf lookup that returned a node word, a
// header CAS at a node.
func TestLACKindsNeverAnswerForEachOther(t *testing.T) {
	lc := NewLeafCache(64, 1)
	key := []byte("alpha")
	prefix := lacCollidingPrefix(lc, key)
	// One address for both: 64-byte aligned, so either kind can hold it, and
	// the address fields differ only by the kinds' alignment shift.
	addr := mem.NewAddr(2, 4096)

	lc.LearnNode(lc.NodeHash(prefix), len(prefix), addr, wire.Node16)
	if got, units, ok := lc.Lookup(key); ok {
		t.Fatalf("Lookup(key) = (%v, %d) off a node word", got, units)
	}
	lc.UnlearnAt(key, addr)
	lc.Unlearn(key)
	if got, typ, ok := lc.LookupNode(lc.NodeHash(prefix)); !ok || got != addr || typ != wire.Node16 {
		t.Fatalf("LookupNode = (%v, %v, %v) after the leaf kind's unlearns, want (%v, Node16, true)", got, typ, ok, addr)
	}
	lc.Learn(key, addr, 3) // takes a way of its own, not the node word's
	if occupied, _, _, nodes := lc.Occupancy(); occupied != 2 || nodes != 1 {
		t.Fatalf("occupancy %d (%d node words) after one learn of each kind, want 2 (1)", occupied, nodes)
	}
	if got, units, ok := lc.Lookup(key); !ok || got != addr || units != 3 {
		t.Fatalf("Lookup(key) = (%v, %d, %v), want (%v, 3, true)", got, units, ok, addr)
	}
	lc.UnlearnNodeAt(lc.NodeHash(prefix), addr)
	if _, _, ok := lc.LookupNode(lc.NodeHash(prefix)); ok {
		t.Fatal("a node word survived its exact unlearn")
	}
	if got, units, ok := lc.Lookup(key); !ok || got != addr || units != 3 {
		t.Fatalf("Lookup(key) = (%v, %d, %v) after the node kind's unlearn, want it untouched", got, units, ok)
	}
	if _, _, ok := lc.LookupNode(lc.NodeHash(prefix)); ok {
		t.Fatal("LookupNode answers off a leaf word")
	}
	lc.LearnNode(lc.NodeHash(prefix), len(prefix), mem.NewAddr(2, 8192), wire.Node4) // again a way of its own
	if got, units, ok := lc.Lookup(key); !ok || got != addr || units != 3 {
		t.Fatalf("Lookup(key) = (%v, %d, %v) after a node learn, want it untouched", got, units, ok)
	}
	// An exact unlearn names the address: a fresher word for the prefix stays.
	lc.UnlearnNodeAt(lc.NodeHash(prefix), addr)
	if got, typ, ok := lc.LookupNode(lc.NodeHash(prefix)); !ok || got != mem.NewAddr(2, 8192) || typ != wire.Node4 {
		t.Fatalf("LookupNode = (%v, %v, %v) after unlearning a stale address", got, typ, ok)
	}
	if st := lc.Stats(); st.Learns != 3 || st.Unlearns != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 3 learns, 1 unlearn, 0 evictions", st)
	}
}

// lacSlotOf returns the bucket and tag of name's word: a key's leaf word
// under lacSeed, a prefix's node word under lacNodeSeed.
func lacSlotOf(lc *LeafCache, name []byte, kindSeed uint64) ([]uint64, uint64) {
	return lc.slot(wire.Hash64Seed(name, kindSeed^lc.seed))
}

// lacRule is one bucket of a fresh 64-word cache and 2×lacWays keys and
// 2×lacWays prefixes that all fall into it, key i's leaf and prefix i's node
// each at an address of their own. A gated cache has switched to the
// second-miss gate before the first learn.
type lacRule struct {
	lc             *LeafCache
	keys, prefixes [][]byte
}

func newLACRule(gated bool) *lacRule {
	lc := NewLeafCache(64, 1)
	if gated {
		lc.gate()
	}
	return &lacRule{lc, lacBucketKeys(lc, "leaf", 0, 2*lacWays), lacBucketNames(lc, "node", 0, 2*lacWays, lacNodeSeed)}
}

func (*lacRule) leafAddr(i int) mem.Addr { return mem.NewAddr(1, uint64(i+1)*64) }
func (*lacRule) nodeAddr(i int) mem.Addr { return mem.NewAddr(2, uint64(i+1)*8) }
func (r *lacRule) learn(i int)           { r.lc.Learn(r.keys[i], r.leafAddr(i), 1) }
func (r *lacRule) learnNode(i int) {
	r.lc.LearnNode(r.lc.NodeHash(r.prefixes[i]), len(r.prefixes[i]), r.nodeAddr(i), wire.Node4)
}

// look looks key i up: the word it answers with is referenced from now on.
func (r *lacRule) look(t *testing.T, i int) {
	t.Helper()
	if a, _, ok := r.lc.Lookup(r.keys[i]); !ok || a != r.leafAddr(i) {
		t.Fatalf("key %d does not answer", i)
	}
}

// holds tells, without a lookup (no word is referenced by it), whether the
// bucket holds key i's leaf word or, with node, prefix i's node word.
func (r *lacRule) holds(i int, node bool) bool {
	unpack, want := lacAddr, r.leafAddr(i)
	if node {
		unpack, want = lacNodeAddr, r.nodeAddr(i)
	}
	for _, w := range r.lc.words[:lacWays] {
		if w != 0 && isNodeWord(w) == node && unpack(w) == want {
			return true
		}
	}
	return false
}

// referenced counts the bucket's words that carry the reference bit.
func (r *lacRule) referenced() (n int) {
	for _, w := range r.lc.words[:lacWays] {
		if w&lacRefBit != 0 {
			n++
		}
	}
	return n
}

// TestLACPlacementRule: which resident a learn into a full bucket displaces
// (store), before and after the cache gates, and when it gates (wasted).
// Until then leaves come first: a node word never costs a leaf word its way,
// and a leaf learn is stored at its key's first miss. Once the leaf words it
// displaces unused outnumber its buckets and the leaf words lookups used, it
// gates: a lookup buys any word a second chance — an idle leaf yields to a
// node learn, a referenced word survives exactly one sweep — and a leaf word
// enters a full bucket only at its key's second miss. Every case fails with
// the gate inverted, the overflow case with the second chance removed, the
// second-miss case with the doorkeeper removed, the switch with its
// condition dropped or turned around.
func TestLACPlacementRule(t *testing.T) {
	// A bucket of eight leaves drops a node learn; a bucket of eight node
	// words gives a way to a leaf learn, and to a node learn; a mixed full
	// bucket loses a node way to either kind before any leaf way.
	t.Run("leaves fit", func(t *testing.T) {
		r := newLACRule(false)
		lc, keys, prefixes, leafAddr, nodeAddr := r.lc, r.keys, r.prefixes, r.leafAddr, r.nodeAddr
		if lc.gated() || lc.Entries() != 64 {
			t.Fatalf("a fresh cache: gated %v, %d entries", lc.gated(), lc.Entries())
		}
		answering := func() (leaves, nodes int) {
			for i, k := range keys {
				if a, _, ok := lc.Lookup(k); ok && a == leafAddr(i) {
					leaves++
				}
			}
			for i, p := range prefixes {
				if a, _, ok := lc.LookupNode(lc.NodeHash(p)); ok && a == nodeAddr(i) {
					nodes++
				}
			}
			return leaves, nodes
		}

		// Eight leaves: the bucket has no way for a node.
		for i := 0; i < lacWays; i++ {
			lc.Learn(keys[i], leafAddr(i), 1)
		}
		for i := range prefixes {
			lc.LearnNode(lc.NodeHash(prefixes[i]), len(prefixes[i]), nodeAddr(i), wire.Node4)
		}
		if leaves, nodes := answering(); leaves != lacWays || nodes != 0 {
			t.Fatalf("a bucket of %d leaves answers for %d leaves and %d nodes after %d node learns", lacWays, leaves, nodes, len(prefixes))
		}
		if st := lc.Stats(); st.Learns != lacWays || st.Evictions != 0 || st.NodeDrops != uint64(len(prefixes)) {
			t.Fatalf("dropped node learns were counted as learns, or not as drops: %+v", st)
		}

		// Eight nodes: a ninth node takes a node's way, each leaf takes one too.
		lc.Reset()
		for i := 0; i < lacWays; i++ {
			lc.LearnNode(lc.NodeHash(prefixes[i]), len(prefixes[i]), nodeAddr(i), wire.Node4)
		}
		lc.LearnNode(lc.NodeHash(prefixes[lacWays]), len(prefixes[lacWays]), nodeAddr(lacWays), wire.Node4)
		if leaves, nodes := answering(); leaves != 0 || nodes != lacWays {
			t.Fatalf("nine node learns into one bucket: %d nodes answer, want %d", nodes, lacWays)
		}
		for i := 0; i < lacWays; i++ {
			lc.Learn(keys[i], leafAddr(i), 1)
			leaves, nodes := answering()
			if _, _, _, words := lc.Occupancy(); leaves != i+1 || nodes != lacWays-i-1 || words != uint64(nodes) {
				t.Fatalf("leaf learn %d into a full bucket: %d leaves, %d nodes answer (%d node words); want %d and %d",
					i+1, leaves, nodes, words, i+1, lacWays-i-1)
			}
			if i == lacWays/2 {
				// Mixed and full: a node learn takes a node's way too.
				lc.LearnNode(lc.NodeHash(prefixes[lacWays+1]), len(prefixes[lacWays+1]), nodeAddr(lacWays+1), wire.Node4)
				if _, _, ok := lc.LookupNode(lc.NodeHash(prefixes[lacWays+1])); !ok {
					t.Fatal("a node learn into a mixed full bucket was dropped")
				}
				lc.UnlearnNodeAt(lc.NodeHash(prefixes[lacWays+1]), nodeAddr(lacWays+1))
				if leaves, _ := answering(); leaves != i+1 {
					t.Fatalf("a node learn into a mixed full bucket cost a leaf: %d of %d answer", leaves, i+1)
				}
				lc.LearnNode(lc.NodeHash(prefixes[lacWays+2]), len(prefixes[lacWays+2]), nodeAddr(lacWays+2), wire.Node4) // refill the way
			}
		}
		// All leaves now: the next leaf displaces a leaf at its first miss, the
		// next node nothing.
		lc.Learn(keys[lacWays], leafAddr(lacWays), 1)
		lc.LearnNode(lc.NodeHash(prefixes[0]), len(prefixes[0]), nodeAddr(0), wire.Node4)
		if leaves, nodes := answering(); leaves != lacWays || nodes != 0 {
			t.Fatalf("a full bucket of leaves: %d leaves, %d nodes answer after one learn of each kind", leaves, nodes)
		}
		if _, _, ok := lc.Lookup(keys[lacWays]); !ok {
			t.Fatal("a leaf learn into a full bucket of an ungated cache waited for a second miss")
		}
		if occupied, _, full, words := lc.Occupancy(); occupied != lacWays || full != 1 || words != 0 {
			t.Fatalf("occupancy %d, %d full, %d node words", occupied, full, words)
		}
		if st := lc.Stats(); st.GateRefusals != 0 || lc.gated() {
			t.Fatalf("a cache whose leaf words answer gated (%v; %+v)", lc.gated(), st)
		}
	})

	// Leaves first, a full bucket of node words, every other one looked up: a
	// leaf learn and then a node learn each take an idle node word's way, and
	// the node words in use stay — wherever the rotating way starts.
	t.Run("leaves first keeps node words in use", func(t *testing.T) {
		for start := 0; start < lacWays; start++ {
			r := newLACRule(false)
			for i := 0; i < lacWays; i++ {
				r.learnNode(i)
			}
			for n := 0; n < start; n++ {
				r.learnNode(0) // the same word again: the rotating way moves on
			}
			for i := 1; i < lacWays; i += 2 {
				if _, _, ok := r.lc.LookupNode(r.lc.NodeHash(r.prefixes[i])); !ok {
					t.Fatalf("node %d does not answer", i)
				}
			}
			r.learn(0)
			r.learnNode(lacWays)
			if !r.holds(0, false) || !r.holds(lacWays, true) {
				t.Fatalf("start %d: leaf held %v, new node held %v", start, r.holds(0, false), r.holds(lacWays, true))
			}
			for i := 1; i < lacWays; i += 2 {
				if !r.holds(i, true) {
					t.Fatalf("start %d: node word %d, looked up, lost its way to an idle one's learn", start, i)
				}
			}
		}
	})

	// Fresh keys learned one after another, as a run of fresh puts learns
	// them: the cache gates once it has seen more keys than it has ways, and
	// not before. A word outside the doorkeeper's bucket answers as before; one
	// in it is gone.
	t.Run("gates when keys outnumber ways", func(t *testing.T) {
		lc := NewLeafCache(64, 1)
		door := int(lc.buckets) - 1
		kept, lost := lacBucketKeys(lc, "kept", 1, 1)[0], lacBucketKeys(lc, "lost", door, 1)[0]
		lc.Learn(kept, mem.NewAddr(1, 64), 1)
		lc.Learn(lost, mem.NewAddr(1, 128), 1)
		n := 2
		for ; !lc.gated(); n++ {
			if n == 2*len(lc.words) {
				t.Fatalf("%d keys learned into %d ways, %.1f seen: not gated", n, len(lc.words), lc.keysSeen())
			}
			lc.Learn([]byte(fmt.Sprintf("fresh-%d", n)), mem.NewAddr(2, uint64(n)*64), 1)
		}
		if n < len(lc.words)*7/8 || lc.keysSeen() <= float64(len(lc.words)) {
			t.Fatalf("gated after %d keys learned into %d ways (%.1f seen)", n, len(lc.words), lc.keysSeen())
		}
		if lc.Entries() != 64-lacWays || len(lc.door()) != lacWays {
			t.Fatalf("gated: %d entries, a doorkeeper of %d words", lc.Entries(), len(lc.door()))
		}
		for _, w := range lc.door() {
			if w&^lacDoorMask != 0 {
				t.Fatalf("a doorkeeper word %#x still holds an entry of its bucket", w)
			}
		}
		if a, _, ok := lc.Lookup(kept); !ok || a != mem.NewAddr(1, 64) {
			t.Fatal("a word outside the doorkeeper's bucket was lost to the gate")
		}
		if _, _, ok := lc.Lookup(lost); ok {
			t.Fatal("a word of the doorkeeper's bucket answers after the gate")
		}
	})

	// Fewer keys than ways, learned over and over into buckets they overflow:
	// the same keys are counted once, and the cache keeps leaves first.
	t.Run("fitting keys keep leaves first", func(t *testing.T) {
		lc := NewLeafCache(64, 1)
		keys := append(lacBucketKeys(lc, "over", 0, 2*lacWays), lacBucketKeys(lc, "over", 1, 2*lacWays)...)
		for round := 0; round < 100; round++ {
			for i, k := range keys {
				lc.Learn(k, mem.NewAddr(2, uint64(round*len(keys)+i+1)*64), 1)
			}
		}
		if seen := lc.keysSeen(); lc.gated() || lc.Stats().Evictions == 0 || seen < 28 || seen > 36 {
			t.Fatalf("%d keys learned 100 times each into %d ways: gated %v, %.1f seen (%+v)", len(keys), len(lc.words), lc.gated(), seen, lc.Stats())
		}
	})

	// Eight referenced leaves: a node learn's sweep clears every bit and takes
	// one way. Then every word but one survivor is looked up again, and the
	// next node learn takes that survivor's way — whichever way the sweep
	// starts from, so each survivor in turn is the idle one.
	t.Run("leaves overflow", func(t *testing.T) {
		for idle := 0; idle < lacWays-1; idle++ {
			r := newLACRule(true)
			for i := 0; i < lacWays; i++ {
				r.learn(i)
				r.look(t, i)
			}
			r.learnNode(0)
			var survivors []int
			for i := 0; i < lacWays; i++ {
				if r.holds(i, false) {
					survivors = append(survivors, i)
				}
			}
			if !r.holds(0, true) || len(survivors) != lacWays-1 {
				t.Fatalf("a node learn into a bucket of %d leaves: node stored %v, %d leaves left", lacWays, r.holds(0, true), len(survivors))
			}
			if n := r.referenced(); n != 0 {
				t.Fatalf("%d words still referenced behind a sweep of a bucket referenced throughout", n)
			}
			for j, i := range survivors {
				if j != idle {
					r.look(t, i)
				}
			}
			if _, _, ok := r.lc.LookupNode(r.lc.NodeHash(r.prefixes[0])); !ok {
				t.Fatal("the node word does not answer")
			}
			r.learnNode(1)
			for j, i := range survivors {
				if r.holds(i, false) == (j == idle) {
					t.Fatalf("survivor %d of %d (idle: %v) held %v after the second sweep", j, len(survivors), j == idle, r.holds(i, false))
				}
			}
			if !r.holds(0, true) || !r.holds(1, true) {
				t.Fatalf("node words held: %v, %v; want both", r.holds(0, true), r.holds(1, true))
			}
			if st := r.lc.Stats(); st.NodeDrops != 0 || st.NodeEvictions != 0 {
				t.Fatalf("a node learn was dropped or displaced a node: %+v", st)
			}
		}
	})

	// A full bucket of four referenced leaves and four idle node words. A
	// key's first miss there is turned away and changes nothing; its second
	// is let in, over an idle word the sweep finds — and a third key's first
	// miss, between the two, is turned away too.
	t.Run("second miss", func(t *testing.T) {
		r := newLACRule(true)
		for i := 0; i < lacWays/2; i++ {
			r.learn(i)
			r.learnNode(i)
			r.look(t, i)
		}
		before := slices.Clone(r.lc.words[:lacWays])
		r.learn(lacWays)
		r.learn(lacWays + 1)
		if !slices.Equal(r.lc.words[:lacWays], before) {
			t.Fatal("a first miss into a full bucket changed it")
		}
		if st := r.lc.Stats(); st.GateRefusals != 2 || st.Evictions != 0 {
			t.Fatalf("two first misses into a full bucket: %+v; want 2 refusals, no eviction", st)
		}
		r.learn(lacWays)
		if !r.holds(lacWays, false) {
			t.Fatal("a second miss into a full bucket was not let in")
		}
		for i := 0; i < lacWays/2; i++ {
			if !r.holds(i, false) {
				t.Fatalf("the admitted leaf displaced referenced leaf %d", i)
			}
		}
		if st := r.lc.Stats(); st.GateRefusals != 2 || st.Evictions != 1 || st.NodeEvictions != 1 {
			t.Fatalf("a second miss: %+v; want it stored over an idle node word", st)
		}
		// An unlearned leaf's way is empty again: its key's next learn needs
		// no second miss.
		r.lc.UnlearnAt(r.keys[lacWays], r.leafAddr(lacWays))
		r.learn(lacWays + 1)
		if !r.holds(lacWays+1, false) || r.lc.Stats().GateRefusals != 2 {
			t.Fatal("a learn into an empty way was gated")
		}
	})

	// The doorkeeper's words are the cache's own: the footprint a budget buys
	// is the same gated or not, and no bucket reaches them — node learns,
	// which never consult the doorkeeper, leave its words zero.
	t.Run("doorkeeper is carved", func(t *testing.T) {
		for _, budget := range []uint64{64 * 8, 16 << 10, 512 << 10} {
			fit, gated := NewLeafCacheBytes(budget, 1), NewLeafCacheBytes(budget, 1)
			gated.gate()
			door := max(lacWays, int(budget/8)/lacDoorShare)
			if fit.SizeBytes() != gated.SizeBytes() || len(gated.door()) != door || gated.Entries() != fit.Entries()-door || len(fit.door()) != 0 {
				t.Fatalf("budget %d: %d bytes ungated, %d gated; doorkeeper %d words, want %d; entries %d and %d",
					budget, fit.SizeBytes(), gated.SizeBytes(), len(gated.door()), door, fit.Entries(), gated.Entries())
			}
			if &gated.door()[0] != &gated.words[gated.Entries()] {
				t.Fatalf("budget %d: the doorkeeper is not the tail of the cache's words", budget)
			}
			for i := 0; i < 4*gated.Entries(); i++ {
				gated.LearnNode(gated.NodeHash([]byte(fmt.Sprintf("carve-%d", i))), len([]byte(fmt.Sprintf("carve-%d", i))), mem.NewAddr(2, uint64(i+1)*8), wire.Node4)
			}
			for _, w := range gated.door() {
				if w != 0 {
					t.Fatalf("budget %d: a node learn wrote %#x into the doorkeeper", budget, w)
				}
			}
			if occupied, capacity, full, _ := gated.Occupancy(); capacity != uint64(gated.Entries()) || occupied != capacity || full != capacity/lacWays {
				t.Fatalf("budget %d: occupancy %d of %d (%d full buckets) after %d node learns, want all %d ways",
					budget, occupied, capacity, full, 4*gated.Entries(), gated.Entries())
			}
		}
	})
}

// TestLACKeySketch: the count of the keys a cache has learned (keysSeen),
// which switches it to the second-miss gate, is within 15 % of the true count
// from ten keys to three hundred thousand — 2.3 standard errors of a
// 256-register HyperLogLog — and learning keys it has seen does not move it.
func TestLACKeySketch(t *testing.T) {
	lc := NewLeafCache(64, 1)
	key := func(i int) []byte { return []byte(fmt.Sprintf("sketch-%d", i)) }
	n := 0
	for _, want := range []int{10, 100, 1_000, 10_000, 100_000, 300_000} {
		for ; n < want; n++ {
			lc.Learn(key(n), mem.NewAddr(1, 64), 1)
		}
		got := lc.keysSeen()
		if got < 0.85*float64(want) || got > 1.15*float64(want) {
			t.Fatalf("%d keys learned: %.1f seen", want, got)
		}
		for i := 0; i < want; i += 7 {
			lc.Learn(key(i), mem.NewAddr(1, 128), 1)
		}
		if again := lc.keysSeen(); again != got {
			t.Fatalf("%d keys learned: %.1f seen, %.1f after learning some of them again", want, got, again)
		}
	}
}

// lacBucketOf returns the index of key's bucket.
func lacBucketOf(lc *LeafCache, key []byte) int {
	bucket, _ := lacSlotOf(lc, key, lacSeed)
	for base := 0; ; base += lacWays {
		if &lc.words[base] == &bucket[0] {
			return base / lacWays
		}
	}
}

// lacBucketKeys returns n keys named prefix-<i> that all fall into the given
// bucket, with pairwise distinct fingerprints.
func lacBucketKeys(lc *LeafCache, prefix string, bucket, n int) [][]byte {
	return lacBucketNames(lc, prefix, bucket, n, lacSeed)
}

// lacBucketNames is lacBucketKeys for words of the kind kindSeed hashes: keys
// under lacSeed, prefixes under lacNodeSeed.
func lacBucketNames(lc *LeafCache, prefix string, bucket, n int, kindSeed uint64) [][]byte {
	var names [][]byte
	tags := map[uint64]bool{}
	for i := 0; len(names) < n; i++ {
		cand := []byte(fmt.Sprintf("%s-%d", prefix, i))
		if b, tag := lacSlotOf(lc, cand, kindSeed); &b[0] == &lc.words[bucket*lacWays] && !tags[tag] {
			tags[tag] = true
			names = append(names, cand)
		}
	}
	return names
}

// TestLACLearnLookupUnlearn: the basic hint lifecycle, including that a
// bucket holds lacWays keys without loss, that only a learn into a FULL
// bucket displaces another key's entry (and counts an eviction), and that
// an unlearn is fingerprint-checked (an unlearn for a displaced key A must
// not remove the entry that took its way).
func TestLACLearnLookupUnlearn(t *testing.T) {
	lc := NewLeafCache(64, 1)
	key := []byte("alpha")
	addr := mem.NewAddr(2, 4096)

	if _, _, ok := lc.Lookup(key); ok {
		t.Fatal("empty cache claims an opinion")
	}
	lc.Learn(key, addr, 3)
	gotAddr, gotUnits, ok := lc.Lookup(key)
	if !ok || gotAddr != addr || gotUnits != 3 {
		t.Fatalf("Lookup after Learn = (%v, %d, %v), want (%v, 3, true)", gotAddr, gotUnits, ok, addr)
	}

	// Re-learning the same key updates in place: no eviction counted, no
	// second way taken.
	lc.Learn(key, addr, 5)
	if _, gotUnits, _ := lc.Lookup(key); gotUnits != 5 {
		t.Fatalf("re-Learn did not update units: got %d", gotUnits)
	}
	if occupied, _, _, _ := lc.Occupancy(); occupied != 1 {
		t.Fatalf("same-key re-learn occupies %d ways, want 1", occupied)
	}

	// Seven more keys of alpha's bucket fill it; nobody is displaced.
	_, tagA := lacSlotOf(lc, key, lacSeed)
	var others [][]byte
	for _, k := range lacBucketKeys(lc, "other", lacBucketOf(lc, key), lacWays+1) {
		if _, tag := lacSlotOf(lc, k, lacSeed); tag != tagA && len(others) < lacWays {
			others = append(others, k)
		}
	}
	residents := append([][]byte{key}, others[:lacWays-1]...)
	for i, k := range others[:lacWays-1] {
		lc.Learn(k, mem.NewAddr(1, uint64(i+1)*128), 2)
	}
	for _, k := range residents {
		if _, _, ok := lc.Lookup(k); !ok {
			t.Fatalf("%q lost its entry in a bucket of %d keys", k, lacWays)
		}
	}
	if _, _, full, _ := lc.Occupancy(); full != 1 {
		t.Fatalf("full buckets = %d, want 1", full)
	}
	if st := lc.Stats(); st.Evictions != 0 {
		t.Fatalf("filling a bucket counted %d evictions", st.Evictions)
	}

	// The ninth key finds the bucket full: it displaces exactly one resident.
	ninth := others[lacWays-1]
	lc.Learn(ninth, mem.NewAddr(1, 64), 2)
	if _, _, ok := lc.Lookup(ninth); !ok {
		t.Fatal("a learn into a full bucket was not stored")
	}
	var displaced []byte
	for _, k := range residents {
		if _, _, ok := lc.Lookup(k); !ok {
			if displaced != nil {
				t.Fatalf("one learn displaced both %q and %q", displaced, k)
			}
			displaced = k
		}
	}
	if displaced == nil {
		t.Fatal("nine keys answer from an eight-way bucket")
	}
	if st := lc.Stats(); st.Evictions != 1 {
		t.Fatalf("eviction count = %d, want 1", st.Evictions)
	}

	// Unlearning the displaced key must NOT clobber the way's new owner, in
	// either form.
	lc.Unlearn(displaced)
	lc.UnlearnAt(displaced, mem.NewAddr(1, 64))
	if _, _, ok := lc.Lookup(ninth); !ok {
		t.Fatal("unlearn of a displaced key removed the way's new owner")
	}
	if st := lc.Stats(); st.Unlearns != 0 {
		t.Fatalf("unlearn count = %d, want 0 (fp-mismatched unlearn must not count)", st.Unlearns)
	}
	lc.Unlearn(ninth)
	if _, _, ok := lc.Lookup(ninth); ok {
		t.Fatal("entry survives its own unlearn")
	}
	for _, k := range residents {
		lc.Unlearn(k)
	}
	if st := lc.Stats(); st.Unlearns != lacWays {
		t.Fatalf("unlearn count = %d, want %d", st.Unlearns, lacWays)
	}
	if occupied, _, full, _ := lc.Occupancy(); occupied != 0 || full != 0 {
		t.Fatalf("occupancy = %d (%d full buckets) after full unlearn, want 0", occupied, full)
	}
}

// TestLACRefutationUnlearnsOnlyTheRefutedAddress: the cache is shared by the
// workers of a CN, so between one worker's Lookup and its refuted read another
// may learn the key's NEW address (an out-of-place update, a hot-record
// refresh). The refutation owes the removal of the word it was refuted on,
// not of whatever carries the key's fingerprint by then — that would cost the
// next access a full descent (or a re-promotion). Fails with a key-only
// unlearn.
func TestLACRefutationUnlearnsOnlyTheRefutedAddress(t *testing.T) {
	lc := NewLeafCache(64, 1)
	key := []byte("moving-key")
	addr1, addr2 := mem.NewAddr(1, 4096), mem.NewAddr(2, 8192)
	lc.Learn(key, addr1, 2)
	read, _, ok := lc.Lookup(key) // worker A: about to read addr1
	if !ok || read != addr1 {
		t.Fatalf("Lookup = %v, %v", read, ok)
	}
	lc.Learn(key, addr2, 3) // worker B: moved the leaf, learned where to
	lc.UnlearnAt(key, read) // worker A: addr1 was refuted
	if got, units, ok := lc.Lookup(key); !ok || got != addr2 || units != 3 {
		t.Fatalf("after the refutation of %v: Lookup = (%v, %d, %v), want the fresher (%v, 3, true)",
			addr1, got, units, ok, addr2)
	}
	if st := lc.Stats(); st.Unlearns != 0 {
		t.Fatalf("Unlearns = %d, want 0", st.Unlearns)
	}
	// With nothing fresher in the way, the same call removes the entry —
	// whatever size it was learned with.
	lc.UnlearnAt(key, addr2)
	if _, _, ok := lc.Lookup(key); ok {
		t.Fatal("a refuted entry survived its unlearn")
	}
}

// TestLACSameFingerprintPair: two keys of one bucket that also share the 13
// fingerprint bits cannot be told apart by the cache, only by verification.
// Each key's learn lands on the word carrying their tag, and when both have a
// word in the bucket (two learns racing for an empty way leave that behind)
// the later key's lookup answers the stranger's. Refuting it removes exactly
// that word: the key's own survives and answers next.
func TestLACSameFingerprintPair(t *testing.T) {
	lc := NewLeafCache(64, 1)
	owner := []byte("pair-0")
	bucket, tag := lacSlotOf(lc, owner, lacSeed)
	var stranger []byte
	for i := 1; stranger == nil; i++ {
		cand := []byte(fmt.Sprintf("pair-%d", i))
		if b, tg := lacSlotOf(lc, cand, lacSeed); &b[0] == &bucket[0] && tg == tag {
			stranger = cand
		}
	}
	addrS, addrO := mem.NewAddr(1, 64), mem.NewAddr(1, 128)

	// Sequentially the two share one word: last learner wins, the other is
	// refuted on it and takes it over.
	lc.Learn(stranger, addrS, 1)
	lc.Learn(owner, addrO, 1)
	if occupied, _, _, _ := lc.Occupancy(); occupied != 1 {
		t.Fatalf("a same-fingerprint pair occupies %d ways, want 1", occupied)
	}
	if got, _, _ := lc.Lookup(stranger); got != addrO {
		t.Fatalf("Lookup(stranger) = %v, want the owner's %v", got, addrO)
	}

	// Both present: the stranger's word in an earlier way than the owner's.
	lc.Reset()
	lc.Learn(stranger, addrS, 1)
	wordO, _ := packLACWord(tag, addrO, 1)
	bucket[lacWays-1] = wordO
	got, _, ok := lc.Lookup(owner)
	if !ok || got != addrS {
		t.Fatalf("Lookup(owner) = %v, %v; want the stranger's %v first", got, ok, addrS)
	}
	lc.UnlearnAt(owner, got) // verification refuted it: not the owner's leaf
	if got, _, ok := lc.Lookup(owner); !ok || got != addrO {
		t.Fatalf("after refuting the stranger's word: Lookup(owner) = %v, %v; want its own %v", got, ok, addrO)
	}
	if st := lc.Stats(); st.Unlearns != 1 {
		t.Fatalf("Unlearns = %d, want 1", st.Unlearns)
	}
}

// TestLACNoConflictMisses: a cache provisioned 4x over its key set holds all
// of it: a key is lost only when more than eight share a bucket
// (P[Poisson(2) > 8] = 0.02 %) or two share bucket and fingerprint. (One word
// per hash slot would answer for (1-e^-λ)/λ = 88.5 % of them, λ = 1/4.)
func TestLACNoConflictMisses(t *testing.T) {
	lc := NewLeafCache(1<<16, 7)
	rng := rand.New(rand.NewSource(42))
	n := lc.Entries() / 4
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%016x", rng.Uint64()))
		lc.Learn(keys[i], mem.NewAddr(1, uint64(i+1)*64), 1)
	}
	answered := 0
	for i, k := range keys {
		if addr, _, ok := lc.Lookup(k); ok && addr == mem.NewAddr(1, uint64(i+1)*64) {
			answered++
		}
	}
	if share := float64(answered) / float64(n); share < 0.999 {
		t.Errorf("%d of %d keys answer after one learn each (%.4f), want >= 0.999", answered, n, share)
	}
	if st := lc.Stats(); st.Evictions > uint64(n)/1000 {
		t.Errorf("%d evictions at a quarter of capacity", st.Evictions)
	}
	if _, _, full, _ := lc.Occupancy(); full > uint64(n)/1000 {
		t.Errorf("%d full buckets at a quarter of capacity", full)
	}
}

// TestLACCapacityBound: associativity must not change what a cache far
// smaller than its working set delivers. Under a uniform trace over 7x
// capacity keys — every miss relearned, every false match refuted, as Search
// does — the hit share is capacity/keys under any mapping (read-cold's floor
// for leaf words: no placement of them holds more of a uniform working set,
// which is why the placement rule gives ways to node words there), and false
// matches stay rare.
func TestLACCapacityBound(t *testing.T) {
	lc := NewLeafCache(4096, 3)
	n := 7 * lc.Entries()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold-%07d", i))
	}
	addrOf := func(i int) mem.Addr { return mem.NewAddr(mem.NodeID(i%3), uint64(i+1)*64) }
	rng := rand.New(rand.NewSource(9))
	const warm, measured = 100_000, 400_000
	hits, refutes := 0, 0
	for op := 0; op < warm+measured; op++ {
		i := rng.Intn(n)
		addr, _, ok := lc.Lookup(keys[i])
		switch {
		case ok && addr == addrOf(i):
			if op >= warm {
				hits++
			}
			continue
		case ok:
			lc.UnlearnAt(keys[i], addr)
			if op >= warm {
				refutes++
			}
		}
		lc.Learn(keys[i], addrOf(i), 1)
	}
	want := float64(lc.Entries()) / float64(n)
	if got := float64(hits) / measured; got < want-0.01 || got > want+0.01 {
		t.Errorf("hit share %.4f over %d keys in %d entries, want %.4f ± 0.01", got, n, lc.Entries(), want)
	}
	// A full bucket offers eight 13-bit fingerprints to every probe.
	if got := float64(refutes) / measured; got > 1.5*lacWays/float64(lacFPMask+1) {
		t.Errorf("false-match share %.5f, want <= %.5f", got, 1.5*lacWays/float64(lacFPMask+1))
	}
	if occupied, capacity, full, _ := lc.Occupancy(); occupied < capacity*95/100 || full < capacity/lacWays*3/4 {
		t.Errorf("occupancy %d of %d, %d full buckets: a saturated cache should be nearly full", occupied, capacity, full)
	}
}

// TestLACBytesBudget: the byte-budget constructor must never exceed its
// budget (power-of-two rounded DOWN) and must respect the 64-entry floor.
func TestLACBytesBudget(t *testing.T) {
	for _, budget := range []uint64{0, 100, 512, 8 << 10, 512 << 10, (512 << 10) + 8, 1 << 20} {
		lc := NewLeafCacheBytes(budget, 1)
		if lc.SizeBytes() > budget && budget >= 64*8 {
			t.Errorf("budget %d: cache uses %d bytes", budget, lc.SizeBytes())
		}
		if lc.Entries() < 64 {
			t.Errorf("budget %d: %d entries, want >= 64", budget, lc.Entries())
		}
		if n := lc.Entries(); n&(n-1) != 0 {
			t.Errorf("budget %d: %d entries not a power of two", budget, n)
		}
	}
	if got := NewLeafCacheBytes(512<<10, 1).Entries(); got != 64<<10 {
		t.Errorf("512 KiB budget = %d entries, want %d", got, 64<<10)
	}
}

// TestLACConcurrentChurn: all operations are single-word atomics; under
// -race, concurrent learns, unlearns and lookups over a colliding key set
// must be clean, and any lookup that returns ok must return a word some
// learner actually wrote (no torn reads).
func TestLACConcurrentChurn(t *testing.T) {
	lc := NewLeafCache(64, 1) // small: plenty of slot collisions
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := []byte(fmt.Sprintf("churn-%d", i%97))
				switch (w + i) % 6 {
				case 0:
					lc.Learn(key, mem.NewAddr(mem.NodeID(w), uint64(i+1)*64), uint8(w+1))
				case 1:
					lc.Unlearn(key)
				case 2:
					if addr, units, ok := lc.Lookup(key); ok {
						if addr == 0 || units == 0 || units > workers {
							t.Errorf("torn lookup: addr=%v units=%d", addr, units)
							return
						}
					}
				// The same bytes as a prefix: node words churn through the same
				// buckets, and neither kind ever answers with the other's word.
				case 3:
					lc.LearnNode(lc.NodeHash(key), len(key), mem.NewAddr(mem.NodeID(w), uint64(i+1)*8), wire.NodeType(w%4))
				case 4:
					if addr, _, ok := lc.LookupNode(lc.NodeHash(key)); ok {
						lc.UnlearnNodeAt(lc.NodeHash(key), addr)
					}
				default:
					if addr, typ, ok := lc.LookupNode(lc.NodeHash(key)); ok {
						if addr.Offset() == 0 || addr.Offset() > 2000*8 || int(addr.Node()) >= workers || int(typ) != int(addr.Node())%4 {
							t.Errorf("torn node lookup: addr=%v type=%v", addr, typ)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := lc.Stats()
	if st.Learns == 0 {
		t.Fatal("no learns recorded")
	}
}

// TestLACBucketHammer: four workers of one CN learn, look up and refute a
// key set confined to two buckets — more keys than ways, so learns displace
// each other, race for empty ways and leave duplicates. Every entry is one
// atomically accessed word, so under -race the run is clean and every answer
// is a whole word some Learn wrote for that fingerprint (each key's learns
// carry the key's identity in the node and unit fields); the bucket never
// holds more than its ways; and the duplicates a race left behind drain one
// exact unlearn at a time.
func TestLACBucketHammer(t *testing.T) {
	lc := NewLeafCache(64, 5)
	keys := append(lacBucketKeys(lc, "hammer", 0, 12), lacBucketKeys(lc, "hammer", 1, 12)...)
	const workers, rounds, versions = 4, 20_000, 1 << 10
	written := func(i int, addr mem.Addr, units uint8) bool {
		ver := addr.Offset() / 64
		return int(addr.Node()) == i && int(units) == i+1 && addr.Offset()%64 == 0 && ver >= 1 && ver <= versions
	}
	var answers atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(len(keys))
				addr, units, ok := lc.Lookup(keys[i])
				if ok {
					answers.Add(1)
					if !written(i, addr, units) {
						t.Errorf("Lookup(%q) = (%v, %d): no Learn wrote that for key %d", keys[i], addr, units, i)
						return
					}
				}
				switch {
				case ok && rng.Intn(4) == 0: // the read at addr was refuted
					lc.UnlearnAt(keys[i], addr)
				case !ok || rng.Intn(4) == 0: // a miss, or the leaf moved
					lc.Learn(keys[i], mem.NewAddr(mem.NodeID(i), uint64(1+rng.Intn(versions))*64), uint8(i+1))
				}
			}
		}(w)
	}
	wg.Wait()
	if answers.Load() == 0 {
		t.Fatal("no lookup ever answered")
	}
	occupied, _, full, _ := lc.Occupancy()
	if occupied > 2*lacWays || full > 2 {
		t.Fatalf("two buckets hold %d entries (%d full buckets)", occupied, full)
	}
	for _, w := range lc.words[2*lacWays:] {
		if w != 0 {
			t.Fatalf("an entry escaped its bucket: %#x", w)
		}
	}
	// Drain: refute whatever still answers, one exact word at a time.
	for i, k := range keys {
		for n := 0; ; n++ {
			addr, units, ok := lc.Lookup(k)
			if !ok {
				break
			}
			if n == lacWays {
				t.Fatalf("%q still answers after %d exact unlearns", k, n)
			}
			if !written(i, addr, units) {
				t.Fatalf("Lookup(%q) = (%v, %d): no Learn wrote that for key %d", k, addr, units, i)
			}
			lc.UnlearnAt(k, addr)
		}
	}
	if occupied, _, _, _ := lc.Occupancy(); occupied != 0 {
		t.Fatalf("%d entries answer to no key of the set", occupied)
	}
	if st := lc.Stats(); st.Learns == 0 || st.Unlearns == 0 || st.Evictions == 0 {
		t.Fatalf("hammer exercised too little: %+v", st)
	}
}

// TestLACModeFlipChurn: the hammer with both kinds of word under both
// placement rules and across the switch between them. Four workers learn, look
// up and refute 24 keys and 24 prefixes confined to two buckets — references
// set and swept, node words dropped and displacing leaves, and once the cache
// gates, leaf learns into full buckets turned away or let in by a doorkeeper
// every worker pushes tags into at once. In the flip case a fifth goroutine
// gates the cache while they run. Under -race the run is clean; every answer
// is a whole word some learn wrote for that key or prefix (identity in the
// node, unit and type fields), never the other kind's; the buckets never hold
// more than their ways and the doorkeeper nothing but tags; and what is left
// drains one exact unlearn at a time.
func TestLACModeFlipChurn(t *testing.T) {
	for _, mode := range []string{"leaves first", "flip", "gated"} {
		t.Run(mode, func(t *testing.T) {
			lc := NewLeafCache(64, 5)
			if mode == "gated" {
				lc.gate()
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if mode == "flip" {
					for lc.Stats().Learns < 1_000 {
						runtime.Gosched()
					}
					lc.gate()
				}
			}()
			lacChurn(t, lc)
			<-done
			st := lc.Stats()
			gated := mode != "leaves first"
			if st.Evictions == 0 || st.NodeEvictions == 0 || st.NodeDrops == 0 && !gated || st.GateRefusals == 0 && gated {
				t.Fatalf("churn exercised too little of the rule: %+v", st)
			}
			if lc.gated() != gated {
				t.Fatalf("%s: gated %v (%+v)", mode, lc.gated(), st)
			}
			for _, w := range lc.door() {
				for i := 0; i < 64; i += lacDoorTagBits {
					if tag := w >> i & lacDoorTagMask; tag != 0 && tag&1 == 0 || i >= 4*lacDoorTagBits && tag != 0 {
						t.Fatalf("doorkeeper word %#x holds a lane no push wrote", w)
					}
				}
			}
		})
	}
}

func lacChurn(t *testing.T, lc *LeafCache) {
	keys := append(lacBucketKeys(lc, "flip", 0, 12), lacBucketKeys(lc, "flip", 1, 12)...)
	prefixes := append(lacBucketNames(lc, "flip", 0, 12, lacNodeSeed), lacBucketNames(lc, "flip", 1, 12, lacNodeSeed)...)
	const workers, rounds, versions = 4, 20_000, 1 << 10
	leafWritten := func(i int, addr mem.Addr, units uint8) bool {
		ver := addr.Offset() / 64
		return int(addr.Node()) == i && int(units) == i+1 && addr.Offset()%64 == 0 && ver >= 1 && ver <= versions
	}
	nodeWritten := func(i int, addr mem.Addr, typ wire.NodeType) bool {
		ver := addr.Offset() / 8
		return int(addr.Node()) == i && typ == wire.NodeType(i%4) && addr.Offset()%8 == 0 && ver >= 1 && ver <= versions
	}
	var answers [2]atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(len(keys))
				if rng.Intn(2) == 0 {
					addr, units, ok := lc.Lookup(keys[i])
					if ok {
						answers[0].Add(1)
						if !leafWritten(i, addr, units) {
							t.Errorf("Lookup(%q) = (%v, %d): no Learn wrote that for key %d", keys[i], addr, units, i)
							return
						}
					}
					switch {
					case ok && rng.Intn(4) == 0:
						lc.UnlearnAt(keys[i], addr)
					case !ok || rng.Intn(4) == 0:
						lc.Learn(keys[i], mem.NewAddr(mem.NodeID(i), uint64(1+rng.Intn(versions))*64), uint8(i+1))
					}
					continue
				}
				addr, typ, ok := lc.LookupNode(lc.NodeHash(prefixes[i]))
				if ok {
					answers[1].Add(1)
					if !nodeWritten(i, addr, typ) {
						t.Errorf("LookupNode(%q) = (%v, %v): no LearnNode wrote that for prefix %d", prefixes[i], addr, typ, i)
						return
					}
				}
				switch {
				case ok && rng.Intn(4) == 0:
					lc.UnlearnNodeAt(lc.NodeHash(prefixes[i]), addr)
				case !ok || rng.Intn(4) == 0:
					lc.LearnNode(lc.NodeHash(prefixes[i]), len(prefixes[i]), mem.NewAddr(mem.NodeID(i), uint64(1+rng.Intn(versions))*8), wire.NodeType(i%4))
				}
			}
		}(w)
	}
	wg.Wait()
	if answers[0].Load() == 0 || answers[1].Load() == 0 {
		t.Fatalf("answers: %d leaf, %d node; want both kinds", answers[0].Load(), answers[1].Load())
	}
	if occupied, _, full, _ := lc.Occupancy(); occupied > 2*lacWays || full > 2 {
		t.Fatalf("two buckets hold %d entries (%d full buckets)", occupied, full)
	}
	for _, w := range lc.words[2*lacWays : lc.Entries()] {
		if w != 0 {
			t.Fatalf("an entry escaped its bucket: %#x", w)
		}
	}
	for i := range keys {
		for n := 0; ; n++ {
			addr, units, ok := lc.Lookup(keys[i])
			if !ok {
				break
			}
			if n == lacWays || !leafWritten(i, addr, units) {
				t.Fatalf("Lookup(%q) = (%v, %d) after %d exact unlearns", keys[i], addr, units, n)
			}
			lc.UnlearnAt(keys[i], addr)
		}
		for n := 0; ; n++ {
			addr, typ, ok := lc.LookupNode(lc.NodeHash(prefixes[i]))
			if !ok {
				break
			}
			if n == lacWays || !nodeWritten(i, addr, typ) {
				t.Fatalf("LookupNode(%q) = (%v, %v) after %d exact unlearns", prefixes[i], addr, typ, n)
			}
			lc.UnlearnNodeAt(lc.NodeHash(prefixes[i]), addr)
		}
	}
	if occupied, _, _, _ := lc.Occupancy(); occupied != 0 {
		t.Fatalf("%d entries answer to no key or prefix of the set", occupied)
	}
}

// TestWarmReadBudget: the read-warm floor. A working set a quarter of the
// cache's entries is held whole, so once a first pass has taught the cache,
// every Get of a second pass is exactly one round trip — the verified read at
// the cached address, never a key that lost its entry to a hash neighbour
// and pays the 3-RT descent.
func TestWarmReadBudget(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.InstantConfig(), 4096)
	lac := NewLeafCache(8192, 1)
	c := newTestClient(f, shared, Options{LeafCache: lac})
	keys := make([][]byte, lac.Entries()/4)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("warm-%06d", i*7919))
		if _, err := c.Insert(keys[i], keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		warmSearch(t, c, k, k)
	}
	rt0, st0 := c.eng.C.RoundTrips(), c.Stats()
	for _, k := range keys {
		warmSearch(t, c, k, k)
	}
	rts, st := c.eng.C.RoundTrips()-rt0, c.Stats()
	if n := uint64(len(keys)); rts != n || st.SpecHits-st0.SpecHits != n {
		_, _, full, _ := lac.Occupancy()
		t.Errorf("second pass over %d keys: %d round trips, %d hits, %d misses, %d refutes (%d full buckets, %+v); want one verified read each",
			n, rts, st.SpecHits-st0.SpecHits, st.SpecMisses-st0.SpecMisses, st.SpecRefutes-st0.SpecRefutes, full, lac.Stats())
	}
}

// TestColdReadBudget: the read-cold ceiling. Uniform Gets over eight times the
// keys the leaf-address cache has ways for — 8-byte keys of sixteen byte
// values each, a tree whose inner nodes outnumber the ways too — beside a
// filter of 4.17 % of the keys' bytes that evicts. The inserts overflow the
// leaf-address cache, and it gates (LeafCache.wasted). Its leaf words could
// answer an eighth of the Gets at best, so the ways go to the node words every
// miss under them looks up — a leaf word enters a full bucket at its key's
// second miss only — and a
// Get lands on a remembered node word even where the filter dropped its
// prefix. A Get costs at most 2.95 round trips; with leaf learns that sweep
// whatever they meet and landings only where the filter claims, 3.0.
func TestColdReadBudget(t *testing.T) {
	const ways, keys = 2048, 8 * 2048
	f, shared := newCluster(t, 3, fabric.InstantConfig(), keys)
	lac := NewLeafCacheBytes(ways*8, 1)
	c := newTestClient(f, shared, Options{Filter: NewFilterCacheBytes(keys*8*417/10000, 1), LeafCache: lac})
	key := func(i int) []byte {
		k, h := make([]byte, 8), wire.Mix64(uint64(i)+1)
		for j := range k {
			k[j] = byte(h >> (4 * j) & 15)
		}
		return k
	}
	for i := 0; i < keys; i++ {
		if _, err := c.Insert(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		warmSearch(t, c, key(i), key(i))
	}
	rng := rand.New(rand.NewSource(5))
	const gets = 4 * keys
	rt0, st0 := c.eng.C.RoundTrips(), c.Stats()
	for n := 0; n < gets; n++ {
		i := rng.Intn(keys)
		warmSearch(t, c, key(i), key(i))
	}
	st := c.Stats()
	perGet := float64(c.eng.C.RoundTrips()-rt0) / gets
	t.Logf("%.4f RT/Get: %d leaf hits, %d node hits (%d unclaimed), %d root starts; %+v",
		perGet, st.SpecHits-st0.SpecHits, st.NodeHits-st0.NodeHits, st.UnclaimedLandings-st0.UnclaimedLandings,
		st.RootStarts-st0.RootStarts, lac.Stats())
	if perGet > 2.95 {
		t.Errorf("uniform Gets over %d keys, %d LAC ways: %.4f round trips per Get, want <= 2.95", keys, lac.Entries(), perGet)
	}
}
