package rart

import (
	"bytes"
	"errors"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/wire"
)

// TestImagesLiveOneOperation: an image lives until its engine's next operation
// begins (DESIGN.md §5.7). The next operation's READs land where the last
// one's did, so an image taken in one operation is not read by the next — the
// test looks at op 1's image after op 2 began only to show it is op 2's now.
// A rewind while the hand holds an image is refused: the held image, and
// whatever is cut after it, stay where they are.
func TestImagesLiveOneOperation(t *testing.T) {
	e, root := testEngine(t, Config{})
	for _, k := range []string{"img-a", "img-b", "other"} {
		mustPut(t, e, root, k, "v-"+k)
	}
	slot, _, ok := root().Child('i')
	if !ok || slot.Leaf {
		t.Fatal(`no inner node under "i": the scenario exercises nothing`)
	}
	read := func() *Node {
		t.Helper()
		n, err := e.ReadNode(slot.Addr, slot.ChildType)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	if !e.Rewind() {
		t.Fatal("a rewind with an empty hand was refused")
	}
	inner := read() // op 1
	if !e.Rewind() {
		t.Fatal("a rewind with an empty hand was refused")
	}
	r := root() // op 2
	if r != inner || inner.Hdr.Type != wire.Node256 {
		t.Fatalf("op 2's root image is not where op 1's image of the inner node was: the arena was not rewound")
	}

	// A held image survives a refused rewind.
	held := r.Clone()
	e.Hold(r, Rerouted)
	if e.Rewind() {
		t.Fatal("the engine rewound with an image in its hand")
	}
	if n := read(); n == r || !sameImage(r, held) {
		t.Fatal("the held image was overwritten by the next READ")
	}
	e.Release(BetRoundEnded)
	if e.Holding() != 0 || !e.Rewind() {
		t.Fatalf("hand holds %d entries after the round ended; want 0 and a rewind", e.Holding())
	}
}

// TestScanResultsOwnTheirBytes: a scan's results are one block, each key and
// value cut with its own capacity, out of the engine's arena: appending to a
// returned value leaves the next result's key intact, and the results outlive
// the engine's next operation.
func TestScanResultsOwnTheirBytes(t *testing.T) {
	f, ring, root := scanCluster(t)
	e := engineOn(f, ring)
	putAll(t, e, root, "val", "k/a", "k/b", "k/c")
	e.Rewind()
	kvs, err := e.ScanFrom(root(e), []byte("k/"), nil, 0, true)
	if err != nil || scanKeys(kvs) != "k/a k/b k/c" {
		t.Fatalf("scan = %q, %v", scanKeys(kvs), err)
	}
	for i := range kvs {
		kvs[i].Value = append(kvs[i].Value, "-appended"...)
		kvs[i].Key = append(kvs[i].Key, '!')
	}
	e.Rewind()
	putAll(t, e, root, "other", "k/d", "k/e")
	for i, want := range []string{"k/a", "k/b", "k/c"} {
		if !bytes.Equal(kvs[i].Key, []byte(want+"!")) || string(kvs[i].Value) != "val-appended" {
			t.Errorf("result %d = %q: %q after appends and another operation, want %q: %q",
				i, kvs[i].Key, kvs[i].Value, want+"!", "val-appended")
		}
	}
}

// TestLockSpinCutsOneBuffer: the polls of a lock spin READ into one buffer — a
// lost attempt's image is dead once its lease word is read — so a wait of any
// length cuts one node image from the arena, not one per poll.
func TestLockSpinCutsOneBuffer(t *testing.T) {
	f, ring, root := scanCluster(t)
	holder, waiter := engineOn(f, ring), engineOn(f, ring)
	r := root(holder)
	if _, err := holder.Lock(r.Addr, r.Hdr.Type, 0); err != nil {
		t.Fatal(err)
	}
	for range 40 { // grow the waiter's byte block past the whole spin
		root(waiter)
	}
	waiter.Rewind()
	waiter.Cfg.Backoff = fabric.BackoffPolicy{Budget: 16} // 17 polls of a live holder's lease, then the budget ends
	if _, err := waiter.Lock(r.Addr, r.Hdr.Type, 0); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("lock on a held node: %v, want retries exhausted", err)
	}
	if cut, img := len(waiter.arena.bytes.cur), int(wire.NodeSize(r.Hdr.Type)); cut != img {
		t.Fatalf("a 17-poll spin cut %d bytes, want one %d-byte image", cut, img)
	}
}
