package rart

import "unsafe"

// arena holds every image one operation of its engine reads, decodes or
// builds: node and leaf READ buffers, decoded Nodes with their slot words (a
// decoded node's Partial and Index alias its READ buffer), Leaves whose key and
// value alias theirs, and the node and leaf images a write encodes. Only what
// goes back to the caller leaves it: a Get's value, a Scan's results.
//
// Its one rule (DESIGN.md §5.7): an image lives until its engine's next
// operation begins (Engine.Rewind). Nothing cut from the arena is ever handed
// out twice within an operation, so no image is released early (a lock spin
// re-READs into its own buffer, postLock); the hand
// (Engine.Hold) is the only thing an operation carries from one batch to a
// later one, and nothing outlives an operation with it.
type arena struct {
	bytes  block[byte]
	words  block[uint64]
	nodes  block[Node]
	leaves block[Leaf]
}

// block is one kind of the arena's storage. cut hands out the next n elements
// of the current block; a block that cannot fit them is left to what was cut
// from it and replaced by one twice its size, up to blockBytes (or n). A
// rewind keeps the current block, so an engine whose operations fit it cuts
// without allocating; an engine never rewound only leaves its full blocks to
// the GC.
type block[T any] struct{ cur []T }

// blockBytes caps a block's growth. It is the scanner's former read arena
// block doubled, and above every operation of the five benchmark workloads
// (EXPERIMENTS.md "The image arena"): an operation that cuts more — a long
// Scan, a MigrateSweep walk — allocates one block per blockBytes.
const blockBytes = 64 << 10

func (b *block[T]) cut(n int) []T {
	if cap(b.cur)-len(b.cur) < n {
		b.cur = make([]T, 0, max(n, min(2*cap(b.cur), blockBytes/int(unsafe.Sizeof(*new(T))))))
	}
	off := len(b.cur)
	b.cur = b.cur[:off+n]
	return b.cur[off : off+n : off+n]
}

// one cuts one element off b, set to v.
func one[T any](b *block[T], v T) *T {
	p := &b.cut(1)[0]
	*p = v
	return p
}

// buf cuts an n-byte buffer, contents undefined.
func (a *arena) buf(n uint64) []byte { return a.bytes.cut(int(n)) }

// Rewind begins the engine's next outermost operation: every image the arena
// holds is dead from here on, and its storage is cut again. It is refused —
// false, nothing rewound — while the hand holds anything, which only an
// operation in flight does: a rewind inside one (a read nested in a write, a
// drive round) would let the next READ land in an image still in use.
func (e *Engine) Rewind() bool {
	if e.hand.n > 0 {
		return false
	}
	a := &e.arena
	a.bytes.cur, a.words.cur, a.nodes.cur, a.leaves.cur = a.bytes.cur[:0], a.words.cur[:0], a.nodes.cur[:0], a.leaves.cur[:0]
	return true
}

// ImageBuf cuts an n-byte READ buffer from the engine's arena: valid until
// the next Rewind.
func (e *Engine) ImageBuf(n uint64) []byte { return e.arena.buf(n) }
