package racehash

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/counters"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// ErrRetryExhausted is returned when a lookup or mutation cannot reach a
// stable view of the table after many refresh attempts. It indicates a bug
// (or a pathological hash collision) rather than a transient condition.
var ErrRetryExhausted = errors.New("racehash: retries exhausted")

const maxAttempts = 64

// Stats counts a view's table interactions. The view increments the
// fields atomically and Stats() loads them atomically, so a live metrics
// scrape can read a view its worker goroutine is driving.
type Stats struct {
	Lookups         uint64
	Inserts         uint64 // Insert calls (idempotent re-inserts included)
	Replaces        uint64 // Replace calls
	ReplaceInserts  uint64 // Replace calls that found no old entry and inserted the new one
	Removes         uint64 // Remove calls
	Refreshes       uint64
	RetryReads      uint64 // bucket-pair reads retried on a stale directory
	Splits          uint64
	DirDoubles      uint64
	SplitWaits      uint64
	BucketOverflows uint64 // inserts that found both candidate buckets full
	Reinserted      uint64 // leftover entries re-inserted after a split
	StaleChecks     uint64 // post-CAS verifications forced by a concurrent split
	// PlannedSwaps counts entry mutations concluded by a Finish… call: their
	// CAS was planned from a prefetched read to ride a batch of the caller's.
	// PlannedLost counts those that did not land there — never planned (stale,
	// split-locked or full buckets, old word already changed or absent), CAS
	// lost, dropped by an overlapping split, or outcome unknown — and took the
	// table's own read-then-CAS loop, a round trip or more that the plan was
	// to save.
	PlannedSwaps uint64
	PlannedLost  uint64
	// BlindInserts counts entry inserts concluded by FinishInsert whose CAS
	// went blind (AppendFreshInsert): no read of the bucket pair ahead of it, a
	// slot guessed from the word. BlindLost counts those that did not land at
	// the guessed slot — it was taken (the pair read behind the CAS planned the
	// retry, one round trip), a split or a stale directory overlapped, or the
	// outcome is unknown — and paid at least one round trip more.
	BlindInserts uint64
	BlindLost    uint64
}

func init() { counters.Check[Stats]() }

// Add returns s + t, field-wise; used to aggregate the per-memory-node
// views of one client.
func (s Stats) Add(t Stats) Stats {
	counters.Add(&s, &t)
	return s
}

// View is one client's handle on one memory node's table. It holds the
// client-side directory cache (paper §IV: "each CN maintains a local
// directory cache"). A view is single-threaded, like the client it wraps.
type View struct {
	t       Table
	c       *fabric.Client
	depth   uint8
	dirAddr mem.Addr
	dir     []uint64
	stats   Stats
	// scratch backs LookupAppend's bucket read, sparing the warm read path
	// one PreparedRead allocation per lookup. Only the lookup path may use
	// it; mutations read into mut.
	scratch PreparedRead
	// mut backs every mutation's bucket read, waitSplit's polls included.
	// A mutation copies what it needs (slot address, header word) out of a
	// read before it issues the next one, and re-reads after any nested
	// mutation (a split re-inserting leftovers), so one buffer serves.
	mut PreparedRead
	// readOps backs readInto's bucket-pair batch, casOps and casHdr
	// casChecked's two-verb batch.
	readOps [2]fabric.Op
	casOps  [2]fabric.Op
	casHdr  [8]byte
}

// NewView creates a view; the directory cache is fetched lazily on first
// use.
func NewView(t Table, c *fabric.Client) *View { return &View{t: t, c: c} }

// Stats returns a snapshot of the view's counters, loaded atomically.
func (v *View) Stats() Stats { return counters.Load(&v.stats) }

// DirCacheBytes returns the size of the client-side directory cache.
func (v *View) DirCacheBytes() uint64 { return uint64(len(v.dir)) * 8 }

// refresh (re)loads the meta word and the directory: two dependent round
// trips, paid only on first use and after a segment split invalidates the
// cache.
func (v *View) refresh() error {
	w, err := v.c.ReadUint64(v.t.Meta.Add(metaWordOff))
	if err != nil {
		return err
	}
	depth, dirAddr := unpackMeta(w)
	buf := make([]byte, (uint64(1)<<depth)*8)
	if err := v.c.Read(dirAddr, buf); err != nil {
		return err
	}
	v.depth = depth
	v.dirAddr = dirAddr
	v.dir = make([]uint64, 1<<depth)
	for i := range v.dir {
		v.dir[i] = getUint64(buf[i*8:])
	}
	atomic.AddUint64(&v.stats.Refreshes, 1)
	return nil
}

func (v *View) ensureDir() error {
	if v.dir == nil {
		return v.refresh()
	}
	return nil
}

// segFor resolves a placement hash through the cached directory.
func (v *View) segFor(h uint64) (seg mem.Addr, localDepth uint8) {
	w := v.dir[h&depthMask(v.depth)]
	localDepth, seg = unpackDirEntry(w)
	return seg, localDepth
}

// Candidate is a matching hash entry plus the address of the slot holding
// it, so callers can later CAS that exact slot (type switches, deletes).
type Candidate struct {
	Entry wire.HashEntry
	Slot  mem.Addr
}

// PreparedRead is a bucket-pair read that a caller can merge into a larger
// doorbell batch (the paper's parallel multi-prefix read, §III-A). Use
// PrepareInto → AppendOps of several PreparedReads → Client.Batch →
// AppendCandidates on each (Valid first: a stale directory cache fetched
// the wrong pair, and LookupAppend reads it again).
//
// A fetched read can also carry the entry mutation that follows it:
// PrepareInto → merge AppendOps into an earlier batch → AppendInsert/
// AppendReplace/AppendRemove into a later batch → View.FinishInsert/
// FinishReplace/FinishSwapIfPresent/FinishRemove (the read-piggyback-then-CAS
// publish). One mutation is planned
// at a time; a read whose planned mutation has been finished can carry the
// next one, as long as that one touches another slot. The insert of a word no
// table holds needs no fetched read at all (AppendFreshInsert).
type PreparedRead struct {
	view  *View
	h     uint64
	depth uint8 // the local depth the directory cache gave the segment
	addrs [2]mem.Addr
	bufs  [2][BucketSize]byte

	// State of a planned swap: the slot the CAS targets (with the header
	// word its bucket showed when it was chosen — or, blind, should show),
	// the header re-read riding the CAS (blind: the pair read behind it), and
	// the CAS's index in the caller's batch (-1: none planned).
	at     slotRef
	chk    [8]byte
	swapAt int
	blind  bool

	// Lost says, after a Finish… call, that the planned swap did not land in
	// the caller's batch and took the table's own loop (Stats.PlannedLost,
	// BlindLost); Retried that a blind insert's guessed slot was taken and the
	// pair read behind it planned the insert again (BlindLost); Inserted that
	// a replace found no old entry there and inserted the new one
	// (ReplaceInserts).
	Lost, Retried, Inserted bool
}

// PrepareInto resolves the candidate buckets for h through the directory
// cache into p, the pending read. It costs no network round trips (beyond a
// first-use directory fetch).
func (v *View) PrepareInto(p *PreparedRead, h uint64) error {
	p.swapAt, p.blind, p.Lost, p.Retried, p.Inserted = -1, false, false, false, false
	if err := v.ensureDir(); err != nil {
		return err
	}
	seg, depth := v.segFor(h)
	b1, b2 := bucketPair(h)
	p.view, p.h, p.depth = v, h, depth
	p.addrs[0] = seg.Add(uint64(b1) * BucketSize)
	p.addrs[1] = seg.Add(uint64(b2) * BucketSize)
	return nil
}

// AppendOps appends the two READ verbs of the prepared bucket-pair fetch
// to ops, letting callers assemble multi-prefix batches without per-read
// slice allocations.
func (p *PreparedRead) AppendOps(ops []fabric.Op) []fabric.Op {
	return append(ops,
		fabric.Op{Kind: fabric.Read, Addr: p.addrs[0], Data: p.bufs[0][:]},
		fabric.Op{Kind: fabric.Read, Addr: p.addrs[1], Data: p.bufs[1][:]},
	)
}

// Valid reports whether the fetched buckets belong to the hash — i.e. the
// client's directory cache was fresh. On false the caller must Refresh the
// view and retry the prepared read.
func (p *PreparedRead) Valid() bool {
	return headerMatches(getUint64(p.bufs[0][:]), p.h) &&
		headerMatches(getUint64(p.bufs[1][:]), p.h)
}

// AppendCandidates appends the fetched buckets' entries matching fp to out.
// Candidates are self-contained values: they stay valid after the
// PreparedRead is reused.
func (p *PreparedRead) AppendCandidates(out []Candidate, fp uint16) []Candidate {
	for b := 0; b < 2; b++ {
		for s := 0; s < EntriesPerBucket; s++ {
			w := getUint64(p.bufs[b][8*(1+s):])
			e := wire.DecodeHashEntry(w)
			if e.Valid && e.FP == fp {
				out = append(out, Candidate{Entry: e, Slot: p.addrs[b].Add(uint64(8 * (1 + s)))})
			}
		}
	}
	return out
}

// locked reports whether either fetched bucket header carries the split
// lock.
func (p *PreparedRead) locked() bool {
	_, _, l1 := unpackBucketHeader(getUint64(p.bufs[0][:]))
	_, _, l2 := unpackBucketHeader(getUint64(p.bufs[1][:]))
	return l1 || l2
}

// header returns the fetched header word of bucket b (0 or 1).
func (p *PreparedRead) header(b int) uint64 { return getUint64(p.bufs[b][:]) }

// slotRef names an entry slot found by a bucket-pair read: its address, the
// address of its bucket (whose first word is the bucket header) and the
// header word the read observed there.
type slotRef struct {
	slot, bucket mem.Addr
	hdr          uint64
}

// find returns the slot currently holding the exact entry word, if present.
// The zero word finds the first empty slot.
func (p *PreparedRead) find(word uint64) (slotRef, bool) {
	for b := 0; b < 2; b++ {
		for s := 0; s < EntriesPerBucket; s++ {
			if getUint64(p.bufs[b][8*(1+s):]) == word {
				return slotRef{p.addrs[b].Add(uint64(8 * (1 + s))), p.addrs[b], p.header(b)}, true
			}
		}
	}
	return slotRef{}, false
}

// Refresh discards and refetches the directory cache.
func (v *View) Refresh() error { return v.refresh() }

// read performs a validated bucket-pair read into the view's mutation
// scratch, refreshing the directory cache as needed. One round trip in the
// common case. The result is valid until the view's next mutation read.
func (v *View) read(h uint64) (*PreparedRead, error) {
	if err := v.readInto(&v.mut, h); err != nil {
		return nil, err
	}
	return &v.mut, nil
}

// readInto is read into caller-provided storage.
func (v *View) readInto(p *PreparedRead, h uint64) error {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := v.PrepareInto(p, h); err != nil {
			return err
		}
		if err := v.c.Batch(p.AppendOps(v.readOps[:0])); err != nil {
			return err
		}
		if p.Valid() {
			return nil
		}
		// Stale directory cache: the retried bucket read is an extra
		// round trip charged to this stage.
		atomic.AddUint64(&v.stats.RetryReads, 1)
		if err := v.refresh(); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w: bucket read for h=%#x", ErrRetryExhausted, h)
}

// LookupAppend appends to dst all entries whose fingerprint matches fp in the
// candidate buckets of h. One round trip with a warm directory cache. The
// bucket read reuses view-held scratch, so a warm hit in already-grown dst
// allocates nothing.
func (v *View) LookupAppend(dst []Candidate, h uint64, fp uint16) ([]Candidate, error) {
	atomic.AddUint64(&v.stats.Lookups, 1)
	if err := v.readInto(&v.scratch, h); err != nil {
		return dst, err
	}
	return v.scratch.AppendCandidates(dst, fp), nil
}

// casChecked CASes an entry slot and, in the same doorbell batch, re-reads
// the slot's bucket header. Only a segment split ever modifies a bucket
// header, so if the header read back differs in any way from the one
// observed when the slot was chosen (lock bit set, depth bumped, suffix
// changed), a split overlapped the CAS and may have missed it; the caller
// must wait for the split and re-verify. This closes the window between a
// split's segment snapshot and its old-segment rewrite.
func (v *View) casChecked(at slotRef, old, new uint64) (won, ambiguous bool, err error) {
	ops := v.casOps[:]
	ops[0] = fabric.Op{Kind: fabric.CAS, Addr: at.slot, Expect: old, Desired: new}
	ops[1] = fabric.Op{Kind: fabric.Read, Addr: at.bucket, Data: v.casHdr[:]}
	if err := v.c.Batch(ops); err != nil {
		return false, false, err
	}
	return ops[0].Old == old, getUint64(v.casHdr[:]) != at.hdr, nil
}

// appendSwap plans the CAS oldWord → newWord from this already-fetched read
// and appends it, with the bucket-header re-read of casChecked, to ops — so
// the caller can land several tables' entry changes in one doorbell batch.
// ok=false (nothing appended) when the read cannot carry the swap: stale
// directory, split lock visible, no slot holding oldWord, or newWord already
// present; the Finish… call then takes the table's own read-then-CAS loop.
func (p *PreparedRead) appendSwap(ops []fabric.Op, oldWord, newWord uint64) ([]fabric.Op, bool) {
	p.swapAt = -1
	if !p.Valid() || p.locked() {
		return ops, false
	}
	if _, dup := p.find(newWord); dup && newWord != 0 { // an empty slot is no duplicate of a remove
		return ops, false
	}
	at, ok := p.find(oldWord)
	if !ok {
		return ops, false
	}
	p.at, p.swapAt = at, len(ops)
	return append(ops,
		fabric.Op{Kind: fabric.CAS, Addr: at.slot, Expect: oldWord, Desired: newWord},
		fabric.Op{Kind: fabric.Read, Addr: at.bucket, Data: p.chk[:]},
	), true
}

// AppendInsert plans View.Insert's CAS from this fetched read (see
// appendSwap); conclude it with View.FinishInsert.
func (p *PreparedRead) AppendInsert(ops []fabric.Op, e wire.HashEntry) ([]fabric.Op, bool) {
	return p.appendSwap(ops, 0, e.Encode())
}

// AppendFreshInsert plans View.Insert's CAS of e, an entry whose word no
// table holds — a fresh node's: the allocator never reuses an address — and
// appends it to ops; conclude it with View.FinishInsert. The CAS goes blind,
// with no read ahead of it: 0 → word at a slot of the pair guessed from the
// word, uniformly among its 2 × EntriesPerBucket, then in the same batch the
// READ of the pair. Expecting an empty slot it overwrites nothing, and the
// target bucket's header in that READ is the re-check casChecked makes,
// against the header the cached directory predicts: unlocked, at its local
// depth and suffix.
func (p *PreparedRead) AppendFreshInsert(ops []fabric.Op, e wire.HashEntry) ([]fabric.Op, bool) {
	word := e.Encode()
	s := wire.Mix64(word) % (2 * EntriesPerBucket)
	b := s / EntriesPerBucket
	p.at = slotRef{
		slot:   p.addrs[b].Add(8 * (1 + s%EntriesPerBucket)),
		bucket: p.addrs[b],
		hdr:    packBucketHeader(p.depth, p.h&depthMask(p.depth), false),
	}
	p.swapAt, p.blind = len(ops), true
	return p.AppendOps(append(ops, fabric.Op{Kind: fabric.CAS, Addr: p.at.slot, Desired: word})), true
}

// AppendReplace plans the CAS of a swap from this fetched read (see
// appendSwap); conclude it with View.FinishReplace (an upsert) or
// View.FinishSwapIfPresent.
func (p *PreparedRead) AppendReplace(ops []fabric.Op, old, new wire.HashEntry) ([]fabric.Op, bool) {
	return p.appendSwap(ops, old.Encode(), new.Encode())
}

// AppendRemove plans View.Remove's CAS from this fetched read (see
// appendSwap); conclude it with View.FinishRemove.
func (p *PreparedRead) AppendRemove(ops []fabric.Op, old wire.HashEntry) ([]fabric.Op, bool) {
	return p.appendSwap(ops, old.Encode(), 0)
}

// swapResult consumes the outcome of a planned swap from the executed batch
// it rode. ok=false when none was planned or the batch is not given.
func (p *PreparedRead) swapResult(ops []fabric.Op) (won, ambiguous, ok bool) {
	at := p.swapAt
	p.swapAt = -1
	if at < 0 || at+1 >= len(ops) {
		return false, false, false
	}
	if p.blind { // both buckets' headers: either moved means a split came by
		return ops[at].Old == 0, p.header(0) != p.at.hdr || p.header(1) != p.at.hdr, true
	}
	return ops[at].Old == ops[at].Expect, getUint64(p.chk[:]) != p.at.hdr, true
}

// waitSplit polls the candidate buckets of h until no split lock is
// visible, then returns the fresh read. The split's driver is a live client
// that nobody takes the lock from, so the polls wait as every wait on a live
// holder does (fabric.Backoff.WaitHolder): long enough to outlast the host
// keeping the driver off the CPU.
func (v *View) waitSplit(h uint64) (*PreparedRead, error) {
	atomic.AddUint64(&v.stats.SplitWaits, 1)
	b := fabric.BackoffPolicy{}.Start(v.c)
	for {
		p, err := v.read(h)
		if err != nil {
			return nil, err
		}
		if !p.locked() {
			return p, nil
		}
		if !b.WaitHolder() {
			return nil, fmt.Errorf("%w: split lock never cleared for h=%#x", ErrRetryExhausted, h)
		}
	}
}

// settle concludes a CAS that installed word in slot. A clean header
// re-read means it is live. Otherwise a split overlapped the CAS: it may
// have snapshotted the bucket before the word landed and rebuilt the
// segment without it, so wait for the split and verify through the
// (possibly new) segment. done=false means the rewrite dropped the word;
// the orphan is cleaned up best-effort (it may survive in a segment that
// is no longer this hash's home) and the caller redoes the mutation.
func (v *View) settle(h, word uint64, slot mem.Addr, ambiguous bool) (done bool, err error) {
	if !ambiguous {
		return true, nil
	}
	atomic.AddUint64(&v.stats.StaleChecks, 1)
	q, err := v.waitSplit(h)
	if err != nil {
		return false, err
	}
	if _, ok := q.find(word); ok {
		return true, nil
	}
	_, err = v.c.CompareSwap(slot, word, 0)
	return false, err
}

// Insert adds an entry for placement hash h. If the entry word is already
// present the insert is a no-op (idempotent re-insert after an ambiguous
// race). Full candidate buckets trigger a segment split, for which alloc
// provides memory.
func (v *View) Insert(h uint64, e wire.HashEntry, alloc *mem.Allocator) error {
	atomic.AddUint64(&v.stats.Inserts, 1)
	return v.insert(h, e.Encode(), alloc)
}

// landed concludes the swap planned on p (AppendInsert/AppendReplace) and
// executed in ops, reporting whether word is now live in the table. False
// when the CAS lost, was never planned, or its batch is unknown (ops nil:
// the batch faulted or its completion was lost); the caller then takes the
// mutation's own loop, which is idempotent on an entry that did land. Both
// outcomes are counted (Stats.PlannedSwaps, PlannedLost) and left in p.Lost.
func (v *View) landed(p *PreparedRead, ops []fabric.Op, word uint64) (done bool, err error) {
	atomic.AddUint64(&v.stats.PlannedSwaps, 1)
	if won, ambiguous, ok := p.swapResult(ops); ok && won {
		done, err = v.settle(p.h, word, p.at.slot, ambiguous)
	}
	if p.Lost = !done && err == nil; p.Lost {
		atomic.AddUint64(&v.stats.PlannedLost, 1)
	}
	return done, err
}

// FinishInsert concludes an insert whose CAS was planned with AppendInsert
// on p and executed in ops; see landed.
func (v *View) FinishInsert(p *PreparedRead, ops []fabric.Op, e wire.HashEntry, alloc *mem.Allocator) error {
	atomic.AddUint64(&v.stats.Inserts, 1)
	word := e.Encode()
	if p.blind {
		return v.finishBlind(p, ops, word, alloc)
	}
	if done, err := v.landed(p, ops, word); done || err != nil {
		return err
	}
	return v.insert(p.h, word, alloc)
}

// finishBlind concludes a blind insert (AppendFreshInsert). Won, with the
// headers exactly as the cached directory predicts, the word is live by
// casChecked's argument: only a split writes a header, depth never
// decreases, and a split sets the lock bit before it snapshots the segment.
// Won on any other header, a split overlapped or the directory was stale:
// settle. The slot taken, the pair read behind the CAS plans the retry — one
// round trip. Anything else (a stale, locked or full pair, a second loss, a
// lost completion) takes the table's own loop, which is idempotent.
func (v *View) finishBlind(p *PreparedRead, ops []fabric.Op, word uint64, alloc *mem.Allocator) (err error) {
	atomic.AddUint64(&v.stats.BlindInserts, 1)
	won, ambiguous, ok := p.swapResult(ops)
	p.blind = false
	at, free := p.find(0)
	if ok && !won && free && p.Valid() && !p.locked() {
		p.Retried, p.at = true, at
		if won, ambiguous, err = v.casChecked(at, 0, word); err != nil {
			return err
		}
	}
	if p.Retried || !won || ambiguous {
		atomic.AddUint64(&v.stats.BlindLost, 1)
	}
	if won {
		if done, err := v.settle(p.h, word, p.at.slot, ambiguous); done || err != nil {
			return err
		}
	}
	p.Lost = true
	return v.insert(p.h, word, alloc)
}

// insert is the table's own loop for an entry word no slot holds yet: a swap
// from the empty slot's 0.
func (v *View) insert(h, word uint64, alloc *mem.Allocator) error {
	_, _, err := v.swap(h, 0, word, alloc)
	return err
}

// Replace atomically swaps an existing entry for a new one (node type
// switch, §IV Insert: "the inner node hash table is updated ... performed
// atomically using an RDMA CAS"). The caller must hold the node-grained
// lock that serializes competing replaces of the same entry.
//
// Replace is an upsert: with the old entry absent it inserts the new one,
// splits included, and waits for no other client. The old entry's own
// publication can still be in flight — a node becomes reachable through the
// tree (and thus switchable) before its creator's table insert lands — and
// may land late beside the new entry, naming a node retired by then, which
// readers remove when they meet it.
func (v *View) Replace(h uint64, old, new wire.HashEntry, alloc *mem.Allocator) error {
	atomic.AddUint64(&v.stats.Replaces, 1)
	_, _, err := v.swap(h, old.Encode(), new.Encode(), alloc)
	return err
}

// FinishReplace concludes a replace whose CAS was planned with
// AppendReplace on p and executed in ops; see landed and Replace.
func (v *View) FinishReplace(p *PreparedRead, ops []fabric.Op, old, new wire.HashEntry, alloc *mem.Allocator) error {
	_, err := v.finishSwap(p, ops, old, new, alloc)
	return err
}

// FinishSwapIfPresent concludes a swap whose CAS was planned with
// AppendReplace on p and executed in ops, like FinishReplace but returning
// won=false instead of inserting when old is not (or no longer) in the
// table. Last-writer-wins callers (the anchor tables) hold no lock that
// serializes competing swaps, so for them "the expected entry vanished"
// means a concurrent writer won the race — an outcome to re-read and
// re-decide on.
func (v *View) FinishSwapIfPresent(p *PreparedRead, ops []fabric.Op, old, new wire.HashEntry) (bool, error) {
	return v.finishSwap(p, ops, old, new, nil)
}

// finishSwap is what FinishReplace (alloc given: an upsert) and
// FinishSwapIfPresent share.
func (v *View) finishSwap(p *PreparedRead, ops []fabric.Op, old, new wire.HashEntry, alloc *mem.Allocator) (won bool, err error) {
	atomic.AddUint64(&v.stats.Replaces, 1)
	newWord := new.Encode()
	if done, err := v.landed(p, ops, newWord); done || err != nil {
		return done, err
	}
	won, p.Inserted, err = v.swap(p.h, old.Encode(), newWord, alloc)
	return won, err
}

// swap is the table's one read-then-CAS loop for an entry word: the CAS
// oldWord → newWord at the slot holding oldWord, done at once when newWord is
// already there. With oldWord absent, a swap given alloc takes an empty slot
// instead, splitting full buckets — Insert's (oldWord is the empty slot's 0)
// and Replace's upsert (inserted) — and one without alloc is lost
// (FinishSwapIfPresent). No branch waits for another client.
func (v *View) swap(h, oldWord, newWord uint64, alloc *mem.Allocator) (won, inserted bool, err error) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		p, err := v.read(h)
		if err != nil {
			return false, false, err
		}
		if p.locked() {
			if _, err := v.waitSplit(h); err != nil {
				return false, false, err
			}
			continue
		}
		if _, ok := p.find(newWord); ok {
			return true, false, nil
		}
		expect := oldWord
		at, ok := p.find(expect)
		if !ok && alloc != nil {
			expect = 0
			if at, ok = p.find(0); !ok {
				atomic.AddUint64(&v.stats.BucketOverflows, 1)
				if err := v.split(h, alloc); err != nil {
					return false, false, err
				}
				continue
			}
		}
		if !ok {
			return false, false, nil
		}
		won, ambiguous, err := v.casChecked(at, expect, newWord)
		if err != nil {
			return false, false, err
		}
		if !won {
			continue // someone claimed the slot; rescan
		}
		// On done=false a split captured the pre-CAS image: the old word is
		// live again somewhere, or the slot empty; loop and redo the swap.
		if done, err := v.settle(h, newWord, at.slot, ambiguous); done || err != nil {
			if inserted = done && expect != oldWord; inserted {
				atomic.AddUint64(&v.stats.ReplaceInserts, 1)
			}
			return done, inserted, err
		}
	}
	return false, false, fmt.Errorf("%w: swap h=%#x", ErrRetryExhausted, h)
}

// FinishRemove concludes a remove whose CAS was planned with AppendRemove on
// p and executed in ops. Anything but a clean win — lost, overlapped by a
// split that may have resurrected the entry, never planned — takes Remove's
// own loop, which is idempotent.
func (v *View) FinishRemove(p *PreparedRead, ops []fabric.Op, old wire.HashEntry) error {
	atomic.AddUint64(&v.stats.PlannedSwaps, 1)
	won, ambiguous, ok := p.swapResult(ops)
	if p.Lost = !ok || !won || ambiguous; !p.Lost {
		atomic.AddUint64(&v.stats.Removes, 1)
		return nil
	}
	atomic.AddUint64(&v.stats.PlannedLost, 1)
	return v.Remove(p.h, old)
}

// Remove deletes an existing entry (key delete path). Idempotent: removing
// an absent entry succeeds.
func (v *View) Remove(h uint64, old wire.HashEntry) error {
	atomic.AddUint64(&v.stats.Removes, 1)
	oldWord := old.Encode()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		p, err := v.read(h)
		if err != nil {
			return err
		}
		if p.locked() {
			if _, err := v.waitSplit(h); err != nil {
				return err
			}
			continue
		}
		at, ok := p.find(oldWord)
		if !ok {
			return nil
		}
		won, ambiguous, err := v.casChecked(at, oldWord, 0)
		if err != nil {
			return err
		}
		if won && !ambiguous {
			return nil
		}
		if won && ambiguous {
			// The split may have resurrected the entry from its pre-CAS
			// snapshot; loop until a clean read shows it gone.
			atomic.AddUint64(&v.stats.StaleChecks, 1)
			if _, err := v.waitSplit(h); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("%w: remove h=%#x", ErrRetryExhausted, h)
}
