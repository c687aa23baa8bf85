package bench

import (
	"bytes"
	"fmt"

	"sphinx/internal/obs"
)

// ledger is the harness's acked-write oracle, shared by every chaos
// experiment. Each worker owns a fixed shard of the key set (one writer
// per key), every write carries a value unique to its (pass, worker, op),
// and the value is recorded the moment the write is acknowledged — so the
// last recorded value of a key is exactly what the cluster promised to
// hold. Reads are checked against it as they happen (read-your-write) and
// verify re-reads the union of all passes afterwards.
type ledger struct {
	shards [][][]byte       // per worker: its key partition
	acked  []map[int][]byte // per worker: shard index -> last acked value
	seed   uint64
	pass   int // finished passes: salts the workers' streams, stamps the values
}

func newLedger(keys [][]byte, workers int, seed int64) *ledger {
	l := &ledger{seed: uint64(seed), shards: make([][][]byte, workers), acked: make([]map[int][]byte, workers)}
	for w := range l.shards {
		for i := w; i < len(keys); i += workers {
			l.shards[w] = append(l.shards[w], keys[i])
		}
		l.acked[w] = make(map[int][]byte)
	}
	return l
}

// stream seeds worker w's key-and-op draw for the current pass; op
// advances it.
func (l *ledger) stream(w int) uint64 {
	return l.seed*0x9e3779b97f4a7c15 + uint64(l.pass*len(l.shards)+w+1)
}

// op runs the worker's i-th operation of the current pass: an xorshift
// draw picks a key of its shard and, 50/50, reads it (failing on a
// read-your-write violation) or overwrites it and records the
// acknowledgement. It reports which it was and the operation's latency.
func (l *ledger) op(w *worker, stream *uint64, i int) (read bool, latPs int64, err error) {
	rng := *stream
	rng ^= rng << 13
	rng ^= rng >> 7
	rng ^= rng << 17
	*stream = rng
	shard, acked := l.shards[w.id], l.acked[w.id]
	ki := int(rng>>33) % len(shard)
	key := shard[ki]
	if rng&1 == 0 {
		var v []byte
		var ok bool
		latPs, err = w.timed(obs.OpGet, func() (err error) {
			v, ok, err = w.idx.Search(key)
			return err
		})
		if err != nil {
			return true, 0, fmt.Errorf("read op %d: %w", i, err)
		}
		if want, wrote := acked[ki]; wrote && (!ok || !bytes.Equal(v, want)) {
			return true, 0, fmt.Errorf("op %d: read-your-write violated for %q", i, key)
		}
		return true, latPs, nil
	}
	val := []byte(fmt.Sprintf("p%d-w%d-op%d", l.pass, w.id, i))
	latPs, err = w.timed(obs.OpUpdate, func() error {
		_, err := w.idx.Update(key, val)
		return err
	})
	if err != nil {
		return false, 0, fmt.Errorf("update op %d: %w", i, err)
	}
	acked[ki] = val
	return false, latPs, nil
}

// size is the number of keys holding an acknowledged write.
func (l *ledger) size() int {
	n := 0
	for _, m := range l.acked {
		n += len(m)
	}
	return n
}

// verify re-reads every acknowledged write through idx, counting into
// the three result slots: a lost write is a read that found nothing (or
// failed), a wrong one a read that found another value.
func (l *ledger) verify(idx Index, verified, lost, wrong *uint64) {
	for w := range l.acked {
		for ki, want := range l.acked[w] {
			v, ok, err := idx.Search(l.shards[w][ki])
			*verified++
			switch {
			case err != nil || !ok:
				*lost++
			case !bytes.Equal(v, want):
				*wrong++
			}
		}
	}
}
