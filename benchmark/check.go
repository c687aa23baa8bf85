package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sphinx"
)

// Values are self-validating, so a reader can tell a value of another key,
// a torn value and a stale value from the right one without a shadow copy:
//
//	[0:8]   hash of the key the value was written under
//	[8:16]  sequence<<8 | writer  (writer: driver index, or loaderID)
//	[16:24] checksum of the two words above
//	[24:]   padding derived from the checksum, up to the value size
const (
	valueHeader = 24
	loaderID    = 0xff
)

func valueSum(keyHash, stamp uint64) uint64 { return mix64(keyHash ^ mix64(stamp+0x5bd1e995)) }

// fillValue writes the value of (key, writer, seq) into buf, whose length is
// the workload's value size (≥ valueHeader).
func fillValue(buf []byte, keyHash uint64, writer uint8, seq uint64) {
	stamp := seq<<8 | uint64(writer)
	sum := valueSum(keyHash, stamp)
	binary.LittleEndian.PutUint64(buf[0:], keyHash)
	binary.LittleEndian.PutUint64(buf[8:], stamp)
	binary.LittleEndian.PutUint64(buf[16:], sum)
	pad := buf[valueHeader:]
	w := sum
	for len(pad) >= 8 {
		w += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(pad, w)
		pad = pad[8:]
	}
	for i := range pad {
		pad[i] = byte(sum >> (8 * uint(i)))
	}
}

// checkValue reports whether v is an intact value of the key with hash
// keyHash and of the expected size, and who wrote it when.
func checkValue(v []byte, keyHash uint64, size int) (writer uint8, seq uint64, ok bool) {
	if len(v) != size || size < valueHeader {
		return 0, 0, false
	}
	stamp := binary.LittleEndian.Uint64(v[8:])
	sum := binary.LittleEndian.Uint64(v[16:])
	if binary.LittleEndian.Uint64(v[0:]) != keyHash || sum != valueSum(keyHash, stamp) {
		return 0, 0, false
	}
	pad := v[valueHeader:]
	w := sum
	for len(pad) >= 8 {
		w += 0x9e3779b97f4a7c15
		if binary.LittleEndian.Uint64(pad) != w {
			return 0, 0, false
		}
		pad = pad[8:]
	}
	for i := range pad {
		if pad[i] != byte(sum>>(8*uint(i))) {
			return 0, 0, false
		}
	}
	return uint8(stamp), stamp >> 8, true
}

// checkScan reports whether a Scan(lo, nil, limit) result is acceptable when
// lo is a loaded, never-deleted key: non-empty, ascending, nothing below lo,
// within the limit, and every value intact for the key it came with.
func checkScan(kvs []sphinx.KV, lo []byte, limit, valueSize int) bool {
	if len(kvs) == 0 || len(kvs) > limit {
		return false
	}
	prev := lo
	for i, kv := range kvs {
		c := bytes.Compare(kv.Key, prev)
		if c < 0 || (c == 0 && i > 0) {
			return false
		}
		if _, _, ok := checkValue(kv.Value, hashKey(kv.Key), valueSize); !ok {
			return false
		}
		prev = kv.Key
	}
	return true
}

// ledger is what the read-back needs to know about the writes of a run: for
// every key, the last sequence each writer had acknowledged. Each driver
// writes only its own row while the run is live.
type ledger struct {
	loaded int        // keys [0, loaded) were written once by the loader
	acked  [][]uint32 // [driver][key] → last acked sequence, 0 = never wrote
}

func newLedger(drivers, keys, loaded int) *ledger {
	l := &ledger{loaded: loaded, acked: make([][]uint32, drivers)}
	for d := range l.acked {
		l.acked[d] = make([]uint32, keys)
	}
	return l
}

// live reports whether key i must be present at the end of the run.
func (l *ledger) live(i int) bool {
	if i < l.loaded {
		return true
	}
	for _, row := range l.acked {
		if row[i] != 0 {
			return true
		}
	}
	return false
}

// current reports whether (writer, seq) is an acceptable final state of key
// i: the last acked write of one of the drivers that wrote it, or the
// loader's value if no driver did. Drivers run concurrently, so which of
// their last writes won is not the benchmark's to say; an older write of
// any driver, or the loader's value under a driver's write, is stale.
func (l *ledger) current(i int, writer uint8, seq uint64) bool {
	written := false
	for d, row := range l.acked {
		if row[i] == 0 {
			continue
		}
		written = true
		if int(writer) == d && seq == uint64(row[i]) {
			return true
		}
	}
	return !written && i < l.loaded && writer == loaderID && seq == 1
}

// readBack fetches every live key in [from, to) through get and counts the
// keys that are lost (absent or failing), wrong (not an intact value of that
// key) or stale (intact, but not a last acked write).
func (l *ledger) readBack(ks keySet, from, to, valueSize int, get func(key []byte) ([]byte, bool, error)) (checked, bad uint64, notes []string) {
	for i := from; i < to; i++ {
		if !l.live(i) {
			continue
		}
		checked++
		v, ok, err := get(ks.keys[i])
		writer, seq, intact := checkValue(v, ks.hashes[i], valueSize)
		if err == nil && ok && intact && l.current(i, writer, seq) {
			continue
		}
		if bad++; bad <= maxNotes {
			notes = append(notes, fmt.Sprintf("read-back of %q: found %v, err %v, intact %v, writer %d seq %d", ks.keys[i], ok, err, intact, writer, seq))
		}
	}
	return checked, bad, notes
}
