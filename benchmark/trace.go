package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// recorder keeps one span per driver-issued call of a traced phase. Each
// driver appends to its own slice, so recording takes no lock; calls beyond
// the first keep per driver are only counted.
type recorder struct {
	layer   string // "session" or "core": the rung the calls entered
	epoch   time.Time
	keep    int
	spans   [][]callSpan
	dropped []uint64
}

type callSpan struct {
	target       int
	kind         int
	wall0, wall1 int64 // ns since the recorder's epoch
	before, now  net
}

func newRecorder(layer string, drivers, keep int) *recorder {
	r := &recorder{layer: layer, epoch: time.Now(), keep: keep,
		spans: make([][]callSpan, drivers), dropped: make([]uint64, drivers)}
	for d := range r.spans {
		r.spans[d] = make([]callSpan, 0, keep)
	}
	return r
}

func (r *recorder) op(driver, target, kind int, t0, t1 time.Time, before, now net) {
	if len(r.spans[driver]) >= r.keep {
		r.dropped[driver]++
		return
	}
	r.spans[driver] = append(r.spans[driver], callSpan{
		target: target, kind: kind,
		wall0: t0.Sub(r.epoch).Nanoseconds(), wall1: t1.Sub(r.epoch).Nanoseconds(),
		before: before, now: now,
	})
}

// span is the file form of one span. Spans of one phase share its root as
// parent; a fabric batch's parent is the core call that posted it. Wall
// times are nanoseconds since the phase began, virtual times picoseconds on
// the issuing session's clock. Fabric batches are seen from the observer
// callback, which has no wall clock of its own: theirs is left out.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Driver  int    `json:"driver"`
	Wall0   int64  `json:"wall_start_ns,omitempty"`
	Wall1   int64  `json:"wall_end_ns,omitempty"`
	Virt0   int64  `json:"virt_start_ps"`
	Virt1   int64  `json:"virt_end_ps"`
	RTs     uint64 `json:"rt"`
	Verbs   uint64 `json:"verbs"`
	Bytes   uint64 `json:"bytes"`
	Dropped uint64 `json:"calls_not_kept,omitempty"`
}

// appendSpans renders a recorder's spans under a new root span. logs, when
// given, holds per driver and target the batch events of the same phase in
// posting order; each becomes a child of the call whose virtual interval
// contains it (a client's clock only moves inside its own calls).
func appendSpans(out []span, workload string, r *recorder, logs [][]*batchLog) []span {
	root := len(out) + 1
	out = append(out, span{ID: root, Layer: "benchmark", Name: workload + "/" + r.layer})
	for d, calls := range r.spans {
		out[root-1].Dropped += r.dropped[d]
		next := map[int]int{} // target → first unassigned batch event
		for _, c := range calls {
			id := len(out) + 1
			out = append(out, span{
				ID: id, Parent: root, Layer: r.layer, Name: kindNames[c.kind], Driver: d,
				Wall0: c.wall0, Wall1: c.wall1, Virt0: c.before.clockPs, Virt1: c.now.clockPs,
				RTs: c.now.rts - c.before.rts, Verbs: c.now.verbs - c.before.verbs, Bytes: c.now.bytes - c.before.bytes,
			})
			if logs == nil {
				continue
			}
			evs := logs[d][c.target].events
			i := next[c.target]
			for ; i < len(evs) && evs[i].EndPs <= c.now.clockPs; i++ {
				if evs[i].StartPs < c.before.clockPs {
					continue // posted by an unkept earlier call
				}
				out = append(out, span{
					ID: len(out) + 1, Parent: id, Layer: "fabric", Name: evs[i].Stage.String(), Driver: d,
					Virt0: evs[i].StartPs, Virt1: evs[i].EndPs,
					RTs: evs[i].RoundTrips, Verbs: uint64(evs[i].Verbs), Bytes: evs[i].Bytes,
				})
			}
			next[c.target] = i
		}
	}
	return out
}

// writeTrace writes the spans of a traced run to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[\n", workload)
	enc := json.NewEncoder(w)
	for i := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
