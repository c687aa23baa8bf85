package rart

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
)

// Cause says why an error is worth another attempt at the operation that
// met it (RetryCause).
type Cause uint8

// The causes. CauseNone is a terminal error.
const (
	CauseNone       Cause = iota
	CauseStructural       // a lost tree race: ErrRestart, ErrNeedParent
	CauseTransient        // a batch failed part-way: fabric.ErrTransient
	CauseTimeout          // a completion was lost: fabric.ErrTimeout
	CauseNodeDown         // a memory node rejected the batch: fabric.ErrNodeDown
)

// RetryCause is the one answer, for every system built on the engine, to "is
// this error worth another attempt": the sentinels above are, everything
// else — fabric.ErrClientCrashed, a spent budget whatever it last saw —
// is not. A permanently lost node (fabric.ErrNodeKilled, ErrBreakerOpen)
// still reads CauseNodeDown; whether waiting for it makes sense is its
// caller's call (Retry gives up at once, Sphinx fails over or retries).
func RetryCause(err error) Cause {
	switch {
	case err == nil, errors.Is(err, ErrRetriesExhausted):
		return CauseNone
	case errors.Is(err, ErrRestart), errors.Is(err, ErrNeedParent):
		return CauseStructural
	case errors.Is(err, fabric.ErrTransient):
		return CauseTransient
	case errors.Is(err, fabric.ErrTimeout):
		return CauseTimeout
	case errors.Is(err, fabric.ErrNodeDown):
		return CauseNodeDown
	}
	return CauseNone
}

// Retry is the operation-level retry loop of the systems that have no
// routing of their own to redo between attempts (the SMART and ART
// baselines): run attempt — locate a start node, make one engine call —
// until it succeeds or fails for good, charging the engine's backoff and
// counting EngineStats.Restarts for every attempt a RetryCause sends back.
// A killed node never comes back and ends the operation at once; a spent
// budget ends it with ErrRetriesExhausted naming op and key and wrapping what
// the last attempt saw. The operation begins here (Rewind): what the
// attempts read lives until the engine's next one.
func (e *Engine) Retry(op string, key []byte, attempt func() error) error {
	e.Rewind()
	for bo := e.Backoff(); ; {
		err := attempt()
		if RetryCause(err) == CauseNone || errors.Is(err, fabric.ErrNodeKilled) {
			return err
		}
		atomic.AddUint64(&e.stats.Restarts, 1)
		if !bo.Wait() {
			return fmt.Errorf("%w: %s for %q (last: %w)", ErrRetriesExhausted, op, key, err)
		}
	}
}
