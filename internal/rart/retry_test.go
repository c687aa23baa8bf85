package rart

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
)

// TestRetryDecisionTable walks the exported operation-level retry loop
// through every verdict it can reach. The fabric is instant, so the client's
// clock moves if and only if the backoff slept: one wait of the default
// policy is 125–250 ns of virtual time.
func TestRetryDecisionTable(t *testing.T) {
	boom := errors.New("boom")
	wrapped := func(err error) error { return fmt.Errorf("search: node 0:0x40: %w", err) }
	const oneWaitMinPs, oneWaitMaxPs = fabric.DefaultBackoffBasePs / 2, fabric.DefaultBackoffBasePs

	t.Run("done and terminal: one attempt, no wait", func(t *testing.T) {
		for _, first := range []error{nil, boom, fabric.ErrClientCrashed, wrapped(fabric.ErrNodeKilled),
			fmt.Errorf("%w: lock on 0:0x80", ErrRetriesExhausted)} {
			e, _ := testEngine(t, Config{})
			attempts := 0
			err := e.Retry("probe", []byte("k"), func() error { attempts++; return first })
			if err != first || attempts != 1 || e.C.Clock() != 0 || e.Stats().Restarts != 0 {
				t.Errorf("attempt answering %v: Retry = %v after %d attempts, clock %d, %d restarts; want it handed back at once",
					first, err, attempts, e.C.Clock(), e.Stats().Restarts)
			}
		}
	})

	t.Run("each retriable sentinel: one wait, one restart, then done", func(t *testing.T) {
		causes := map[error]Cause{
			ErrRestart: CauseStructural, ErrNeedParent: CauseStructural,
			fabric.ErrTransient: CauseTransient, fabric.ErrTimeout: CauseTimeout,
			fabric.ErrNodeDown: CauseNodeDown, fabric.ErrBreakerOpen: CauseNodeDown,
		}
		for sentinel, cause := range causes {
			first := wrapped(sentinel)
			if got := RetryCause(first); got != cause {
				t.Errorf("RetryCause(%v) = %d, want %d", first, got, cause)
			}
			e, _ := testEngine(t, Config{})
			attempts := 0
			err := e.Retry("probe", []byte("k"), func() error {
				if attempts++; attempts == 1 {
					return first
				}
				return nil
			})
			if waited := e.C.Clock(); err != nil || attempts != 2 || e.Stats().Restarts != 1 || waited < oneWaitMinPs || waited > oneWaitMaxPs {
				t.Errorf("%v then success: Retry = %v after %d attempts, %d restarts, %d ps waited; want nil, 2, 1 and one wait",
					first, err, attempts, e.Stats().Restarts, waited)
			}
		}
	})

	t.Run("budget spent: ErrRetriesExhausted naming op and key, wrapping the last error", func(t *testing.T) {
		e, _ := testEngine(t, Config{Backoff: fabric.BackoffPolicy{Budget: 3}})
		attempts := 0
		err := e.Retry("probe", []byte("k"), func() error { attempts++; return wrapped(fabric.ErrTransient) })
		if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, fabric.ErrTransient) || attempts != 4 {
			t.Fatalf("Retry = %v after %d attempts; want the budget of 3 waits spent on 4 attempts", err, attempts)
		}
		if want := `rart: retries exhausted: probe for "k"`; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("error %q does not start %q", err, want)
		}
		if got := RetryCause(err); got != CauseNone {
			t.Errorf("RetryCause of a spent budget = %d: a layer above would retry what this one gave up on", got)
		}
	})
}
