// Fault injection: a deterministic, seeded fault model the fabric consults
// on every doorbell batch, so the client stack's retry and recovery paths
// can be exercised reproducibly (docs/failure-model.md).
//
// Faults are decided per client from a private splitmix64 stream seeded by
// (plan seed, client ID), so the fault sequence one client observes depends
// only on the plan and on that client's own batch sequence — never on
// goroutine scheduling. The same seed therefore yields the same fault
// sequence, and for a single-threaded workload the same final index state.
// A fault a test aims at one verb of one client (Client.FailAt) lands there
// by construction and leaves the seeded stream as it was.
package fabric

import (
	"errors"
	"fmt"

	"sphinx/internal/mem"
)

// Typed fault errors. ErrTransient, ErrTimeout and ErrNodeDown are
// retriable: higher layers back off and redo the operation. ErrClientCrashed
// is terminal: the client is dead and every subsequent verb fails.
var (
	// ErrTransient is a verb that the NIC completed with an error (RNR
	// NAK, ECC hiccup, dropped ACK on a reliable QP after retries). Verbs
	// posted before the failing one in the same batch have executed and
	// their results stand (READ destinations filled, CAS/FAA pre-images in
	// Op.Old); the failing verb and everything after it have not. Executed
	// says how many ran.
	ErrTransient = errors.New("fabric: transient verb failure")
	// ErrTimeout is a lost completion: the batch executed on the memory
	// node, but the client never saw the CQE. The client's clock advances
	// by the timeout before it gives up — the outcome is in doubt.
	ErrTimeout = errors.New("fabric: completion timed out")
	// ErrNodeDown is returned for any verb targeting a memory node inside
	// one of the plan's down windows. Nothing executes.
	ErrNodeDown = errors.New("fabric: memory node down")
	// ErrClientCrashed is returned once a client crashed (an aimed crash,
	// Client.FailAt) and forever after: the compute node died
	// mid-operation.
	ErrClientCrashed = errors.New("fabric: client crashed")
)

// ErrNodeKilled is returned for any verb targeting a permanently killed
// memory node (Fabric.KillNode). It wraps ErrNodeDown so existing
// retriable-error classification still matches, but replica-aware layers
// match ErrNodeKilled specifically to fail over in one decision instead of
// burning a retry budget on a node that will never come back.
var ErrNodeKilled = fmt.Errorf("fabric: memory node killed (permanent): %w", ErrNodeDown)

// ErrBreakerOpen is returned for a batch rejected locally because the
// target node's health breaker is open (gating enabled, node suspected
// down but not known dead). It wraps ErrNodeDown for retriable-error
// classification; replica-aware layers match it to fail over immediately
// instead of sleeping out a backoff schedule against a suspect node.
var ErrBreakerOpen = fmt.Errorf("fabric: health breaker open: %w", ErrNodeDown)

// DownWindow marks one memory node unreachable for a window of virtual
// time. The window is judged against the observing client's clock, keeping
// the decision deterministic per client.
type DownWindow struct {
	Node   mem.NodeID
	FromPs int64
	ToPs   int64
}

// FaultPlan is a seeded, reproducible fault schedule: the probabilistic
// faults and the node-down windows every client of the fabric observes.
// Probabilities are per doorbell batch, in parts per 65536, decided from the
// per-client stream in a fixed order (transient, timeout, delay) so outcomes
// never depend on which roll fired first. The zero plan injects nothing.
//
// Install a plan with Fabric.SetFaultPlan before creating clients. A fault at
// one chosen verb is no plan's: it is aimed at a client (Client.FailAt).
type FaultPlan struct {
	Seed uint64

	// TransientPer64k is the chance (out of 65536) that a batch fails
	// with ErrTransient after a prefix of its verbs executed.
	TransientPer64k uint32
	// TimeoutPer64k is the chance that a batch executes fully but its
	// completion is lost (ErrTimeout).
	TimeoutPer64k uint32
	// TimeoutPs is how much the client's clock advances waiting for a
	// lost completion. Defaults to DefaultTimeoutPs.
	TimeoutPs int64
	// DelayPer64k is the chance of a latency spike: the batch succeeds
	// but completes DelayPs late.
	DelayPer64k uint32
	// DelayPs is the extra completion latency of a spike. Defaults to
	// DefaultDelayPs.
	DelayPs int64

	// Down lists node-down windows.
	Down []DownWindow
}

// Default fault timing parameters (virtual time).
const (
	DefaultTimeoutPs = 8_000_000  // 8 µs: ~4 RTTs of waiting before giving up
	DefaultDelayPs   = 20_000_000 // 20 µs spike, an order above the base RTT
)

// timeoutPs is also the wait of an aimed timeout, with or without a plan.
func (p *FaultPlan) timeoutPs() int64 {
	if p == nil || p.TimeoutPs <= 0 {
		return DefaultTimeoutPs
	}
	return p.TimeoutPs
}

func (p *FaultPlan) delayPs() int64 {
	if p.DelayPs <= 0 {
		return DefaultDelayPs
	}
	return p.DelayPs
}

// downNode returns the down window covering (node, nowPs), if any.
func (p *FaultPlan) downNode(node mem.NodeID, nowPs int64) (DownWindow, bool) {
	for _, w := range p.Down {
		if w.Node == node && nowPs >= w.FromPs && nowPs < w.ToPs {
			return w, true
		}
	}
	return DownWindow{}, false
}

// splitmix64 is the per-client deterministic fault/jitter stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// mix64 scrambles a seed; used to derive per-client streams.
func mix64(v uint64) uint64 {
	s := v
	return splitmix64(&s)
}

// faultErr wraps a typed fault error with batch context.
func faultErr(base error, format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), base)
}

// rejectErr is an ErrNodeDown that names the node which refused the batch —
// down, killed or behind an open breaker — before any of its verbs ran.
type rejectErr struct {
	error
	node mem.NodeID
}

func (r *rejectErr) Unwrap() error { return r.error }

// reject is faultErr for a batch that node refused before any verb ran.
func reject(node mem.NodeID, base error, format string, args ...any) error {
	return &rejectErr{faultErr(base, format, args...), node}
}

// cutErr is an ErrTransient or ErrClientCrashed that names the prefix of the
// batch it cut: the first executed verbs ran, their results stand, the rest
// did not.
type cutErr struct {
	error
	executed int
}

func (c *cutErr) Unwrap() error { return c.error }

// cut attaches to a batch's error how many of its leading verbs executed, for
// the faults that cut a batch: a transient, whose executed prefix a poster
// can build on, and a crash, which ends the client behind it (a down node or
// an open breaker executed nothing, a lost completion all of it unseen).
func cut(executed int, err error) error {
	if executed <= 0 || !errors.Is(err, ErrTransient) && !errors.Is(err, ErrClientCrashed) {
		return err
	}
	return &cutErr{err, executed}
}

// Executed returns how many leading verbs of a batch that failed with err
// executed, with their results standing (ErrTransient's contract; a crash
// names its prefix too): a batch that must still take effect is issued again
// from the first verb it did not execute, never again from the top — a verb
// already executed may have been overtaken since by another client's write.
// 0 for any other error.
func Executed(err error) int {
	if err == nil {
		return 0 // checked first: the target below escapes, the clean path allocates nothing
	}
	var c *cutErr
	if errors.As(err, &c) {
		return c.executed
	}
	return 0
}
