package fabric

import (
	"runtime"
	"time"
)

// BackoffPolicy is the shared capped-exponential-backoff-with-jitter used
// by every retry loop in the client stack (lock acquisition, torn-leaf
// re-reads, operation-level restarts). Waits are virtual — they advance
// the client's clock — and jitter comes from the client's deterministic
// stream, so a retry schedule is reproducible for a given fault-plan seed.
type BackoffPolicy struct {
	// BasePs is the first wait. Defaults to 250 ns.
	BasePs int64
	// CapPs bounds a single wait. Defaults to 16 µs (8 RTTs).
	CapPs int64
	// Budget is the number of waits before the loop gives up and the
	// operation fails with a retries-exhausted error. Defaults to 256.
	Budget int
}

// Default backoff parameters (virtual time).
const (
	DefaultBackoffBasePs = 250_000
	DefaultBackoffCapPs  = 16_000_000
	DefaultBackoffBudget = 256
)

func (p BackoffPolicy) basePs() int64 {
	if p.BasePs <= 0 {
		return DefaultBackoffBasePs
	}
	return p.BasePs
}

func (p BackoffPolicy) capPs() int64 {
	if p.CapPs <= 0 {
		return DefaultBackoffCapPs
	}
	return p.CapPs
}

func (p BackoffPolicy) budget() int {
	if p.Budget <= 0 {
		return DefaultBackoffBudget
	}
	return p.Budget
}

// Start begins one retry sequence for the given client.
func (p BackoffPolicy) Start(c *Client) *Backoff {
	return &Backoff{pol: p, c: c}
}

// Backoff is the state of one retry sequence.
type Backoff struct {
	pol      BackoffPolicy
	c        *Client
	attempts int
}

// Wait blocks (virtually) before the next retry: an exponentially growing,
// capped, jittered pause on the client's clock. It returns false once the
// retry budget is exhausted, in which case the caller must give up.
func (b *Backoff) Wait() bool { return b.wait(false) }

// WaitHolder is Wait for a waiter on a lock whose holder lives: nobody takes
// such a lock over, so the waiter must outlast the time the host keeps the
// holder off the CPU — under the race detector, beside other processes, tens
// of milliseconds. The virtual wait is Wait's; only the host park differs,
// growing 20 µs a poll up to 2 ms, so a whole budget is about half a second
// of wall time. Under a schedule (Fabric.Scheduled) the holder runs only when
// the schedule picks it, so no wait parks the host there.
func (b *Backoff) WaitHolder() bool { return b.wait(true) }

func (b *Backoff) wait(holder bool) bool {
	if b.attempts >= b.pol.budget() {
		return false
	}
	step, cap := b.pol.basePs()<<min(b.attempts, 20), b.pol.capPs()
	if b.attempts >= 20 || step > cap || step <= 0 {
		step = cap
	}
	// Full jitter over [step/2, step]: desynchronizes competing clients
	// while keeping each client's schedule deterministic.
	wait := step/2 + int64(b.c.Rand64()%uint64(step/2+1))
	b.c.AdvanceClock(wait)
	switch park := time.Duration(b.attempts-yieldSpins+1) * 20 * time.Microsecond; {
	case b.c.f.Scheduled:
	case holder && park > 0:
		time.Sleep(min(park, 2*time.Millisecond))
	default:
		Yield(b.attempts)
	}
	b.attempts++
	return true
}

// yieldSpins is how many polls of one wait merely yield the processor
// before they start parking.
const yieldSpins = 8

// Yield hands the host CPU to whichever goroutine the caller is waiting
// for (a lock holder, a publisher mid-protocol, a segment split); attempt
// counts the caller's polls so far. All waiting in the client stack is on
// virtual clocks, so this only matters to the Go scheduler: the first polls
// yield, later ones park for a moment. A waiter that merely yields stays
// runnable and keeps its P busy, and Go moves a goroutine queued behind a
// busy, never-yielding worker on another P only to an idle P — so a
// spinning waiter can burn its whole retry budget while the goroutine it
// waits for never runs.
func Yield(attempt int) {
	if attempt < yieldSpins {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}
