package core

import (
	"errors"
	"fmt"

	"sphinx/internal/fabric"
	"sphinx/internal/rart"
)

// Typed terminal errors. Operations that give up return one of these
// sentinels wrapped with the operation name and key, so callers can match
// with errors.Is and still see what failed.
var (
	// ErrRetriesExhausted is returned when an operation burned its whole
	// retry budget without completing. It is the same sentinel the node
	// engine uses for lock and read retries, so errors.Is matches
	// exhaustion anywhere in the stack.
	ErrRetriesExhausted = rart.ErrRetriesExhausted

	// ErrNodeUnavailable is returned instead of ErrRetriesExhausted when
	// the budget ran out while a memory node was rejecting every attempt
	// (a fault plan's down window outlasted the backoff schedule).
	ErrNodeUnavailable = errors.New("core: memory node unavailable")

	// ErrInvalidScan reports a malformed Scan range before any round trip
	// is paid.
	ErrInvalidScan = errors.New("core: invalid scan range")

	// ErrReplicaSetUnavailable is the typed terminal error of the
	// fault-tolerance layer: every replica of a key's anchor set is
	// unreachable, so the operation cannot be served (or acknowledged) even
	// degraded. It means more simultaneous MN losses than the replication
	// factor tolerates.
	ErrReplicaSetUnavailable = errors.New("core: replica set unavailable")

	// ErrValueTooLarge is returned by a write whose leaf would exceed
	// wire.MaxLeafUnits, before any round trip is paid: nothing is written.
	ErrValueTooLarge = rart.ErrValueTooLarge
)

// exhausted builds the terminal error for an operation that ran out of
// retries, picking the sentinel by what the operation last saw.
func exhausted(op string, key []byte, last error) error {
	base := ErrRetriesExhausted
	if errors.Is(last, fabric.ErrNodeDown) {
		base = ErrNodeUnavailable
	}
	return fmt.Errorf("%w: %s for %q (last: %v)", base, op, key, last)
}
