package fabric

import "errors"

// Rider is a party whose verbs wait on no result of the client's own batches,
// so they go out behind them instead of in batches of their own: the paper's
// piggybacking (§IV), across two layers that do not know each other. A client
// holds one rider at a time (SetRider).
//
// Ride appends the verbs that go behind the caller's in the batch about to be
// posted — none, when the rider has nothing to post — and Rode reports what
// became of them: share is those verbs, results in place, and executed how
// many of them ran with their results standing — all of them, or the prefix
// before a transient cut; none after a lost completion (a timeout's results
// are not trusted), a rejection or a crash before the share. err is the
// batch's error. A share that did not fully execute is the rider's to post
// again; the rider stays registered. Neither callback may post a batch.
type Rider interface {
	Ride(ops []Op) []Op
	Rode(share []Op, executed int, err error)
}

// SetRider registers r as the client's rider (nil unregisters): from the next
// batch on, its verbs ride behind the caller's.
func (c *Client) SetRider(r Rider) { c.rider = r }

// ride posts ops with the rider's verbs behind them, as one doorbell batch,
// and gives the caller exactly its own outcome — results, error and Executed
// count — as if it had posted alone: a transient cut or a crash that fell in
// the rider's share is a success for the caller, whose verbs all ran; a batch
// refused before any verb ran by a node only the rider's verbs target is posted
// again without them, while one refused by a node of the caller's is the
// caller's rejection, as alone, costing what it would alone. A lost completion
// stays batch-wide. The clean path allocates nothing once the scratch has
// grown.
func (c *Client) ride(ops []Op) error {
	all := c.rider.Ride(append(c.rideOps[:0], ops...))
	c.rideOps = all[:0]
	if len(all) == len(ops) {
		return cut(c.exec(ops))
	}
	n, err := c.exec(all)
	for i := range ops {
		ops[i].Old = all[i].Old
	}
	ran := n - len(ops)
	if ran < 0 || errors.Is(err, ErrTimeout) {
		ran = 0
	}
	c.rider.Rode(all[len(ops):], ran, err)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTimeout):
		return err
	case n >= len(ops):
		return nil
	case n == 0 && refusedElsewhere(err, ops):
		return cut(c.exec(ops))
	}
	return cut(n, err)
}

// refusedElsewhere reports whether err is a batch refused by a node none of
// ops targets.
func refusedElsewhere(err error, ops []Op) bool {
	var r *rejectErr
	if !errors.As(err, &r) {
		return false
	}
	for i := range ops {
		if ops[i].Addr.Node() == r.node {
			return false
		}
	}
	return true
}
