package wire

// Lease word: the node-grained write lock (docs/failure-model.md). A zero
// word means unlocked. A non-zero word records who holds the lock and a
// stamp of the holder's virtual clock at acquisition:
//
//	bits  0..47  stamp: holder's clock at acquisition, in ps (truncated)
//	bits 48..63  owner: holder's client ID + 1 (so a held lease is never 0)
//
// The lock is acquired and released with RDMA CAS on this word. It changes
// hands without its holder's release only when the owner it names crashed
// (fabric.Fabric.ClientCrashed): a waiter then CASes the word from the
// observed value to its own. The CAS-on-exact-value protocol means at most
// one waiter wins, and a competing takeover in the meantime makes the stale
// one fail harmlessly.
//
// The stamp is not an expiry: no waiter reads time into it. It only tells
// one acquisition from the next (two acquisitions by one client virtually
// never carry the same clock), so a release expecting the exact word cannot
// free a later acquisition's lock.
const (
	LeaseStampBits = 48
	leaseStampMask = 1<<LeaseStampBits - 1
)

// EncodeLease packs a held lease word for the given owner and stamp.
func EncodeLease(owner uint16, stampPs int64) uint64 {
	return uint64(owner+1)<<LeaseStampBits | uint64(stampPs)&leaseStampMask
}

// DecodeLease unpacks a lease word. held is false for the zero (unlocked)
// word, in which case owner and stamp are meaningless.
func DecodeLease(w uint64) (owner uint16, stampPs int64, held bool) {
	if w == 0 {
		return 0, 0, false
	}
	return uint16(w>>LeaseStampBits) - 1, int64(w & leaseStampMask), true
}

// LeaseOwnedBy reports whether w is a held lease belonging to owner.
func LeaseOwnedBy(w uint64, owner uint16) bool {
	o, _, held := DecodeLease(w)
	return held && o == owner
}
