// Hot-spot tolerance: hotness-driven read replication with
// contention-aware replica choice.
//
// Single-owner placement concentrates a Zipfian workload's head keys on
// one MN's NIC. This layer lets each CN promote the keys its HotSet
// tracker finds hot into R-way replicated placement: the key's value is
// republished as immutable versioned records — a routed instance of the
// record store of records.go — into dedicated per-MN hot tables on the
// key's first R ring successors. A promoted read then takes one round trip
// to a replica chosen by power-of-two-choices on the fabric's cached per-MN
// queued-wait signal, spreading the head of the distribution across NICs.
// That pays only where a NIC queues, so a key is promoted only while the
// same signal shows one NIC queueing out of proportion to the others; on a
// calm fabric the layer stays dormant (hotPromote).
//
// The read keeps the trust-but-verify shape of the leaf-address cache:
// the cached record address is only a hint, the record image is verified
// in place (status word, full key), and any mismatch refutes the route
// and falls back to the authoritative path. Staleness is prevented by the
// write path: a put or delete to a promoted key LWW-swaps (or removes)
// every matching record on the replica set before acknowledging, and
// retires the superseded image by overwriting its status word, so a
// reader holding the old address refutes instead of serving old data.
//
// Promotion closes the publish-vs-write race with a placeholder phase:
//
//	v0 := nextVersion()           // drawn before anything else
//	open the writers' gate        // Published() true from here on
//	publish Locked placeholders   // insert-if-absent; key now discoverable to writers
//	v1 := nextVersion()           // still before the read
//	value := authoritative read
//	swap records in at v1         // swap-only: absence aborts
//
// Any write committing after the promoter's read draws a version > v1
// (the counter is cluster-ordered) and finds a record to swap — the
// placeholder guarantees discoverability — so the promoter's value can
// never overwrite a fresher one, and a record the promoter replaces is
// always older than what it read. The swap-only final phase means a
// concurrent delete (which removes records before acking) simply makes
// the promotion fizzle. The gate ordering is load-bearing: writers skip
// the per-write replica probe while Published() is false, so the flag
// must be set before the first placeholder can be seen — were it set
// only after the promotion completed, a write committing between the
// placeholder publish and the promoter's read would skip the swap that
// outranks v1, and the promoter would bury the fresher value under a
// verified-servable stale record.
//
// Benign imperfections, all bounded by verification: duplicate records
// from racing promoters (deduplicated by the next swap), placeholders
// orphaned by a promoter error (swapped live by the next write, removed
// by the next delete or demotion, never readable — routes only learn
// Idle records), records orphaned by a sketch-slot steal (still
// write-refreshed via the tables; still correct to serve).
package core

import (
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// DefaultHotReplication is the replica factor hot keys are promoted to:
// the head of a Zipfian distribution spread over three NICs, which keeps
// the hottest key's share below the per-MN fair share for the cluster
// sizes the skew experiment runs.
const DefaultHotReplication = 3

// HotReplicas is the cluster-wide descriptor of the hot-replication
// layer, created by BootstrapHot and shared read-only (counters atomic)
// by every client. It is independent of the fault-tolerance layer: hot
// records are a performance cache of the tree, not a durability store.
type HotReplicas struct {
	// R is how many ring successors a promoted key is replicated onto: the
	// first R that host a hot table. No health filter — the set must be
	// deterministic so writers provably cover every record a reader could
	// reach; unreachable targets are handled by error policy (writers skip
	// only permanently killed nodes, whose records no reader can fetch
	// either).
	R int
	// records holds the per-MN hot-record tables and the version counter.
	// The table set is deliberately static: nodes added by elastic
	// scale-out simply do not host hot replicas, and targeting skips nodes
	// without tables.
	records *recordTables
	// Load is the shared per-MN contention snapshot cache driving the
	// power-of-two-choices replica pick.
	Load *fabric.LoadCache

	// published is nonzero once a hot record — including a promotion
	// placeholder — may be discoverable; writers skip the per-write
	// replica probe while it is still zero (nothing can be stale). Set
	// by hotPlacehold BEFORE the first insert, never after a promotion
	// completes: see the gate-ordering note in the package comment.
	published uint64
}

// Published reports whether any hot record may ever have been
// discoverable (records or placeholders, including since-removed ones).
func (hr *HotReplicas) Published() bool {
	return atomic.LoadUint64(&hr.published) != 0
}

// BootstrapHot adds the hot-replication layer to a bootstrapped cluster:
// one hot-record table per current memory node (sized for expectedHot
// promoted keys at replica factor r) plus the shared descriptor, stored
// in sh.Hot. r < 2 selects DefaultHotReplication; r is clamped to the
// node count. Call after Bootstrap/BootstrapReplicated, before clients
// are created.
func BootstrapHot(f *fabric.Fabric, sh *Shared, expectedHot, r int) error {
	if r < 2 {
		r = DefaultHotReplication
	}
	nodes := sh.Ring.Nodes()
	if r > len(nodes) {
		r = len(nodes)
	}
	if expectedHot < 1 {
		expectedHot = 1
	}
	tables, err := bootstrapTables(f, mem.NewAllocator(f.Regions(), 0), nodes, expectedHot*r/len(nodes)+1)
	if err != nil {
		return fmt.Errorf("core: bootstrap hot %w", err)
	}
	sh.Hot = &HotReplicas{R: r, records: newRecordTables(tables), Load: f.NewLoadCache(0)}
	return nil
}

// hotUnits converts a record image length to the route cache's 64-byte
// unit count; 0 (unroutable) when the record exceeds the 8-bit field.
func hotUnits(imgLen int) uint8 {
	u := (imgLen + 63) / 64
	if u > 255 {
		return 0
	}
	return uint8(u)
}

// hotRoutable reports whether a (key, value) pair still fits the route
// cache's 8-bit unit field once encoded as a record image (~16 KiB).
// Oversized pairs are excluded from the hot layer up front, at the
// hotTouch observation gate: promoting one would publish records no
// route can hold, so every promotion would end at routed=0, unclaim,
// and be retried as soon as the sketch re-crossed the threshold —
// steady candidate-lookup churn plus orphaned records, zero benefit.
func hotRoutable(key []byte, valLen int) bool {
	return hotUnits(recordDataOff+len(key)+valLen) != 0
}

// hotPlacehold publishes a Locked placeholder at version v0 on every
// target that holds nothing for the key yet, making the key discoverable
// to concurrent writers before the promoter's authoritative read. The legs it
// returns also say what the other targets hold already: it is the promoter's
// adoption probe too.
func (c *Client) hotPlacehold(targets []mem.NodeID, key []byte, v0 uint64) []leg {
	// Open the writers' probe gate before the first placeholder can become
	// discoverable: a put/delete committing between an insert below and
	// the promoter's authoritative read must see Published() true and run
	// the swap that outranks v1, or the promoter's pre-write value would
	// stick as a verified-servable stale record. Once the gate opened it
	// stays open even if this promotion fizzles — correctness over the
	// probe's cost.
	atomic.StoreUint64(&c.shared.Hot.published, 1)
	return c.hot.publish(targets, record{status: wire.StatusLocked, key: key, version: v0}, publishIfAbsent)
}

// hotAbandon removes the promoter's own placeholders (exact version v0,
// still Locked) after an aborted promotion. CAS-exact: a placeholder a
// writer already swapped live is left alone.
func (c *Client) hotAbandon(targets []mem.NodeID, key []byte, v0 uint64) {
	c.hot.remove(targets, key, func(h head) bool { return h.version == v0 && h.status == wire.StatusLocked })
}

// hotPromote publishes a hot key into R-way replicated placement. Best
// effort: any failure unclaims the key in the sketch so a later Observe
// retries; leftover placeholders are benign (see the package comment).
//
// Only while the fabric shows one NIC queueing out of proportion to the
// others (fabric.LoadCache.Skewed): a replica spreads reads over NICs, which
// pays only where one of them is the bottleneck, and on a calm fabric it
// would add nothing but the writes' fan-out. A declined key is unclaimed and
// nothing is posted, so Published() stays false until a promotion runs.
//
// Targets that already hold an Idle record for the key are ADOPTED, not
// republished: an Idle record was placed by a completed promotion or
// write refresh (publish-to-completion + LWW), so its image is at least
// as fresh as the last acknowledged write, and the placeholder fan-out —
// insert-if-absent, so it leaves such a record alone — reports its address
// at no extra cost. Republishing instead would retire the record every
// other CN has routes to, and with one independent promoter per CN the
// cluster would churn through refute → re-promote cycles — each CN's
// promotion invalidating everyone else's routes — instead of serving
// hot reads. The versioned swap below runs only against the targets that
// held nothing servable. A target whose leg failed — killed, or a transient —
// forgoes its rank: whatever the fault left there no route names.
func (c *Client) hotPromote(key []byte) {
	if !c.shared.Hot.Load.Skewed() {
		c.hotset.Unclaim(key)
		atomic.AddUint64(&c.stats.HotDeclined, 1)
		if c.rec != nil {
			c.rec.Note(fabric.StageHotPub, c.eng.C.Clock(), "hot promotion declined: no NIC queues out of proportion")
		}
		return
	}
	targets, _ := c.hot.targets(c.members.Current(), key, false)
	// Both versions are drawn before the read: any write committing after it
	// outranks v1, so our swap below can never bury a fresher value.
	v0 := c.hot.nextVersion()
	routed := 0
	fresh := targets[:0]
	freshRanks := make([]int, 0, len(targets))
	legs := c.hotPlacehold(targets, key, v0)
	for i := range legs {
		switch l := &legs[i]; {
		case l.err != nil:
		case !l.pub.servable:
			fresh = append(fresh, l.node)
			freshRanks = append(freshRanks, i)
		case c.hotLearn(i, key, l.pub.addr, l.pub.size):
			routed++
		}
	}
	if len(fresh) > 0 {
		v1 := c.hot.nextVersion()
		val, ok, err := c.searchTree(key)
		if err != nil {
			c.hotset.Unclaim(key)
			return
		}
		if !ok || !hotRoutable(key, len(val)) {
			// The key was deleted, or its value outgrew the routable bound
			// between the observation and this read: retract our
			// placeholders and stand down. For the oversized value the
			// hotTouch size gate keeps the key from being re-claimed, so
			// this is a terminal demotion, not a retry loop.
			c.hotAbandon(fresh, key, v0)
			c.hotset.Unclaim(key)
			return
		}
		legs := c.hot.publish(fresh, record{wire.StatusIdle, key, val, v1}, publishSwapOnly)
		for i := range legs {
			if pub := legs[i].pub; legs[i].err == nil && pub.servable && c.hotLearn(freshRanks[i], key, pub.addr, pub.size) {
				routed++
			}
		}
	}
	if routed == 0 {
		c.hotset.Unclaim(key)
		return
	}
	atomic.AddUint64(&c.stats.HotPromotes, 1)
}

// hotLearn records a servable record in the rank's route cache, reporting
// whether it fit (the rank exists and the image fits the unit field).
func (c *Client) hotLearn(rank int, key []byte, addr mem.Addr, size int) bool {
	units := hotUnits(size)
	if units == 0 || rank >= c.hotset.Ranks() {
		return false
	}
	c.hotset.Rank(rank).Learn(key, addr, units)
	return true
}

// hotBegin readies the hot layer's half of a write's acknowledgement
// (replicate) over the store's mid-transition target union and returns the
// store, armed, with how many leading targets come from the current ring. It
// begins after the tree commit, where the writers' gate is judged (see the
// gate ordering above), so it rides nothing. A put is republished swap-only at
// a version drawn here; a delete removes and retires every record.
func (c *Client) hotBegin(key, value []byte, remove bool) (*recordStore, int) {
	targets, curN := c.hot.targets(c.members.Current(), key, true)
	return c.hot.begin(targets, c.hot.writeOp(key, value, remove, publishSwapOnly)).arm(), curN
}

// hotSettle judges the hot layer's half once it ran. LWW-idempotent, so the
// caller's retry machinery can re-run the write. Killed targets are skipped —
// no reader can fetch their records; any other failure propagates so the
// write is not acknowledged with a stale replica readable.
func (c *Client) hotSettle(key []byte, curN int) error {
	legs := c.hot.legs
	if _, err := c.hot.reached(legs); err != nil {
		return err
	}
	refreshed := false
	for i := range legs {
		if pub := legs[i].pub; legs[i].err == nil && pub.servable {
			refreshed = true
			// The old record was just retired, so this CN's route to it is
			// stale; re-learn the fresh address in the same breath (rank =
			// position among the current ring's targets). Other CNs refute
			// once and re-promote — see hotGet.
			if c.hotset != nil && i < curN {
				c.hotLearn(i, key, pub.addr, pub.size)
			}
		}
	}
	if refreshed {
		atomic.AddUint64(&c.stats.HotRefreshes, 1)
	}
	c.noteReplicas(c.hot)
	return nil
}

// hotDemote tears down a cooled key: forget the routes, best-effort
// remove the records. Other CNs still tracking the key re-promote it
// (their reads refute the retired records and their sketches stay hot),
// which is churn, not wrongness.
func (c *Client) hotDemote(key []byte) {
	for i := 0; i < c.hotset.Ranks(); i++ {
		c.hotset.Rank(i).Unlearn(key)
	}
	_, _ = c.replicate(key, nil, true, false, true) // the hot records alone; best effort
	atomic.AddUint64(&c.stats.HotDemotes, 1)
}

// hotTouch feeds one served read into the tracker and runs whatever
// maintenance the observation triggered. Skipped in degraded mode (the
// hot layer is entirely off there — degraded writes land anchor-only and
// would leave records stale) and for values too large to route (see
// hotRoutable) — valLen is the length of the value the read served.
func (c *Client) hotTouch(key []byte, valLen int) {
	if c.hotset == nil || !hotRoutable(key, valLen) {
		return
	}
	switch c.hotset.Observe(key) {
	case HotPromoteNow:
		if c.degraded() {
			c.hotset.Unclaim(key)
			return
		}
		c.hotPromote(key)
	case HotDemoteNow:
		c.hotDemote(key)
	}
}

// hotReadRecord speculatively reads one replica record in a single round
// trip and settles it like every speculative access (specVerify, specSettle):
// only an Idle record storing exactly key is a hit; a refutation unlearns the
// route from the rank's cache it came from. No follow-up reads — the route
// cache learned the record's exact size, and records are immutable, so a size
// mismatch already proves staleness.
func (c *Client) hotReadRecord(routes *LeafCache, addr mem.Addr, units uint8, key []byte) ([]byte, specOutcome) {
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageHotRead))
	p := c.specHots(routes)
	size := min(uint64(units)*64, c.hot.room(addr))
	if size < recordDataOff {
		c.specSettle(p, key, addr, specRefute, "refuted: route past the region's end, unlearned")
		return nil, specRefute
	}
	buf := c.eng.ImageBuf(size)
	err := c.eng.C.Read(addr, buf)
	st, _, keyLen, valLen := decodeRecordWords(buf)
	valOff := recordDataOff + keyLen
	var recKey []byte
	if keyLen == len(key) && valOff+valLen <= len(buf) {
		recKey = buf[recordDataOff:valOff]
	}
	out, why := specVerify(key, err, true, st, recKey)
	c.specSettle(p, key, addr, out, why)
	if out != specHit {
		return nil, out
	}
	return append([]byte(nil), buf[valOff:valOff+valLen]...), specHit
}

// hotGet attempts the replicated 1-RT fast path: gather the key's routes
// from the rank caches, pick a starting replica by power-of-two-choices
// on the cached per-MN contention snapshot, and read-verify records until
// one serves or all refute. Aborts (transient faults) stop the attempt
// with routes kept. Only a verified hit is served.
func (c *Client) hotGet(key []byte) ([]byte, bool) {
	hs := c.hotset
	if hs == nil {
		return nil, false
	}
	hs.FlushRoutes(c.members.Current().Epoch)
	type route struct {
		rank  int
		addr  mem.Addr
		units uint8
	}
	var routes [8]route
	n := 0
	for i := 0; i < hs.Ranks() && n < len(routes); i++ {
		if a, u, ok := hs.Rank(i).Lookup(key); ok {
			routes[n] = route{i, a, u}
			n++
		}
	}
	if n == 0 {
		// Claimed but routeless: another CN's write retired the records
		// this CN's routes pointed at (each refutation unlearned one), or
		// an epoch flush dropped them. Rebuild by re-promoting — one
		// authoritative read plus the swap-only republish — so the hot
		// path recovers instead of staying dead until demotion. A failed
		// re-promotion unclaims, letting the sketch decide again.
		if hs.Claimed(key) && !c.degraded() {
			c.hotPromote(key)
		}
		return nil, false
	}
	start := 0
	if n >= 2 {
		// Two choices, one comparison against the tick-refreshed per-MN
		// queued-wait snapshot; ~zero cost, no extra round trips.
		x := int(hs.NextPick() % uint64(n))
		y := (x + 1) % n
		start = x
		if c.shared.Hot.Load.PickLighter(routes[x].addr.Node(), routes[y].addr.Node()) == routes[y].addr.Node() {
			start = y
		}
	}
	for k := 0; k < n; k++ {
		r := routes[(start+k)%n]
		// A refuted route falls to the next; an abort keeps its route and ends
		// the attempt.
		if val, out := c.hotReadRecord(hs.Rank(r.rank), r.addr, r.units, key); out != specRefute {
			return val, out == specHit
		}
	}
	return nil, false
}
