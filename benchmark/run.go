package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sphinx"
)

// target is what a driver issues operations to: a Session (the public API,
// used for every end-to-end number) or, one rung down the ladder, a
// core.Client. The loop, its checks and its clock reads are the same on both
// rungs, so their difference is the layer between them.
type target interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, value []byte) error
	Update(key, value []byte) (bool, error)
	// Scan runs Scan(lo, nil, limit) and keeps the result for scanOK, so the
	// check stays outside the timed call.
	Scan(lo []byte, limit int) error
	scanOK(lo []byte, limit, valueSize int) bool
	// counters reads the target's network accounting: virtual clock, round
	// trips, verbs and bytes moved so far.
	counters() net
}

type net struct {
	clockPs           int64
	rts, verbs, bytes uint64
}

type sessionTarget struct {
	s    *sphinx.Session
	last []sphinx.KV
}

func (t *sessionTarget) Get(key []byte) ([]byte, bool, error)   { return t.s.Get(key) }
func (t *sessionTarget) Put(key, value []byte) error            { return t.s.Put(key, value) }
func (t *sessionTarget) Update(key, value []byte) (bool, error) { return t.s.Update(key, value) }
func (t *sessionTarget) Scan(lo []byte, limit int) (err error) {
	t.last, err = t.s.Scan(lo, nil, limit)
	return err
}
func (t *sessionTarget) scanOK(lo []byte, limit, valueSize int) bool {
	return checkScan(t.last, lo, limit, valueSize)
}
func (t *sessionTarget) counters() net {
	st := t.s.Stats()
	return net{st.ClockPs, st.RoundTrips, st.Verbs, st.BytesRead + st.BytesWritten}
}

// env is one set-up workload: inputs, the drivers' targets on a populated
// cluster, and the ledger of their writes.
type env struct {
	sp      *spec
	seed    int64
	drivers int
	ks      keySet // loaded keys first, then the fresh keys of the Puts
	loaded  int
	streams [][]uint32
	hash    uint64
	targets [][]target // [driver][session]
	led     *ledger

	attempted, failed uint64 // set-up operations and their failures
}

type sessionStack struct {
	cl  *sphinx.Cluster
	cns []*sphinx.ComputeNode
	ss  []*sphinx.Session
}

// sizes fixes a run's counts from its arguments.
type sizes struct {
	seconds int
	scale   float64 // multiplies key and op counts; 1 except in the self-tests
	drivers int
	setups  int // times an untraced run sets the workload up; setupRuns except in the self-tests
}

func (z sizes) scaled(n int, floor int) int {
	v := int(float64(n) * z.scale)
	if v < floor {
		v = floor
	}
	return v
}

// driverMixes gives each driver its operation shares. Inserts never race
// inserts: all Puts of a workload are issued by driver 0, whose stream takes
// the other drivers' share of Puts and gives them its share of Gets (see
// README: concurrent inserts lose keys on this commit). The workload's
// overall mix is unchanged. Driver 0 must have the Gets to give: main admits
// at most maxDrivers drivers.
func driverMixes(m mix, drivers int) []mix {
	mixes := make([]mix, drivers)
	for d := range mixes {
		mixes[d] = m
		if d > 0 {
			mixes[d].get, mixes[d].put = m.get+m.put, 0
			mixes[0].get, mixes[0].put = mixes[0].get-m.put, mixes[0].put+m.put
		}
	}
	return mixes
}

// buildInputs generates keys and per-driver op streams: everything the
// program under test will receive, as a function of the seed alone.
func buildInputs(sp *spec, seed int64, z sizes) *env {
	e := &env{sp: sp, seed: seed, drivers: z.drivers}
	if sp.oneDriver {
		e.drivers = 1
	}
	perDriver := z.scaled(sp.opsPerSecond*z.seconds, 100*e.drivers) / e.drivers
	if sp.loadKeys > 0 {
		e.loaded = z.scaled(sp.loadKeys, 64)
	}
	mixes := driverMixes(sp.mix, e.drivers)
	var fresh []uint32
	if put := mixes[0].put; put == 100 {
		fresh = make([]uint32, perDriver)
	} else if put > 0 {
		// 10 % above the expected Put count, so the pool never runs dry.
		fresh = make([]uint32, perDriver*put/100*11/10+64)
	}
	for i := range fresh {
		fresh[i] = uint32(e.loaded + i)
	}
	e.ks = genKeys(e.loaded+len(fresh), uint64(seed))
	var zf *zipf
	if sp.theta > 0 {
		zf = newZipf(e.loaded, sp.theta)
	}
	e.streams = make([][]uint32, e.drivers)
	for d := range e.streams {
		r := newRNG(uint64(seed)<<8 + uint64(d) + 1)
		e.streams[d] = genStream(perDriver, mixes[d], e.loaded, zf, fresh, d, e.drivers, r)
		fresh = nil
	}
	e.hash = streamHash(e.ks, e.streams)
	e.led = newLedger(e.drivers, len(e.ks.keys), e.loaded)
	return e
}

// setupSession builds the workload on the public API: inputs, cluster,
// compute nodes, sessions, population and warm pass.
func setupSession(sp *spec, seed int64, z sizes) (*env, *sessionStack, error) {
	e := buildInputs(sp, seed, z)
	cl, err := sphinx.NewCluster(sp.config(len(e.ks.keys), seed))
	if err != nil {
		return nil, nil, err
	}
	st := &sessionStack{cl: cl}
	for i := 0; i < sp.cns; i++ {
		st.cns = append(st.cns, cl.NewComputeNode())
	}
	e.targets = make([][]target, e.drivers)
	for d := range e.targets {
		for i := 0; i < sp.sessions; i++ {
			s := st.cns[d%sp.cns].NewSession()
			st.ss = append(st.ss, s)
			e.targets[d] = append(e.targets[d], &sessionTarget{s: s})
		}
	}
	e.populate()
	return e, st, nil
}

// populate loads the keys and warms the caches from ONE goroutine, taking
// the targets round-robin: a concurrent load of this index loses keys on
// this commit (see README), and spreading the load over all sessions leaves
// their virtual clocks level when the measured phase starts.
func (e *env) populate() {
	var all []target
	for _, ts := range e.targets {
		all = append(all, ts...)
	}
	val := make([]byte, e.sp.valueSize)
	for i := 0; i < e.loaded; i++ {
		fillValue(val, e.ks.hashes[i], loaderID, 1)
		e.attempted++
		if err := all[i%len(all)].Put(e.ks.keys[i], val); err != nil {
			e.failed++
		}
	}
	if !e.sp.warmPass {
		return
	}
	// One full pass per compute node, over that node's sessions.
	for cn := 0; cn < e.sp.cns; cn++ {
		var ts []target
		for d := cn; d < e.drivers; d += e.sp.cns {
			ts = append(ts, e.targets[d]...)
		}
		if len(ts) == 0 {
			continue
		}
		for i := 0; i < e.loaded; i++ {
			e.attempted++
			v, ok, err := ts[i%len(ts)].Get(e.ks.keys[i])
			if _, _, intact := checkValue(v, e.ks.hashes[i], e.sp.valueSize); err != nil || !ok || !intact {
				e.failed++
			}
		}
	}
}

// verify is the unmeasured read-back after a workload: every live key must
// return a last acked write. Reads are safe to spread over the drivers.
func (e *env) verify() (checked, bad uint64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	n := len(e.ks.keys)
	for d := 0; d < e.drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			c, b, notes := e.led.readBack(e.ks, n*d/e.drivers, n*(d+1)/e.drivers, e.sp.valueSize, e.targets[d][0].Get)
			mu.Lock()
			checked, bad = checked+c, bad+b
			for _, note := range notes {
				fmt.Fprintln(os.Stderr, "benchmark: failed:", note)
			}
			mu.Unlock()
		}(d)
	}
	wg.Wait()
	return checked, bad
}

// liveKeys counts the keys the index must hold now.
func (e *env) liveKeys() int {
	n := 0
	for i := range e.ks.keys {
		if e.led.live(i) {
			n++
		}
	}
	return n
}

const slices = 5

// An operation that returns an error is issued again after a pause, up to
// maxAttempts times in all, so that one timed-out call does not wedge the
// operations behind it; it counts as failed only if the last attempt fails. A
// wrong result fails at once. Every repeat is counted: reissued_op_share is
// where an index that times out more often shows, and compare calls any rise
// of it worse.
const (
	maxAttempts  = 3
	reissuePause = time.Millisecond
)

// maxNotes is how many failures per driver and phase are described on
// standard error; all of them are counted.
const maxNotes = 3

// driver is one load goroutine's state for one phase.
type driver struct {
	id      int
	e       *env
	targets []target
	last    []net // per target, counters after its previous op

	failed   uint64
	reissued uint64     // calls repeated after an error (see maxAttempts)
	notes    []string   // the first failures, described
	virt     hist       // per-op virtual latency, ps
	rts      [64]uint64 // per-op round trips (last bucket: ≥ 63)
	cut      [slices + 1]time.Time

	// Traced phases only.
	rec     *recorder
	wall    [numKinds]*hist // per-op wall latency by kind, ns
	wallAll *hist
}

// run issues ops[from:to] of the driver's stream. seq numbers continue
// across phases so every write of a run is distinct.
func (d *driver) run(from, to int) {
	e := d.e
	ops := e.streams[d.id][from:to]
	val := make([]byte, e.sp.valueSize)
	acked := e.led.acked[d.id]
	size := e.sp.valueSize
	for i := range d.targets {
		d.last[i] = d.targets[i].counters()
	}
	n := len(ops)
	nextCut, cutAt := 1, n/slices
	ti := 0
	traced := d.rec != nil
	var t0, t1 time.Time
	d.cut[0] = time.Now()
	for i, op := range ops {
		t := d.targets[ti]
		kind := int(op >> kindShift)
		ki := int(op & keyMask)
		key := e.ks.keys[ki]
		seq := uint32(from + i + 1)
		if kind == opUpdate || kind == opPut {
			fillValue(val, e.ks.hashes[ki], uint8(d.id), uint64(seq))
		}
		var v []byte
		var found bool
		var err error
		if traced {
			t0 = time.Now()
		}
		for attempt := 1; ; attempt++ {
			found = true
			switch kind {
			case opGet:
				v, found, err = t.Get(key)
			case opUpdate:
				found, err = t.Update(key, val)
			case opPut:
				err = t.Put(key, val)
			case opScan:
				err = t.Scan(key, scanLimit)
			}
			if err == nil || attempt == maxAttempts {
				break
			}
			// A closed-loop client that is told "retries exhausted" backs
			// off and asks again. The index spends its retry budget in
			// virtual time, so a lock holder the host has descheduled for a
			// few ms looks dead to it; a real pause lets the holder finish.
			d.reissued++
			time.Sleep(reissuePause)
		}
		if traced {
			t1 = time.Now()
		}
		now := t.counters()
		if traced {
			ns := t1.Sub(t0).Nanoseconds()
			d.wall[kind].add(ns)
			d.wallAll.add(ns)
			d.rec.op(d.id, ti, kind, t0, t1, d.last[ti], now)
		}
		ok := err == nil && found
		switch {
		case !ok:
		case kind == opGet:
			_, _, ok = checkValue(v, e.ks.hashes[ki], size)
		case kind == opScan:
			ok = t.scanOK(key, scanLimit, size)
		default:
			acked[ki] = seq
		}
		if !ok {
			if d.failed++; d.failed <= maxNotes {
				d.notes = append(d.notes, fmt.Sprintf("driver %d op %d: %s %q: found %v, err %v", d.id, from+i, kindNames[kind], key, found, err))
			}
		}
		d.virt.add(now.clockPs - d.last[ti].clockPs)
		rt := now.rts - d.last[ti].rts
		if rt >= uint64(len(d.rts)) {
			rt = uint64(len(d.rts)) - 1
		}
		d.rts[rt]++
		d.last[ti] = now
		if ti++; ti == len(d.targets) {
			ti = 0
		}
		if i+1 == cutAt {
			d.cut[nextCut] = time.Now()
			nextCut++
			cutAt = n * nextCut / slices
		}
	}
	for ; nextCut <= slices; nextCut++ { // n < slices: degenerate tiny runs
		d.cut[nextCut] = time.Now()
	}
}

// phase is the outcome of one measured phase, all drivers together.
type phase struct {
	ops, failed uint64
	reissued    uint64
	elapsed     time.Duration // start barrier to last driver done
	driverNs    float64       // Σ over drivers of first op issued to last op done
	sliceKops   []float64     // rate of each fifth of the phase, all drivers together
	virtMaxPs   int64         // largest virtual clock advance of any session
	virt        *hist
	rts         [64]uint64
	net         net // summed deltas of every target
	mallocs     uint64
	allocBytes  uint64
	wall        [numKinds]*hist
	wallAll     *hist
}

// runPhase runs ops [from, to) of every driver's stream concurrently behind a
// start barrier. With rec set, every call is timed and recorded as a span.
func (e *env) runPhase(from, to int, rec *recorder) *phase {
	ds := make([]*driver, e.drivers)
	for i := range ds {
		ds[i] = &driver{id: i, e: e, targets: e.targets[i], last: make([]net, len(e.targets[i])), rec: rec}
		if rec != nil {
			for k := range ds[i].wall {
				ds[i].wall[k] = new(hist)
			}
			ds[i].wallAll = new(hist)
		}
	}
	before := make([][]net, e.drivers)
	for d, ts := range e.targets {
		for _, t := range ts {
			before[d] = append(before[d], t.counters())
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			<-start
			d.run(from, to)
		}(d)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	p := &phase{elapsed: time.Since(t0), virt: new(hist)}
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if rec != nil {
		for k := range p.wall {
			p.wall[k] = new(hist)
		}
		p.wallAll = new(hist)
	}
	var rates [slices]float64
	for _, d := range ds {
		n := to - from
		p.ops += uint64(n)
		p.failed += d.failed
		p.reissued += d.reissued
		for _, note := range d.notes {
			fmt.Fprintln(os.Stderr, "benchmark: failed:", note)
		}
		p.virt.merge(&d.virt)
		for i, c := range d.rts {
			p.rts[i] += c
		}
		p.driverNs += float64(d.cut[slices].Sub(d.cut[0]).Nanoseconds())
		for k := 0; k < slices; k++ {
			if dt := d.cut[k+1].Sub(d.cut[k]).Seconds(); dt > 0 {
				rates[k] += float64(n*(k+1)/slices-n*k/slices) / dt / 1e3
			}
		}
		if rec != nil {
			for k := range p.wall {
				p.wall[k].merge(d.wall[k])
			}
			p.wallAll.merge(d.wallAll)
		}
		for i, t := range d.targets {
			now, was := t.counters(), before[d.id][i]
			if adv := now.clockPs - was.clockPs; adv > p.virtMaxPs {
				p.virtMaxPs = adv
			}
			p.net.rts += now.rts - was.rts
			p.net.verbs += now.verbs - was.verbs
			p.net.bytes += now.bytes - was.bytes
		}
	}
	p.sliceKops = rates[:]
	return p
}

// tputKops is the phase's throughput: its median slice rate.
func (p *phase) tputKops() float64 { return median(p.sliceKops) }

// add folds a later phase of the same kind into p.
func (p *phase) add(q *phase) {
	p.ops, p.failed, p.reissued = p.ops+q.ops, p.failed+q.failed, p.reissued+q.reissued
	p.elapsed, p.driverNs, p.virtMaxPs = p.elapsed+q.elapsed, p.driverNs+q.driverNs, p.virtMaxPs+q.virtMaxPs
	p.sliceKops = append(p.sliceKops, q.sliceKops...)
	p.virt.merge(q.virt)
	for i, c := range q.rts {
		p.rts[i] += c
	}
	p.net.rts, p.net.verbs, p.net.bytes = p.net.rts+q.net.rts, p.net.verbs+q.net.verbs, p.net.bytes+q.net.bytes
	p.mallocs, p.allocBytes = p.mallocs+q.mallocs, p.allocBytes+q.allocBytes
	if p.wallAll != nil {
		for k := range p.wall {
			p.wall[k].merge(q.wall[k])
		}
		p.wallAll.merge(q.wallAll)
	}
}

// runAlternating runs the first 2n ops of every stream as four phases of
// n/2: traced, untraced, traced, untraced. Alternating keeps whatever drifts
// along a run (tree growth, heap size, NIC timeline size) out of the
// comparison of the two halves.
func (e *env) runAlternating(n int, rec *recorder) (traced, untraced *phase) {
	h := n / 2
	traced = e.runPhase(0, h, rec)
	untraced = e.runPhase(h, 2*h, nil)
	traced.add(e.runPhase(2*h, 3*h, rec))
	untraced.add(e.runPhase(3*h, 4*h, nil))
	return traced, untraced
}

// rtQuantile returns the per-op round-trip count at quantile q.
func (p *phase) rtQuantile(q float64) float64 {
	target := uint64(q * float64(p.ops))
	if target >= p.ops {
		target = p.ops - 1
	}
	var cum uint64
	for rt, c := range p.rts {
		if cum += c; cum > target {
			return float64(rt)
		}
	}
	return float64(len(p.rts) - 1)
}

func (p *phase) perOp(v uint64) float64 { return float64(v) / float64(p.ops) }

// opsPerDriver is the length of every driver's stream.
func (e *env) opsPerDriver() int { return len(e.streams[0]) }

func (e *env) String() string {
	return fmt.Sprintf("%s seed %d: %d drivers × %d sessions, %d loaded keys, %d ops/driver, stream %016x",
		e.sp.name, e.seed, e.drivers, e.sp.sessions, e.loaded, e.opsPerDriver(), e.hash)
}
