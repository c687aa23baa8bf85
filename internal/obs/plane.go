package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
)

// DefaultWindowPs is the plane's default series window length: 250 ms,
// matched to the wall-clock sampling cadence of `-serve` mode. Virtual
// clock drivers (tests, bench) pick much shorter windows.
const DefaultWindowPs = 250_000_000_000

// MNSample is one memory node's cumulative NIC counters (monotone since
// fabric creation; the plane windows them) and instantaneous gauges as
// seen by a collector.
type MNSample struct {
	fabric.NICStats
	Fabric     *fabric.Fabric // whose counters these are: one per collection
	Member     bool           // in the current placement ring
	Health     string         // breaker state: closed / open / dead
	HealthCode float64        // 0 closed, 1 open, 2 dead

	// Instantaneous gauges.
	HashLoad    float64 // racehash load factor across the node's tables
	HashEntries uint64
	ArenaUsed   uint64 // bytes allocated in the node's region
	ArenaCap    uint64 // region size
}

// CollectMNs samples every node of the fabric for the observability
// plane: NIC accounting (cumulative — the plane windows the deltas),
// breaker health, membership in the given placement, hash-table load for
// nodes holding one of its tables, and arena occupancy (skipped for
// killed nodes, whose regions are gone). The MN-side scans (racehash
// usage, allocator counters) cost no fabric round trips, like a
// management agent running on the node.
func CollectMNs(f *fabric.Fabric, members []mem.NodeID, tables map[mem.NodeID]racehash.Table) []MNSample {
	h := f.Health()
	member := make(map[mem.NodeID]bool, len(members))
	for _, n := range members {
		member[n] = true
	}
	ops := f.Regions()
	stats := f.NICStats()
	out := make([]MNSample, 0, len(stats))
	for _, st := range stats {
		n := st.Node
		state := h.State(n)
		s := MNSample{NICStats: st, Fabric: f, Member: member[n], Health: state.String(), HealthCode: float64(state)}
		if t, ok := tables[n]; ok {
			u := racehash.ReadUsage(f.Region(n), t)
			s.HashLoad = u.LoadFactor()
			s.HashEntries = u.Entries
		}
		if !f.NodeKilled(n) {
			if mu, err := mem.ReadUsage(ops, n); err == nil {
				for _, b := range mu.ByClass {
					s.ArenaUsed += b
				}
				s.ArenaCap = f.RegionSize(n)
			}
		}
		out = append(out, s)
	}
	return out
}

// MNStatus is one node's row in the /mn table: latest-tick windowed
// rates plus cumulative counters, and the recent busy-ratio / verb-share
// windows for trend rendering.
type MNStatus struct {
	Node   int    `json:"node"`
	Member bool   `json:"member"`
	Health string `json:"health"`

	BusyRatio   float64 `json:"busy_ratio"` // NIC busy ps per elapsed ps, latest tick
	WaitRatio   float64 `json:"wait_ratio"`
	VerbShare   float64 `json:"verb_share"` // node's share of verbs, latest tick
	WindowVerbs uint64  `json:"window_verbs"`
	WindowRTs   uint64  `json:"window_rts"`

	HashLoad       float64 `json:"hash_load"`
	HashEntries    uint64  `json:"hash_entries"`
	ArenaOccupancy float64 `json:"arena_occupancy"`

	Verbs      uint64 `json:"verbs"` // cumulative
	RoundTrips uint64 `json:"round_trips"`
	Bytes      uint64 `json:"bytes"`
	Faults     uint64 `json:"faults"`
	// LateBookings counts reservations behind the NIC timeline's window
	// (fabric.NICStats.LateBookings); 0 on a healthy run.
	LateBookings uint64 `json:"late_bookings,omitempty"`

	BusyWindows  []Window `json:"busy_ratio_windows,omitempty"`
	ShareWindows []Window `json:"verb_share_windows,omitempty"`
	RTWindows    []Window `json:"rt_windows,omitempty"`
}

// PlaneOptions configures a Plane.
type PlaneOptions struct {
	// WindowPs is the series window length (DefaultWindowPs when 0).
	WindowPs int64
	// Windows is the ring length per series (default 64).
	Windows int
	// Collect returns one sample per memory node; required.
	Collect func() []MNSample
	// Latency supplies cumulative per-op latency histograms for the
	// SLO engine; nil disables SLO evaluation.
	Latency func(OpKind) HistSnapshot
	// SLOs to evaluate each tick.
	SLOs []SLO
	// Rules for the alert engine; nil installs DefaultRules.
	Rules []Rule
	// SlowWindows is the slow burn-rate window in ticks (default 6).
	SlowWindows int
}

// Plane is the cluster observability plane: per-MN windowed load
// series, SLO burn rates, and hysteresis alerting, advanced by Tick.
// Ticks are virtual-clock driven in tests and bench, wall-clock driven
// (EnsureWallTicker) in -serve mode. All methods are safe for
// concurrent use; Tick calls are serialized by the plane's lock.
type Plane struct {
	mu       sync.Mutex
	windowPs int64
	windows  int
	collect  func() []MNSample
	latency  func(OpKind) HistSnapshot
	slos     []*sloState
	engine   *alertEngine
	nodes    map[int]*mnState
	fab      *fabric.Fabric // whose nodes they are
	lastPs   int64
	ticks    uint64
	wallOnce sync.Once
}

type mnState struct {
	prev   fabric.NICStats // the counters at the last tick
	status MNStatus
	busy   *Series
	share  *Series
	rts    *Series
}

// NewPlane builds a plane; ErrZeroWindow if WindowPs or Windows is
// negative, and Collect must be non-nil.
func NewPlane(opts PlaneOptions) (*Plane, error) {
	if opts.WindowPs == 0 {
		opts.WindowPs = DefaultWindowPs
	}
	if opts.Windows == 0 {
		opts.Windows = 64
	}
	if opts.WindowPs < 0 || opts.Windows < 0 {
		return nil, ErrZeroWindow
	}
	if opts.Collect == nil {
		return nil, fmt.Errorf("obs: plane requires a Collect func")
	}
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	slow := opts.SlowWindows
	if slow == 0 {
		slow = 6
	}
	p := &Plane{
		windowPs: opts.WindowPs,
		windows:  opts.Windows,
		collect:  opts.Collect,
		latency:  opts.Latency,
		engine:   newAlertEngine(rules),
		nodes:    make(map[int]*mnState),
	}
	for _, s := range opts.SLOs {
		p.slos = append(p.slos, newSLOState(s, slow))
	}
	return p, nil
}

// WindowPs returns the plane's series window length.
func (p *Plane) WindowPs() int64 { return p.windowPs }

// Tick advances the plane to nowPs: collects per-MN samples, records
// windowed deltas into the series, evaluates SLO burn rates from the
// latency histograms, and steps the alert engine.
func (p *Plane) Tick(nowPs int64) {
	if p == nil {
		return
	}
	samples := p.collect()
	p.mu.Lock()
	defer p.mu.Unlock()

	dt := nowPs - p.lastPs
	if dt <= 0 {
		dt = 1
	}
	p.lastPs = nowPs
	p.ticks++

	signals := map[string]map[string]float64{
		"nic_busy_ratio":  {},
		"nic_wait_ratio":  {},
		"nic_verb_share":  {},
		"hash_load":       {},
		"arena_occupancy": {},
		"health":          {},
	}

	// The window since the last tick: a node met for the first time counts
	// from zero, and so does one whose counters went backwards. Samples of
	// another fabric — the collector follows the next cluster — restart
	// every node.
	if len(samples) > 0 && samples[0].Fabric != p.fab {
		p.nodes, p.fab = make(map[int]*mnState), samples[0].Fabric
	}
	start, end := make([]fabric.NICStats, len(samples)), make([]fabric.NICStats, len(samples))
	var members []mem.NodeID
	for i, s := range samples {
		st := p.nodes[int(s.Node)]
		if st == nil {
			busy, _ := NewSeries(p.windowPs, p.windows)
			share, _ := NewSeries(p.windowPs, p.windows)
			rts, _ := NewSeries(p.windowPs, p.windows)
			st = &mnState{busy: busy, share: share, rts: rts}
			p.nodes[int(s.Node)] = st
		}
		if c, o := s.NICStats, st.prev; c.Verbs < o.Verbs || c.RoundTrips < o.RoundTrips || c.Bytes < o.Bytes ||
			c.Faults < o.Faults || c.BusyPs < o.BusyPs || c.WaitPs < o.WaitPs || c.LateBookings < o.LateBookings || o.Node != s.Node {
			st.prev = fabric.NICStats{Node: s.Node}
		}
		start[i], end[i] = st.prev, s.NICStats
		if s.Member {
			members = append(members, s.Node)
		}
	}
	win := NewLoadWindow(start, end, members)
	for i, s := range samples {
		st := p.nodes[int(s.Node)]
		d := win.Loads[i]
		busy := float64(d.BusyPs) / float64(dt)
		wait := float64(d.WaitPs) / float64(dt)
		occ := 0.0
		if s.ArenaCap > 0 {
			occ = float64(s.ArenaUsed) / float64(s.ArenaCap)
		}
		st.busy.Record(nowPs, busy)
		st.share.Record(nowPs, d.VerbShare)
		st.rts.Record(nowPs, float64(d.RoundTrips))
		st.status = MNStatus{
			Node: int(s.Node), Member: s.Member, Health: s.Health,
			BusyRatio: busy, WaitRatio: wait, VerbShare: d.VerbShare,
			WindowVerbs: d.Verbs, WindowRTs: d.RoundTrips,
			HashLoad: s.HashLoad, HashEntries: s.HashEntries, ArenaOccupancy: occ,
			Verbs: s.Verbs, RoundTrips: s.RoundTrips, Bytes: s.Bytes, Faults: s.Faults, LateBookings: s.LateBookings,
		}
		st.prev = s.NICStats

		label := strconv.Itoa(int(s.Node))
		signals["nic_busy_ratio"][label] = busy
		signals["nic_wait_ratio"][label] = wait
		signals["nic_verb_share"][label] = d.VerbShare
		signals["hash_load"][label] = s.HashLoad
		signals["arena_occupancy"][label] = occ
		signals["health"][label] = s.HealthCode
	}

	if p.latency != nil {
		fast := map[string]float64{}
		slowSig := map[string]float64{}
		for _, st := range p.slos {
			status := st.tick(p.latency(st.slo.Op))
			fast[st.slo.Name] = status.FastBurn
			slowSig[st.slo.Name] = status.SlowBurn
		}
		signals["slo_fast_burn"] = fast
		signals["slo_slow_burn"] = slowSig
	}

	p.engine.tick(nowPs, signals)
}

// EnsureWallTicker starts (at most once) a background goroutine that
// ticks the plane every interval of wall time, with nowPs measured as
// real elapsed picoseconds. Used by -serve mode; it keeps ticking after
// load stops so firing alerts resolve, and runs for the process
// lifetime.
func (p *Plane) EnsureWallTicker(interval time.Duration) {
	if p == nil {
		return
	}
	p.wallOnce.Do(func() {
		go func() {
			start := time.Now()
			for {
				time.Sleep(interval)
				p.Tick(time.Since(start).Nanoseconds() * 1000)
			}
		}()
	})
}

// PlaneSnapshot is the JSON shape served at /mn and embedded in bench
// reports: the per-MN table plus SLO statuses and alert states.
type PlaneSnapshot struct {
	TickPs   int64       `json:"tick_ps"`
	Ticks    uint64      `json:"ticks"`
	WindowPs int64       `json:"window_ps"`
	Nodes    []MNStatus  `json:"nodes"`
	SLOs     []SLOStatus `json:"slos,omitempty"`
	Alerts   []Alert     `json:"alerts,omitempty"`
}

// Snapshot returns the current plane state, nodes sorted by id, with
// per-node series windows included.
func (p *Plane) Snapshot() PlaneSnapshot {
	if p == nil {
		return PlaneSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := PlaneSnapshot{TickPs: p.lastPs, Ticks: p.ticks, WindowPs: p.windowPs}
	ids := make([]int, 0, len(p.nodes))
	for id := range p.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := p.nodes[id]
		row := st.status
		row.BusyWindows = st.busy.Windows()
		row.ShareWindows = st.share.Windows()
		row.RTWindows = st.rts.Windows()
		snap.Nodes = append(snap.Nodes, row)
	}
	for _, st := range p.slos {
		snap.SLOs = append(snap.SLOs, st.status)
	}
	snap.Alerts = p.engine.alerts()
	return snap
}

// Alerts returns the current alert states in first-seen order.
func (p *Plane) Alerts() []Alert {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engine.alerts()
}

// SLOStatuses returns the latest SLO verdicts.
func (p *Plane) SLOStatuses() []SLOStatus {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SLOStatus, 0, len(p.slos))
	for _, st := range p.slos {
		out = append(out, st.status)
	}
	return out
}

// Register exports the plane on a registry as the mn_* / slo_* /
// alert_* families, following the node_health{node=...} label idiom.
func (p *Plane) Register(r *Registry) {
	if p == nil {
		return
	}
	r.AddGauges("mn", func() map[string]float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		g := make(map[string]float64, len(p.nodes)*6)
		for id, st := range p.nodes {
			n := strconv.Itoa(id)
			g[fmt.Sprintf("busy_ratio{node=%q}", n)] = st.status.BusyRatio
			g[fmt.Sprintf("wait_ratio{node=%q}", n)] = st.status.WaitRatio
			g[fmt.Sprintf("verb_share{node=%q}", n)] = st.status.VerbShare
			g[fmt.Sprintf("hash_load{node=%q}", n)] = st.status.HashLoad
			g[fmt.Sprintf("arena_occupancy{node=%q}", n)] = st.status.ArenaOccupancy
			g[fmt.Sprintf("member{node=%q}", n)] = b2f(st.status.Member)
		}
		return g
	})
	r.AddCounters("mn", func() map[string]uint64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		c := make(map[string]uint64, len(p.nodes)*5)
		for id, st := range p.nodes {
			n := strconv.Itoa(id)
			c[fmt.Sprintf("verbs_total{node=%q}", n)] = st.status.Verbs
			c[fmt.Sprintf("round_trips_total{node=%q}", n)] = st.status.RoundTrips
			c[fmt.Sprintf("bytes_total{node=%q}", n)] = st.status.Bytes
			c[fmt.Sprintf("faults_total{node=%q}", n)] = st.status.Faults
			c[fmt.Sprintf("late_bookings_total{node=%q}", n)] = st.status.LateBookings
		}
		return c
	})
	r.AddGauges("slo", func() map[string]float64 {
		g := make(map[string]float64)
		for _, st := range p.SLOStatuses() {
			g[fmt.Sprintf("fast_burn{slo=%q}", st.SLO.Name)] = st.FastBurn
			g[fmt.Sprintf("slow_burn{slo=%q}", st.SLO.Name)] = st.SlowBurn
			g[fmt.Sprintf("attainment{slo=%q}", st.SLO.Name)] = st.Attainment
		}
		return g
	})
	r.AddCounters("slo", func() map[string]uint64 {
		c := make(map[string]uint64)
		for _, st := range p.SLOStatuses() {
			c[fmt.Sprintf("ops_total{slo=%q}", st.SLO.Name)] = st.TotalOps
			c[fmt.Sprintf("bad_total{slo=%q}", st.SLO.Name)] = st.TotalBad
		}
		return c
	})
	r.AddGauges("alert", func() map[string]float64 {
		g := map[string]float64{}
		var firing float64
		for _, a := range p.Alerts() {
			g[fmt.Sprintf("state{rule=%q,label=%q}", a.Rule, a.Label)] = float64(a.State)
			if a.State == AlertFiring {
				firing++
			}
		}
		g["firing"] = firing
		return g
	})
	r.AddCounters("alert", func() map[string]uint64 {
		c := make(map[string]uint64)
		for _, a := range p.Alerts() {
			c[fmt.Sprintf("fired_total{rule=%q,label=%q}", a.Rule, a.Label)] = a.Fired
			c[fmt.Sprintf("resolved_total{rule=%q,label=%q}", a.Rule, a.Label)] = a.Resolved
		}
		return c
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
