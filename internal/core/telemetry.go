package core

import (
	"fmt"

	"sphinx/internal/counters"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
)

// IndexSources is what an exporter follows of the index layers: the summed
// counters of the clients it watches (one session and its pipeline lanes,
// or a harness's finished and running workers) and the compute-node caches
// those clients share (one of each for a session, one per CN for a
// harness). Every field may be nil or empty; what it would feed is then not
// exported. Stats is set wherever a cache is: the caches' rates divide its
// counters.
type IndexSources struct {
	Stats  func() Stats
	Hash   func() racehash.Stats
	Engine func() rart.EngineStats

	Filters []*FilterCache
	LACs    []*LeafCache
	Hots    []*HotSet

	// Shared names the index MN-side — the placement its Membership
	// publishes, the fault-tolerance layer — and Fabric reaches the hash
	// tables' regions; both nil for a system without an inner node hash
	// table.
	Shared *Shared
	Fabric *fabric.Fabric
}

// sumOver adds up the counter struct read returns for each of xs.
func sumOver[X, T any](xs []X, read func(X) T) (agg T) {
	for _, x := range xs {
		v := read(x)
		counters.Add(&agg, &v)
	}
	return agg
}

// filterStats sums the filter caches' counters.
func (s *IndexSources) filterStats() cuckoo.Stats {
	return sumOver(s.Filters, (*FilterCache).FilterStats)
}

// filterOccupancy sums slot occupancy across the filter caches; the analytic
// false-positive bound is averaged over them.
func (s *IndexSources) filterOccupancy() (occupied, capacity uint64, load, bound float64) {
	for _, f := range s.Filters {
		o, c := f.Occupancy()
		occupied, capacity, bound = occupied+o, capacity+c, bound+f.AnalyticFPBound()
	}
	if capacity > 0 {
		load = float64(occupied) / float64(capacity)
	}
	if n := len(s.Filters); n > 0 {
		bound /= float64(n)
	}
	return occupied, capacity, load, bound
}

// lacStats sums the leaf-address caches' maintenance counters.
func (s *IndexSources) lacStats() LACStats { return sumOver(s.LACs, (*LeafCache).Stats) }

// lacOccupancy sums live entries, slot capacity, full buckets, the node words
// among the live entries and byte footprint across the leaf-address caches,
// counts the caches that gate leaf words and sums the keys they have seen
// (LeafCache.noteKey).
func (s *IndexSources) lacOccupancy() (occupied, capacity, fullBuckets, nodes, bytes, gated uint64, keys float64) {
	for _, lc := range s.LACs {
		o, c, f, n := lc.Occupancy()
		occupied, capacity, fullBuckets, nodes, bytes = occupied+o, capacity+c, fullBuckets+f, nodes+n, bytes+lc.SizeBytes()
		if lc.gated() {
			gated++
		}
		keys += lc.keysSeen()
	}
	return occupied, capacity, fullBuckets, nodes, bytes, gated, keys
}

// RegisterIndex registers the index layers' metric families on r, reading
// them through src at every scrape (docs/observability.md has the table of
// what is in each). It is the one place they are assembled:
// the session exporter and the harness's live exporter both call it, so a
// counter added to one of the structs it walks appears on both. A nil
// *IndexSources exports nothing.
func RegisterIndex(r *obs.Registry, src func() *IndexSources) {
	for _, family := range []string{"core", "inht", "engine", "filter", "lac", "sfc", "hot", "ft"} {
		r.AddCounters(family, func() map[string]uint64 { return src().counters(family) })
		r.AddGauges(family, func() map[string]float64 { return src().gauges(family) })
	}
}

// counters returns one family's counters, named from the fields of the struct
// they are declared in; nil where the sources have none for it.
func (s *IndexSources) counters(family string) map[string]uint64 {
	switch {
	case s == nil:
	case family == "core" && s.Stats != nil:
		return obs.Fields(s.Stats())
	case family == "inht" && s.Hash != nil:
		return obs.Fields(s.Hash())
	case family == "engine" && s.Engine != nil:
		return obs.Fields(s.Engine())
	case family == "filter" && len(s.Filters) > 0:
		return obs.Fields(s.filterStats())
	case family == "lac" && len(s.LACs) > 0:
		// The cache's own counters, and under its prefix the speculative
		// in-place write's outcomes (they are also core_spec_upd_*, like the Get
		// outcomes).
		out, st := obs.Fields(s.lacStats()), s.Stats()
		out["update_hits"], out["update_misses"] = st.SpecUpdHits, st.SpecUpdMisses
		out["update_refutes"], out["update_aborts"] = st.SpecUpdRefutes, st.SpecUpdAborts
		return out
	}
	return nil
}

// gauges returns one family's gauges; nil where the sources have none for it.
func (s *IndexSources) gauges(family string) map[string]float64 {
	switch {
	case s == nil:
	case family == "sfc" && len(s.Filters) > 0:
		st, fst := s.Stats(), s.filterStats()
		occupied, capacity, load, bound := s.filterOccupancy()
		g := map[string]float64{
			"occupied_slots":    float64(occupied),
			"capacity_slots":    float64(capacity),
			"load":              load,
			"analytic_fp_bound": bound,
		}
		// Entries currently carrying the second-chance hotness bit: the
		// prefixes the filter's eviction passes over once.
		for _, f := range s.Filters {
			g["hot_entries"] += float64(f.HotEntries())
		}
		// Probes count the filters' whole traffic; false positives and hits
		// count the clients behind Stats. Where those are all the filters'
		// users — a CN's one session, a harness's workers — the ratio is the
		// measured per-probe FP rate, comparable to the analytic bound above.
		if probes := fst.Hits + fst.Misses; probes > 0 {
			g["false_positive_rate"] = float64(st.FalsePositives) / float64(probes)
		}
		if claims := st.FilterHits - st.UnclaimedLandings + st.FalsePositives; claims > 0 {
			g["fp_per_claim"] = float64(st.FalsePositives) / float64(claims)
		}
		return g
	case family == "lac" && len(s.LACs) > 0:
		st := s.Stats()
		occupied, capacity, full, nodes, bytes, gated, keys := s.lacOccupancy()
		g := map[string]float64{
			"occupied_slots": float64(occupied),
			"capacity_slots": float64(capacity),
			"occupancy":      float64(occupied) / float64(capacity),
			// Buckets with no empty way: a learn there displaces a live
			// entry. Misses with none full are keys not yet learned.
			"full_buckets": float64(full),
			// Ways holding an inner node's address; the rest hold leaves.
			"node_entries": float64(nodes),
			"size_bytes":   float64(bytes),
			// Caches that have learned the leaf words of more keys than they
			// have ways: they run the second-chance sweep over both kinds and
			// let a leaf word into a full bucket on its key's second miss;
			// the rest give up node words first.
			"gated":     float64(gated),
			"keys_seen": keys,
		}
		if attempts := st.SpecHits + st.SpecMisses + st.SpecRefutes + st.SpecAborts; attempts > 0 {
			g["hit_rate"] = float64(st.SpecHits) / float64(attempts)
		}
		return g
	case family == "hot" && len(s.Hots) > 0:
		st, g := s.Stats(), map[string]float64{}
		for _, hs := range s.Hots {
			g["tracker_bytes"] += float64(hs.SizeBytes())
		}
		if reads := st.HotHits + st.HotRefutes + st.HotAborts; reads > 0 {
			g["hit_rate"] = float64(st.HotHits) / float64(reads)
		}
		return g
	case family == "inht" && s.Shared != nil:
		// Every member's table structure, scanned MN-side (no virtual-clock
		// cost; race-clean through the region locks) under the CURRENT
		// placement epoch: tables bootstrapped by an elastic add are counted
		// and drained ones are not.
		p, u := s.Shared.Members.Current(), racehash.Usage{}
		for node, t := range p.Tables {
			u = u.Add(racehash.ReadUsage(s.Fabric.Region(node), t))
		}
		return map[string]float64{
			"epoch":            float64(p.Epoch),
			"load_factor":      u.LoadFactor(),
			"entries":          float64(u.Entries),
			"capacity_entries": float64(u.Capacity),
			"segments":         float64(u.Segments),
			"dir_entries":      float64(u.DirEntries),
		}
	case family == "ft" && s.Shared != nil && s.Shared.FT != nil:
		ft := s.Shared.FT
		sweeps, copied := ft.RepairTotals()
		g := map[string]float64{
			"under_replicated": float64(ft.UnderReplicated()),
			"repair_sweeps":    float64(sweeps),
			"repair_copied":    float64(copied),
		}
		for _, n := range s.Shared.Members.Current().Ring.Nodes() {
			g[fmt.Sprintf("node_health{node=%q}", fmt.Sprint(uint64(n)))] = float64(ft.Health.State(n))
		}
		return g
	}
	return nil
}
