package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"

	"sphinx/internal/fabric"
)

// Registry unifies the counter sets scattered across the system —
// core.Stats, fabric.Stats, cuckoo.Stats, rart.EngineStats and the obs
// histograms — behind one snapshot-and-diff surface with Prometheus-text
// and JSON exporters. Sources are registered once as closures; every
// Snapshot re-reads them, so diffing two snapshots measures exactly what
// happened in between.
type Registry struct {
	mu       sync.Mutex
	counters []counterSource
	gauges   []gaugeSource
	hists    []histSource
	metrics  []metricsSource
}

type counterSource struct {
	prefix string
	fn     func() map[string]uint64
}

type gaugeSource struct {
	prefix string
	fn     func() map[string]float64
}

type histSource struct {
	name string
	h    *Histogram
}

type metricsSource struct {
	prefix string
	m      *Metrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// AddCounters registers a named counter source; fn is called at snapshot
// time and each entry becomes a counter named prefix_key.
func (r *Registry) AddCounters(prefix string, fn func() map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, counterSource{prefix: prefix, fn: fn})
}

// AddCounterStruct registers a struct-valued counter source: fn is
// called at snapshot time and every uint64 field (and fixed-size uint64
// array element) of the returned struct becomes a counter named
// prefix_field_name. This is how the repo's existing Stats structs plug
// in without hand-written adapters.
func (r *Registry) AddCounterStruct(prefix string, fn func() any) {
	r.AddCounters(prefix, func() map[string]uint64 { return Fields(fn()) })
}

// AddGauges registers a named gauge source: fn is called at snapshot
// time and each entry becomes a float64 gauge named prefix_key. Gauges
// carry instantaneous values (ratios, load factors), so Sub keeps the
// newer snapshot's reading instead of differencing.
func (r *Registry) AddGauges(prefix string, fn func() map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, gaugeSource{prefix: prefix, fn: fn})
}

// AddHistogram registers a standalone histogram under a fixed name
// (which may carry a {label} block). The index-semantic distributions —
// SFC hit depth, INHT candidates per lookup — plug in here.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists = append(r.hists, histSource{name: name, h: h})
}

// AddMetrics registers a Metrics set: its per-op and per-stage
// histograms appear as prefix_op_latency_ps{op="..."} etc., and the
// per-stage verb/byte/fault counters as plain counters.
func (r *Registry) AddMetrics(prefix string, m *Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, metricsSource{prefix: prefix, m: m})
}

// Snapshot reads every registered source. Of a Metrics set's many per-op and
// per-stage histograms those with zero observations are omitted to keep
// exports small (Sub treats a missing histogram as empty, so diffs stay
// correct); a standalone histogram is a family of its own and is exported at
// count 0 too — whether a family exists must not depend on traffic.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]HistSnapshot),
	}
	for _, src := range r.counters {
		for k, v := range src.fn() {
			s.Counters[src.prefix+"_"+k] += v
		}
	}
	for _, src := range r.gauges {
		for k, v := range src.fn() {
			s.Gauges[src.prefix+"_"+k] = v
		}
	}
	for _, src := range r.hists {
		s.Hists[src.name] = src.h.Snapshot()
	}
	for _, src := range r.metrics {
		for k := 0; k < NumOps; k++ {
			op := OpKind(k)
			addHist(s.Hists, fmt.Sprintf("%s_op_latency_ps{op=%q}", src.prefix, op), src.m.OpLatency(op))
			addHist(s.Hists, fmt.Sprintf("%s_op_round_trips{op=%q}", src.prefix, op), src.m.OpRT(op))
		}
		for st := 0; st < fabric.NumStages; st++ {
			stage := fabric.Stage(st)
			addHist(s.Hists, fmt.Sprintf("%s_stage_latency_ps{stage=%q}", src.prefix, stage), src.m.StageLatency(stage))
			addHist(s.Hists, fmt.Sprintf("%s_stage_round_trips{stage=%q}", src.prefix, stage), src.m.StageRT(stage))
			verbs, bytes, faults := src.m.StageCounters(stage)
			if verbs != 0 || bytes != 0 || faults != 0 {
				s.Counters[fmt.Sprintf("%s_stage_verbs{stage=%q}", src.prefix, stage)] += verbs
				s.Counters[fmt.Sprintf("%s_stage_bytes{stage=%q}", src.prefix, stage)] += bytes
				s.Counters[fmt.Sprintf("%s_stage_faults{stage=%q}", src.prefix, stage)] += faults
			}
		}
	}
	return s
}

func addHist(dst map[string]HistSnapshot, key string, h HistSnapshot) {
	if h.Count == 0 {
		return
	}
	dst[key] = h
}

// Snapshot is one point-in-time reading of a Registry.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]float64
	Hists    map[string]HistSnapshot
}

// Sub returns s - prev, entry-wise; entries absent from prev are taken
// as zero. Gauges are instantaneous readings, not monotone counters, so
// the diff carries s's values unchanged. What a fresh source would not
// export stays out, so a diff over one long-lived metric set reads like a
// set made for the interval: a histogram with no count, and a stage's
// verbs / bytes / faults counters when none of the three moved.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Hists {
		d := v.Sub(prev.Hists[k])
		if d.Count != 0 {
			out.Hists[k] = d
		}
	}
	for k := range out.Counters {
		if name, labels := splitName(k); strings.HasSuffix(name, "_stage_verbs") {
			family := strings.TrimSuffix(name, "verbs")
			bytes, faults := family+"bytes"+labels, family+"faults"+labels
			if out.Counters[k] == 0 && out.Counters[bytes] == 0 && out.Counters[faults] == 0 {
				delete(out.Counters, k)
				delete(out.Counters, bytes)
				delete(out.Counters, faults)
			}
		}
	}
	return out
}

// splitName separates an optionally labeled key ("name{labels}") into
// its metric name and label block.
func splitName(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

func promLabels(labels, extra string) string {
	if labels == "" {
		if extra == "" {
			return ""
		}
		return "{" + extra + "}"
	}
	if extra == "" {
		return labels
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, prefixing every metric name with namespace. Histograms emit
// cumulative _bucket/_sum/_count series with le edges at the power-of-
// two bucket bounds.
func (s Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	ns := ""
	if namespace != "" {
		ns = namespace + "_"
	}
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name, labels := splitName(k)
		if _, err := fmt.Fprintf(w, "%s%s%s %d\n", ns, name, labels, s.Counters[k]); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name, labels := splitName(k)
		if _, err := fmt.Fprintf(w, "%s%s%s %g\n", ns, name, labels, s.Gauges[k]); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range s.Hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := s.Hists[k]
		name, labels := splitName(k)
		var cum uint64
		for i, b := range h.Buckets {
			if b == 0 {
				continue
			}
			cum += b
			// Sparse output: only populated buckets, cumulative as the
			// format requires.
			le := promLabels(labels, fmt.Sprintf("le=%q", fmt.Sprint(BucketUpper(i))))
			if _, err := fmt.Fprintf(w, "%s%s_bucket%s %d\n", ns, name, le, cum); err != nil {
				return err
			}
		}
		inf := promLabels(labels, `le="+Inf"`)
		if _, err := fmt.Fprintf(w, "%s%s_bucket%s %d\n", ns, name, inf, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s_sum%s %d\n", ns, name, labels, h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s_count%s %d\n", ns, name, labels, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON renders the snapshot as expvar-style JSON: counters, gauges,
// and each histogram's count, sum, mean, p50, p99 and max (quantiles are
// bucket upper bounds). It is the one JSON form of a snapshot: /snapshot
// serves it and BENCH_*.json carries it per phase.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	hists := make(map[string]histJSON, len(s.Hists))
	for k, h := range s.Hists {
		hists[k] = histJSON{
			Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99), Max: h.Max(),
		}
	}
	return json.Marshal(struct {
		Counters map[string]uint64   `json:"counters"`
		Gauges   map[string]float64  `json:"gauges,omitempty"`
		Hists    map[string]histJSON `json:"histograms"`
	}{
		Counters: s.Counters,
		Gauges:   s.Gauges,
		Hists:    hists,
	})
}

type histJSON struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// WriteJSON renders the snapshot as indented JSON (MarshalJSON).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Fields flattens a struct value's uint64 fields into snake_case-named
// counters; fixed-size uint64 array fields contribute one counter per
// element (name_0, name_1, …). Non-uint64 fields are ignored. Pointers
// are followed; a nil pointer yields no counters.
func Fields(v any) map[string]uint64 {
	out := make(map[string]uint64)
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return out
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return out
	}
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		name := snakeCase(f.Name)
		fv := rv.Field(i)
		switch {
		case fv.Kind() == reflect.Uint64:
			out[name] = fv.Uint()
		case fv.Kind() == reflect.Array && fv.Type().Elem().Kind() == reflect.Uint64:
			for j := 0; j < fv.Len(); j++ {
				out[fmt.Sprintf("%s_%d", name, j)] = fv.Index(j).Uint()
			}
		}
	}
	return out
}

// snakeCase converts a Go exported field name (CamelCase) to
// lower_snake_case, keeping acronym runs together (ByKind → by_kind,
// RTTotal → rt_total).
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		upper := r >= 'A' && r <= 'Z'
		if upper && i > 0 {
			prevLower := s[i-1] >= 'a' && s[i-1] <= 'z'
			nextLower := i+1 < len(s) && s[i+1] >= 'a' && s[i+1] <= 'z'
			if prevLower || nextLower {
				b.WriteByte('_')
			}
		}
		if upper {
			b.WriteByte(byte(r) + 'a' - 'A')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
