package obs

import (
	"fmt"
	"sort"
)

// Rule is a declarative alert condition over plane signals, e.g.
// {Signal: "nic_busy_ratio", Over: 0.8, ForTicks: 3} reads as
// "nic_busy_ratio > 0.8 for 3 windows". Signals are labeled (per MN
// node, per SLO name); a rule evaluates every label of its signal
// independently unless Label pins one.
type Rule struct {
	Name string `json:"name"`
	// Signal names a plane signal family: nic_busy_ratio,
	// nic_wait_ratio, nic_verb_share, hash_load, arena_occupancy,
	// health, slo_fast_burn, slo_slow_burn.
	Signal string `json:"signal"`
	// Label pins the rule to one label value (a node number or SLO
	// name); empty means every label of the signal.
	Label string `json:"label,omitempty"`
	// Over is the firing threshold: the condition is "value > Over"
	// (or "value < Over" when Below is set).
	Over  float64 `json:"over"`
	Below bool    `json:"below,omitempty"`
	// ForTicks is the hysteresis on the way up: the condition must hold
	// for this many consecutive ticks before the alert fires (min 1).
	ForTicks int `json:"for_ticks"`
	// ClearTicks is the hysteresis on the way down: the condition must
	// be false for this many consecutive ticks before a firing alert
	// resolves. Defaults to ForTicks.
	ClearTicks int `json:"clear_ticks,omitempty"`
}

func (r Rule) String() string {
	cmp := ">"
	if r.Below {
		cmp = "<"
	}
	return fmt.Sprintf("%s %s %g for %d windows", r.Signal, cmp, r.Over, max(1, r.ForTicks))
}

// DefaultRules is the rule set installed when the caller configures
// none: NIC saturation and queueing per MN, SRE fast/slow SLO burn, and
// dead-node detection.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "mn-nic-saturated", Signal: "nic_busy_ratio", Over: 0.8, ForTicks: 3},
		{Name: "mn-nic-queueing", Signal: "nic_wait_ratio", Over: 0.5, ForTicks: 3},
		{Name: "slo-fast-burn", Signal: "slo_fast_burn", Over: 14, ForTicks: 1, ClearTicks: 2},
		{Name: "slo-slow-burn", Signal: "slo_slow_burn", Over: 6, ForTicks: 2},
		{Name: "mn-dead", Signal: "health", Over: 1.5, ForTicks: 1},
	}
}

// AlertState is the lifecycle of one (rule, label) pair.
type AlertState uint8

const (
	AlertInactive AlertState = iota // condition false, not firing
	AlertPending                    // condition true, ForTicks not yet reached
	AlertFiring                     // fired, not yet resolved
)

func (s AlertState) String() string {
	switch s {
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	default:
		return "inactive"
	}
}

func (s AlertState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the state names String produces, so snapshots
// round-trip through JSON (e.g. a client decoding the /mn or /alerts
// endpoints).
func (s *AlertState) UnmarshalText(b []byte) error {
	switch string(b) {
	case "inactive":
		*s = AlertInactive
	case "pending":
		*s = AlertPending
	case "firing":
		*s = AlertFiring
	default:
		return fmt.Errorf("unknown alert state %q", b)
	}
	return nil
}

// Alert is the externally visible state of one (rule, label) pair.
type Alert struct {
	Rule     string     `json:"rule"`
	Signal   string     `json:"signal"`
	Label    string     `json:"label"`
	State    AlertState `json:"state"`
	Value    float64    `json:"value"`    // last evaluated signal value
	SincePs  int64      `json:"since_ps"` // tick time of the last fire transition
	Fired    uint64     `json:"fired"`    // lifetime inactive->firing transitions
	Resolved uint64     `json:"resolved"` // lifetime firing->inactive transitions
}

// alertEngine evaluates rules against a per-tick signal map with
// fire/resolve hysteresis. Not self-locking: the Plane serializes ticks.
type alertEngine struct {
	rules  []Rule
	states map[string]*alertState // key: rule name + \x00 + label
	order  []string               // stable output order (first-seen)
}

type alertState struct {
	rule       Rule
	label      string
	violStreak int
	okStreak   int
	alert      Alert
}

func newAlertEngine(rules []Rule) *alertEngine {
	return &alertEngine{rules: rules, states: make(map[string]*alertState)}
}

// tick evaluates every rule against signals[signal][label] = value.
func (e *alertEngine) tick(nowPs int64, signals map[string]map[string]float64) {
	for _, r := range e.rules {
		labels := signals[r.Signal]
		// Sorted, not map order: a label's first visit fixes its place in
		// order, which /alerts and the bench reports list verbatim.
		sorted := make([]string, 0, len(labels))
		for label := range labels {
			sorted = append(sorted, label)
		}
		sort.Strings(sorted)
		for _, label := range sorted {
			v := labels[label]
			if r.Label != "" && r.Label != label {
				continue
			}
			key := r.Name + "\x00" + label
			st, ok := e.states[key]
			if !ok {
				st = &alertState{rule: r, label: label,
					alert: Alert{Rule: r.Name, Signal: r.Signal, Label: label}}
				e.states[key] = st
				e.order = append(e.order, key)
			}
			st.step(nowPs, v)
		}
		// Labels that vanished from the signal map (e.g. a removed MN)
		// count as condition-false so firing alerts still resolve.
		for _, key := range e.order {
			st := e.states[key]
			if st.rule.Name != r.Name {
				continue
			}
			if _, live := labels[st.label]; !live {
				st.stepMissing()
			}
		}
	}
}

func (st *alertState) violated(v float64) bool {
	if st.rule.Below {
		return v < st.rule.Over
	}
	return v > st.rule.Over
}

func (st *alertState) step(nowPs int64, v float64) {
	st.alert.Value = v
	if st.violated(v) {
		st.violStreak++
		st.okStreak = 0
		forTicks := max(1, st.rule.ForTicks)
		if st.alert.State != AlertFiring {
			if st.violStreak >= forTicks {
				st.alert.State = AlertFiring
				st.alert.SincePs = nowPs
				st.alert.Fired++
			} else {
				st.alert.State = AlertPending
			}
		}
		return
	}
	st.okStreak++
	st.violStreak = 0
	if st.alert.State == AlertFiring {
		clear := st.rule.ClearTicks
		if clear < 1 {
			clear = max(1, st.rule.ForTicks)
		}
		if st.okStreak >= clear {
			st.alert.State = AlertInactive
			st.alert.Resolved++
		}
	} else {
		st.alert.State = AlertInactive
	}
}

// stepMissing treats an absent signal label as condition-false with
// value 0.
func (st *alertState) stepMissing() { st.step(0, st.neutral()) }

func (st *alertState) neutral() float64 {
	if st.rule.Below {
		return st.rule.Over // not below → not violated
	}
	return 0
}

// alerts returns every tracked (rule, label) state in first-seen order.
func (e *alertEngine) alerts() []Alert {
	out := make([]Alert, 0, len(e.order))
	for _, key := range e.order {
		out = append(out, e.states[key].alert)
	}
	return out
}
