// Package alert is the watch layer over the simulation: declarative
// alert rules — static thresholds and Google-SRE-style multi-window
// multi-burn-rate rules over SLO error budgets — evaluated on the sim
// clock against the timeseries store that the telemetry collector fills.
// Transitions are emitted into the causal journal as annotations inside
// cause brackets, so totoscope can chain every alert to the incident
// that triggered it (a chaos injection, a quorum loss, an upgrade
// stall) exactly the way it chains failovers.
//
// With no rules loaded the engine registers nothing: no clock ticker, no
// annotation listener, no allocation on any hot path, and the journal's
// event stream is byte-identical to an unwatched run.
package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Op is a threshold comparison operator.
type Op string

// The supported comparison operators.
const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
)

// holds reports whether "value op threshold" is true.
func (o Op) holds(value, threshold float64) bool {
	switch o {
	case OpGT:
		return value > threshold
	case OpGE:
		return value >= threshold
	case OpLT:
		return value < threshold
	case OpLE:
		return value <= threshold
	}
	return false
}

func (o Op) valid() bool {
	switch o {
	case OpGT, OpGE, OpLT, OpLE:
		return true
	}
	return false
}

// ThresholdRule fires when the latest sample of a series violates a
// static comparison for ForMinutes consecutive minutes (0 = fire on the
// first violating sample). The classic "page when fewer than N nodes are
// up" rule.
type ThresholdRule struct {
	// Name identifies the rule in the journal, the dashboard, and
	// totoscope output.
	Name string `json:"name"`
	// Series names the timeseries-store series to watch, e.g.
	// "cluster.upNodes" or "util.cores/node-3".
	Series string `json:"series"`
	// Op compares the latest sample against Threshold.
	Op Op `json:"op"`
	// Threshold is the comparison bound.
	Threshold float64 `json:"threshold"`
	// ForMinutes is how long the condition must hold before firing.
	ForMinutes float64 `json:"forMinutes,omitempty"`
}

// BurnWindow is one (long, short) window pair of a multi-window
// multi-burn-rate rule. The pair fires when the burn rate over BOTH
// windows exceeds Burn: the long window proves the problem is real, the
// short window proves it is still happening.
type BurnWindow struct {
	LongMinutes  float64 `json:"longMinutes"`
	ShortMinutes float64 `json:"shortMinutes"`
	// Burn is the multiple of the steady budget-consumption rate above
	// which this pair trips (14.4 = a 30-day budget gone in ~2 days).
	Burn float64 `json:"burn"`
}

// SLORule is a Google-SRE-style multi-window multi-burn-rate alert over
// an error budget. Series must be a per-interval error count (the
// telemetry collector's "cluster.failovers.delta" is the canonical
// example); the budget says how many such errors the SLO tolerates per
// BudgetDays.
type SLORule struct {
	Name   string `json:"name"`
	Series string `json:"series"`
	// Budget is the tolerated error count per BudgetDays.
	Budget float64 `json:"budget"`
	// BudgetDays is the SLO window in days (default 30).
	BudgetDays float64 `json:"budgetDays,omitempty"`
	// Windows are the (long, short, burn) pairs; empty selects
	// DefaultBurnWindows. The rule fires when ANY pair trips and resolves
	// when every pair's short-window burn is back under its threshold.
	Windows []BurnWindow `json:"windows,omitempty"`
}

// DefaultBurnWindows is the canonical SRE-workbook pairing: page fast on
// a 14.4x burn (1h long / 5m short), and on a sustained 6x burn
// (6h long / 30m short).
func DefaultBurnWindows() []BurnWindow {
	return []BurnWindow{
		{LongMinutes: 60, ShortMinutes: 5, Burn: 14.4},
		{LongMinutes: 360, ShortMinutes: 30, Burn: 6},
	}
}

// Spec is a full rule set, loadable from the "alerts" section of a
// scenario file or a standalone -alerts JSON file (same schema).
type Spec struct {
	Rules []ThresholdRule `json:"rules,omitempty"`
	SLOs  []SLORule       `json:"slos,omitempty"`
}

// Validate checks the spec; it is called from scenario validation so a
// bad rule fails the run before the cluster boots.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool, len(s.Rules)+len(s.SLOs))
	name := func(n string) error {
		if n == "" {
			return fmt.Errorf("alert: rule with empty name")
		}
		if seen[n] {
			return fmt.Errorf("alert: duplicate rule name %q", n)
		}
		seen[n] = true
		return nil
	}
	for _, r := range s.Rules {
		if err := name(r.Name); err != nil {
			return err
		}
		if r.Series == "" {
			return fmt.Errorf("alert: rule %q has no series", r.Name)
		}
		if !r.Op.valid() {
			return fmt.Errorf("alert: rule %q has invalid op %q", r.Name, r.Op)
		}
		if r.ForMinutes < 0 {
			return fmt.Errorf("alert: rule %q has negative forMinutes", r.Name)
		}
	}
	for _, r := range s.SLOs {
		if err := name(r.Name); err != nil {
			return err
		}
		if r.Series == "" {
			return fmt.Errorf("alert: slo %q has no series", r.Name)
		}
		if r.Budget <= 0 {
			return fmt.Errorf("alert: slo %q needs a positive budget", r.Name)
		}
		if r.BudgetDays < 0 {
			return fmt.Errorf("alert: slo %q has negative budgetDays", r.Name)
		}
		for _, w := range r.Windows {
			if w.LongMinutes <= 0 || w.ShortMinutes <= 0 || w.Burn <= 0 {
				return fmt.Errorf("alert: slo %q has a non-positive window field", r.Name)
			}
			if w.ShortMinutes > w.LongMinutes {
				return fmt.Errorf("alert: slo %q has short window longer than long window", r.Name)
			}
		}
	}
	return nil
}

// ParseSpec decodes a rule set ({"rules": [...], "slos": [...]}) and
// validates it. Unknown fields are rejected, so a misspelt key fails
// here instead of loading no rules.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("alert: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// budgetWindow returns the SLO window as a duration (default 30 days).
func (r SLORule) budgetWindow() time.Duration {
	days := r.BudgetDays
	if days <= 0 {
		days = 30
	}
	return time.Duration(days * 24 * float64(time.Hour))
}

// windows returns the rule's pairs, defaulted.
func (r SLORule) windows() []BurnWindow {
	if len(r.Windows) > 0 {
		return r.Windows
	}
	return DefaultBurnWindows()
}
