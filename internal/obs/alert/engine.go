package alert

import (
	"strings"
	"sync"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs/journal"
	"toto/internal/obs/timeseries"
	"toto/internal/simclock"
)

// Journaler is the slice of *fabric.Cluster the engine needs: emitting
// its transitions as causal annotations and observing the annotations of
// others to anchor them. A nil Journaler runs the rules without journal
// integration (the dashboard still streams).
type Journaler interface {
	Annotate(fabric.Annotation) uint64
	BeginCause(fabric.CauseKind, uint64) fabric.CauseCtx
	EndCause(fabric.CauseCtx)
	SubscribeAnnotations(fabric.AnnotationListener)
}

// Annotation kinds the engine emits.
const (
	KindAlertFiring   = "alert-firing"
	KindAlertResolved = "alert-resolved"
)

// Transition is one alert state change, also the JSON shape served by
// /alerts and pushed over /stream.
type Transition struct {
	Rule  string    `json:"rule"`
	State string    `json:"state"` // "firing" | "resolved"
	Time  time.Time `json:"time"`
	// Value is the observed level (burn rate or sample) at transition;
	// Limit the configured bound it crossed.
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// RootSeq is the journal sequence of the causal anchor this
	// transition was bracketed to (0 = no anchor in range), and Root its
	// class label ("chaos", "crash", "quorum", ...).
	RootSeq uint64 `json:"rootSeq,omitempty"`
	Root    string `json:"root,omitempty"`
}

// Stats summarizes the engine's activity for the run result.
type Stats struct {
	Rules    int            `json:"rules"`
	Fired    int            `json:"fired"`
	Resolved int            `json:"resolved"`
	Active   int            `json:"active"`
	ByRule   map[string]int `json:"byRule,omitempty"`
}

// StreamEvent is one SSE payload: either a KPI sample batch or an alert
// transition.
type StreamEvent struct {
	Type string    `json:"type"` // "sample" | "alert"
	Time time.Time `json:"time"`
	// Series carries cluster-wide KPI samples for Type == "sample".
	Series map[string]float64 `json:"series,omitempty"`
	// Alert carries the transition for Type == "alert".
	Alert *Transition `json:"alert,omitempty"`
}

// ruleState is one compiled rule plus its evaluation state. All fields
// are touched only on the sim goroutine.
type ruleState struct {
	name string

	// threshold rules
	isThreshold bool
	series      string
	op          Op
	threshold   float64
	sustain     time.Duration

	// burn-rate rules
	budgetPerNano float64 // budget units per nanosecond of SLO window
	windows       []BurnWindow

	// lookback is how far back a causal anchor may be to still explain
	// this rule firing.
	lookback time.Duration

	s            *timeseries.Series
	pending      bool
	pendingSince time.Time
	firing       bool
	fireSeq      uint64
	fireKind     fabric.CauseKind
}

// Engine evaluates a Spec on the sim clock. Construct with NewEngine,
// attach the cluster and store with Bind, then Start. An engine built
// from an empty spec registers neither a clock ticker consumer of rules
// nor an annotation listener, so a rule-less run pays nothing on the
// fabric hot path.
type Engine struct {
	spec  *Spec
	rules []*ruleState

	cl    Journaler
	store *timeseries.Store
	res   time.Duration

	ticker *simclock.Ticker

	// anchors tracks the latest causal anchor per class; sim goroutine
	// only.
	anchors journal.Anchors

	mu      sync.Mutex
	active  map[string]Transition
	history []Transition
	fired   map[string]int
	subs    map[int]chan StreamEvent
	nextSub int
	closed  bool
}

// NewEngine compiles spec (nil = empty) into an engine. The engine is
// inert until Bind and Start; HTTP handlers may attach to it immediately.
func NewEngine(spec *Spec) *Engine {
	e := &Engine{
		spec:   spec,
		active: make(map[string]Transition),
		fired:  make(map[string]int),
		subs:   make(map[int]chan StreamEvent),
	}
	if spec == nil {
		return e
	}
	for _, r := range spec.Rules {
		sustain := time.Duration(r.ForMinutes * float64(time.Minute))
		e.rules = append(e.rules, &ruleState{
			name:        r.Name,
			isThreshold: true,
			series:      r.Series,
			op:          r.Op,
			threshold:   r.Threshold,
			sustain:     sustain,
			lookback:    sustain, // + 2*resolution, added at Bind
		})
	}
	for _, r := range spec.SLOs {
		ws := r.windows()
		longest := time.Duration(0)
		for _, w := range ws {
			if d := time.Duration(w.LongMinutes * float64(time.Minute)); d > longest {
				longest = d
			}
		}
		e.rules = append(e.rules, &ruleState{
			name:          r.Name,
			series:        r.Series,
			budgetPerNano: r.Budget / float64(r.budgetWindow()),
			windows:       ws,
			lookback:      longest,
		})
	}
	return e
}

// Bind attaches the journal hook and the timeseries store the rules read.
// Call before Start; cl may be nil.
func (e *Engine) Bind(cl Journaler, store *timeseries.Store) {
	e.cl = cl
	e.store = store
	e.res = store.Resolution()
	for _, r := range e.rules {
		r.lookback += 2 * e.res
	}
}

// Start begins evaluation on clock, one tick per store resolution. The
// telemetry collector must have been started first so that, at equal
// timestamps, sampling precedes evaluation. With no rules loaded the
// annotation stream is left untouched (keeping annotation generation off
// for unjournaled runs); the ticker still runs to feed dashboard
// subscribers. The engine's own transitions are not anchors, so it never
// chains an alert to a previous alert.
func (e *Engine) Start(clock *simclock.Clock) {
	if e.store == nil {
		return
	}
	if len(e.rules) > 0 && e.cl != nil {
		e.cl.SubscribeAnnotations(e.anchors.Observe)
	}
	e.ticker = clock.Every(e.res, e.evaluate)
}

// Stop halts evaluation and closes every stream subscriber.
func (e *Engine) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	for id, ch := range e.subs {
		close(ch)
		delete(e.subs, id)
	}
}

// evaluate is the per-tick rule pass. Steady state (no transitions, no
// stream subscribers) allocates nothing.
func (e *Engine) evaluate(now time.Time) {
	for _, r := range e.rules {
		if r.s == nil {
			s, ok := e.store.Lookup(r.series)
			if !ok {
				continue // series not collected (yet); rule stays idle
			}
			r.s = s
		}
		if r.isThreshold {
			e.evalThreshold(r, now)
		} else {
			e.evalBurn(r, now)
		}
	}
	e.publishSamples(now)
}

func (e *Engine) evalThreshold(r *ruleState, now time.Time) {
	v, ok := r.s.Last()
	cond := ok && r.op.holds(v, r.threshold)
	if !cond {
		r.pending = false
		if r.firing {
			e.resolve(r, now, v, r.threshold)
		}
		return
	}
	if !r.pending {
		r.pending = true
		r.pendingSince = now
	}
	if !r.firing && now.Sub(r.pendingSince) >= r.sustain {
		e.fire(r, now, v, r.threshold)
	}
}

func (e *Engine) evalBurn(r *ruleState, now time.Time) {
	// burn over a trailing window: observed errors divided by the errors
	// the budget affords that window at steady consumption.
	burn := func(window time.Duration) float64 {
		n := int(window / e.res)
		if n < 1 {
			n = 1
		}
		sum, count := r.s.TailSum(n)
		if count == 0 {
			return 0
		}
		den := r.budgetPerNano * float64(count) * float64(e.res)
		if den <= 0 {
			return 0
		}
		return sum / den
	}
	if !r.firing {
		for _, w := range r.windows {
			long := burn(time.Duration(w.LongMinutes * float64(time.Minute)))
			if long < w.Burn {
				continue
			}
			short := burn(time.Duration(w.ShortMinutes * float64(time.Minute)))
			if short >= w.Burn {
				v := long
				if short < v {
					v = short
				}
				e.fire(r, now, v, w.Burn)
				return
			}
		}
		return
	}
	// Firing: resolve once every pair's short-window burn is back under
	// its threshold.
	worst, limit := 0.0, 0.0
	for _, w := range r.windows {
		short := burn(time.Duration(w.ShortMinutes * float64(time.Minute)))
		if short >= w.Burn {
			return // still burning
		}
		if short > worst {
			worst = short
		}
		if limit == 0 || w.Burn < limit {
			limit = w.Burn
		}
	}
	e.resolve(r, now, worst, limit)
}

// fire transitions r to firing, emitting an alert-firing annotation
// bracketed to the most exceptional recent causal anchor.
func (e *Engine) fire(r *ruleState, now time.Time, value, limit float64) {
	r.firing = true
	r.fireSeq = 0
	t := Transition{Rule: r.name, State: "firing", Time: now, Value: value, Limit: limit}
	t.RootSeq, r.fireKind, t.Root = e.anchors.Best(now, r.lookback)
	if e.cl != nil {
		prev := e.cl.BeginCause(r.fireKind, t.RootSeq)
		r.fireSeq = e.cl.Annotate(fabric.Annotation{
			Kind:   KindAlertFiring,
			Time:   now,
			Detail: r.name,
			Value:  value,
			Limit:  limit,
		})
		e.cl.EndCause(prev)
	}
	e.record(t)
}

// resolve transitions r back to inactive; the resolution is chained to
// the firing annotation so the whole alert lifecycle is one walkable
// chain.
func (e *Engine) resolve(r *ruleState, now time.Time, value, limit float64) {
	r.firing = false
	r.pending = false
	t := Transition{Rule: r.name, State: "resolved", Time: now, Value: value, Limit: limit}
	if e.cl != nil {
		prev := e.cl.BeginCause(r.fireKind, r.fireSeq)
		e.cl.Annotate(fabric.Annotation{
			Kind:   KindAlertResolved,
			Time:   now,
			Detail: r.name,
			Value:  value,
			Limit:  limit,
		})
		e.cl.EndCause(prev)
	}
	r.fireSeq, r.fireKind = 0, fabric.CauseNone
	e.record(t)
}

// record updates the shared transition log and fans the transition out
// to stream subscribers.
func (e *Engine) record(t Transition) {
	e.mu.Lock()
	if t.State == "firing" {
		e.active[t.Rule] = t
		e.fired[t.Rule]++
	} else {
		delete(e.active, t.Rule)
	}
	e.history = append(e.history, t)
	for _, ch := range e.subs {
		ev := StreamEvent{Type: "alert", Time: t.Time, Alert: &t}
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the sim
		}
	}
	e.mu.Unlock()
}

// publishSamples pushes the latest cluster-wide KPI samples to stream
// subscribers. Skipped entirely (no allocation) when nobody listens.
func (e *Engine) publishSamples(now time.Time) {
	e.mu.Lock()
	n := len(e.subs)
	e.mu.Unlock()
	if n == 0 {
		return
	}
	samples := make(map[string]float64)
	for _, name := range e.store.Names() {
		if !strings.HasPrefix(name, "cluster.") && !strings.HasPrefix(name, "revenue.") {
			continue
		}
		if s, ok := e.store.Lookup(name); ok {
			if v, vok := s.Last(); vok {
				samples[name] = v
			}
		}
	}
	if len(samples) == 0 {
		return
	}
	ev := StreamEvent{Type: "sample", Time: now, Series: samples}
	e.mu.Lock()
	for _, ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	e.mu.Unlock()
}

// Subscribe returns a stream of KPI samples and alert transitions plus a
// cancel function. The channel is closed on cancel or engine stop; slow
// consumers lose events rather than stalling the simulation.
func (e *Engine) Subscribe(buf int) (<-chan StreamEvent, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan StreamEvent, buf)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	e.mu.Unlock()
	return ch, func() {
		e.mu.Lock()
		if c, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(c)
		}
		e.mu.Unlock()
	}
}

// Active returns the currently firing alerts, sorted by rule name.
func (e *Engine) Active() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Transition, 0, len(e.active))
	for _, t := range e.active {
		out = append(out, t)
	}
	sortTransitions(out)
	return out
}

// History returns every transition recorded so far, in order.
func (e *Engine) History() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Transition(nil), e.history...)
}

// Stats summarizes the engine for the run result.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{Rules: len(e.rules), Active: len(e.active)}
	for _, t := range e.history {
		if t.State == "firing" {
			st.Fired++
		} else {
			st.Resolved++
		}
	}
	if len(e.fired) > 0 {
		st.ByRule = make(map[string]int, len(e.fired))
		for k, v := range e.fired {
			st.ByRule[k] = v
		}
	}
	return st
}

// RuleCount returns the number of compiled rules.
func (e *Engine) RuleCount() int { return len(e.rules) }

func sortTransitions(ts []Transition) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Rule < ts[j-1].Rule; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
