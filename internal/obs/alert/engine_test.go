package alert

import (
	"strings"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs/timeseries"
	"toto/internal/simclock"
)

// fakeJournal mimics the cluster's annotation surface: a shared sequence
// counter, ambient cause brackets, and synchronous listener delivery.
type fakeJournal struct {
	seq       uint64
	anns      []fabric.Annotation
	listeners []fabric.AnnotationListener
	causeKind fabric.CauseKind
	causeSeq  uint64
	// restore undoes the innermost BeginCause; the engine's brackets
	// never nest, so one level suffices for the fake.
	restore func()
}

func (f *fakeJournal) Annotate(a fabric.Annotation) uint64 {
	if a.Cause == fabric.CauseNone && a.CauseSeq == 0 {
		a.Cause, a.CauseSeq = f.causeKind, f.causeSeq
	}
	f.seq++
	a.Seq = f.seq
	f.anns = append(f.anns, a)
	for _, l := range f.listeners {
		l(a)
	}
	return a.Seq
}

func (f *fakeJournal) BeginCause(kind fabric.CauseKind, seq uint64) fabric.CauseCtx {
	prevKind, prevSeq := f.causeKind, f.causeSeq
	f.causeKind, f.causeSeq = kind, seq
	f.restore = func() { f.causeKind, f.causeSeq = prevKind, prevSeq }
	return fabric.CauseCtx{}
}

func (f *fakeJournal) EndCause(fabric.CauseCtx) {
	if f.restore != nil {
		f.restore()
		f.restore = nil
	}
}

func (f *fakeJournal) SubscribeAnnotations(l fabric.AnnotationListener) {
	f.listeners = append(f.listeners, l)
}

// harness wires a clock, store, fake journal, and engine together. The
// pusher ticker is registered before the engine's so that, like the real
// telemetry collector, samples land before evaluation at each tick.
type harness struct {
	clock *simclock.Clock
	store *timeseries.Store
	fj    *fakeJournal
	eng   *Engine
}

const testRes = 10 * time.Minute

func newHarness(t *testing.T, spec *Spec, push func(now time.Time, s *timeseries.Store)) *harness {
	t.Helper()
	start := time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)
	h := &harness{
		clock: simclock.New(start),
		store: timeseries.NewStore(testRes, 4096),
		fj:    &fakeJournal{},
	}
	h.clock.Every(testRes, func(now time.Time) { push(now, h.store) })
	h.eng = NewEngine(spec)
	h.eng.Bind(h.fj, h.store)
	h.eng.Start(h.clock)
	return h
}

func (h *harness) run(d time.Duration) { h.clock.RunUntil(h.clock.Now().Add(d)) }

func countKind(anns []fabric.Annotation, kind string) int {
	n := 0
	for _, a := range anns {
		if a.Kind == kind {
			n++
		}
	}
	return n
}

func TestThresholdFireAndResolve(t *testing.T) {
	down := false
	spec := &Spec{Rules: []ThresholdRule{{
		Name: "nodes-down", Series: "cluster.upNodes",
		Op: OpLT, Threshold: 14, ForMinutes: 20,
	}}}
	h := newHarness(t, spec, func(now time.Time, s *timeseries.Store) {
		up := 14.0
		if down {
			up = 13
		}
		s.Series("cluster.upNodes").Push(up)
	})

	h.run(time.Hour)
	if got := h.eng.Stats(); got.Fired != 0 {
		t.Fatalf("fired with healthy samples: %+v", got)
	}

	down = true
	h.run(45 * time.Minute)
	st := h.eng.Stats()
	if st.Fired != 1 || st.Active != 1 {
		t.Fatalf("after 45m degraded: %+v", st)
	}
	// The 20m sustain means the alert must not fire on the first bad tick.
	fireAnn := h.fj.anns[len(h.fj.anns)-1]
	if fireAnn.Kind != KindAlertFiring || fireAnn.Detail != "nodes-down" {
		t.Fatalf("last annotation = %+v", fireAnn)
	}

	down = false
	h.run(30 * time.Minute)
	st = h.eng.Stats()
	if st.Resolved != 1 || st.Active != 0 {
		t.Fatalf("after recovery: %+v", st)
	}
	if countKind(h.fj.anns, KindAlertResolved) != 1 {
		t.Fatalf("annotations: %+v", h.fj.anns)
	}
	// The resolution chains to the firing annotation.
	res := h.fj.anns[len(h.fj.anns)-1]
	if res.CauseSeq != fireAnn.Seq {
		t.Fatalf("resolved CauseSeq = %d, want %d", res.CauseSeq, fireAnn.Seq)
	}
}

func TestBurnRateFiresAndAnchorsToIncident(t *testing.T) {
	var errRate float64
	spec := &Spec{SLOs: []SLORule{{
		Name: "failover-budget", Series: "cluster.failovers.delta",
		Budget: 144, BudgetDays: 1, // 1 error/10m budget rate
		Windows: []BurnWindow{{LongMinutes: 60, ShortMinutes: 10, Burn: 10}},
	}}}
	h := newHarness(t, spec, func(now time.Time, s *timeseries.Store) {
		s.Series("cluster.failovers.delta").Push(errRate)
	})

	h.run(2 * time.Hour)
	if st := h.eng.Stats(); st.Fired != 0 {
		t.Fatalf("fired on zero errors: %+v", st)
	}

	// Incident: a chaos injection immediately followed by an error burst.
	h.fj.Annotate(fabric.Annotation{
		Kind: "chaos-injection", Time: h.clock.Now(),
		Cause: fabric.CauseChaos, Detail: "node-crash",
	})
	chaosSeq := h.fj.seq
	// Also a violation anchor after it: the chaos must still win.
	h.fj.Annotate(fabric.Annotation{Kind: "violation", Time: h.clock.Now()})
	errRate = 60 // burn 60 over both windows at first tick
	h.run(testRes)

	st := h.eng.Stats()
	if st.Fired != 1 {
		t.Fatalf("burn alert did not fire: %+v", st)
	}
	var fire fabric.Annotation
	for _, a := range h.fj.anns {
		if a.Kind == KindAlertFiring {
			fire = a
		}
	}
	if fire.CauseSeq != chaosSeq || fire.Cause != fabric.CauseChaos {
		t.Fatalf("firing bracketed to (%d,%v), want chaos anchor (%d,%v)",
			fire.CauseSeq, fire.Cause, chaosSeq, fabric.CauseChaos)
	}
	active := h.eng.Active()
	if len(active) != 1 || active[0].Root != "chaos" {
		t.Fatalf("active = %+v", active)
	}

	// Burst over: the 10m short window clears next tick, the long window
	// alone must not hold the alert.
	errRate = 0
	h.run(30 * time.Minute)
	if st := h.eng.Stats(); st.Resolved != 1 || st.Active != 0 {
		t.Fatalf("after burst: %+v", st)
	}
}

func TestEmptySpecRegistersNoListener(t *testing.T) {
	h := newHarness(t, nil, func(now time.Time, s *timeseries.Store) {
		s.Series("cluster.upNodes").Push(14)
	})
	if len(h.fj.listeners) != 0 {
		t.Fatal("empty spec subscribed to the annotation stream")
	}
	h.run(time.Hour)
	if len(h.fj.anns) != 0 {
		t.Fatalf("empty spec annotated: %+v", h.fj.anns)
	}
}

func TestEvaluateZeroAllocSteadyState(t *testing.T) {
	spec := &Spec{
		Rules: []ThresholdRule{{Name: "t", Series: "cluster.upNodes", Op: OpLT, Threshold: 1}},
		SLOs: []SLORule{{Name: "s", Series: "cluster.failovers.delta",
			Budget: 1000, BudgetDays: 30}},
	}
	h := newHarness(t, spec, func(now time.Time, s *timeseries.Store) {
		s.Series("cluster.upNodes").Push(14)
		s.Series("cluster.failovers.delta").Push(0)
	})
	h.run(time.Hour)
	now := h.clock.Now()
	if allocs := testing.AllocsPerRun(200, func() { h.eng.evaluate(now) }); allocs != 0 {
		t.Fatalf("steady-state evaluate allocates: %v allocs/op", allocs)
	}

	empty := NewEngine(nil)
	empty.Bind(nil, h.store)
	if allocs := testing.AllocsPerRun(200, func() { empty.evaluate(now) }); allocs != 0 {
		t.Fatalf("rule-less evaluate allocates: %v allocs/op", allocs)
	}
}

func TestSubscribeStream(t *testing.T) {
	down := false
	spec := &Spec{Rules: []ThresholdRule{{
		Name: "nodes-down", Series: "cluster.upNodes", Op: OpLT, Threshold: 14,
	}}}
	h := newHarness(t, spec, func(now time.Time, s *timeseries.Store) {
		up := 14.0
		if down {
			up = 12
		}
		s.Series("cluster.upNodes").Push(up)
	})
	ch, cancel := h.eng.Subscribe(64)
	h.run(30 * time.Minute)
	down = true
	h.run(testRes)

	var samples, alerts int
	for {
		select {
		case ev := <-ch:
			switch ev.Type {
			case "sample":
				samples++
				if _, ok := ev.Series["cluster.upNodes"]; !ok {
					t.Fatalf("sample without cluster series: %+v", ev)
				}
			case "alert":
				alerts++
				if ev.Alert.Rule != "nodes-down" || ev.Alert.State != "firing" {
					t.Fatalf("alert event = %+v", ev.Alert)
				}
			}
			continue
		default:
		}
		break
	}
	if samples == 0 || alerts != 1 {
		t.Fatalf("stream saw %d samples, %d alerts", samples, alerts)
	}
	cancel()
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}

	ch2, _ := h.eng.Subscribe(1)
	h.eng.Stop()
	if _, open := <-ch2; open {
		t.Fatal("channel still open after engine stop")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Rules: []ThresholdRule{{Name: "", Series: "x", Op: OpGT}}},
		{Rules: []ThresholdRule{{Name: "a", Series: "", Op: OpGT}}},
		{Rules: []ThresholdRule{{Name: "a", Series: "x", Op: "!="}}},
		{Rules: []ThresholdRule{
			{Name: "a", Series: "x", Op: OpGT},
			{Name: "a", Series: "y", Op: OpLT},
		}},
		{SLOs: []SLORule{{Name: "a", Series: "x", Budget: 0}}},
		{SLOs: []SLORule{{Name: "a", Series: "x", Budget: 1,
			Windows: []BurnWindow{{LongMinutes: 5, ShortMinutes: 30, Burn: 2}}}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, s)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	data := []byte(`{
		"rules": [{"name": "nodes", "series": "cluster.upNodes", "op": "<", "threshold": 14, "forMinutes": 20}],
		"slos": [{"name": "budget", "series": "cluster.failovers.delta", "budget": 1000}]
	}`)
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(s.Rules) != 1 || len(s.SLOs) != 1 {
		t.Fatalf("spec = %+v", s)
	}
	if _, err := ParseSpec([]byte(`{"rules": [{"name": "x"}]}`)); err == nil {
		t.Fatal("invalid spec parsed")
	}
	// A misspelt key fails at parse time instead of loading no rules.
	if _, err := ParseSpec([]byte(`{"rulez": []}`)); err == nil || !strings.Contains(err.Error(), `unknown field "rulez"`) {
		t.Fatalf("misspelt key: err = %v", err)
	}
}
