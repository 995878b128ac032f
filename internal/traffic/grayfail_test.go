package traffic_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"toto/internal/controlplane"
	"toto/internal/fabric"
	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
	"toto/internal/simclock"
	"toto/internal/slo"
	"toto/internal/traffic"
)

// goldenGrayfailStreamHash locks the gray-failure day: the seed-29
// fail-slow day served with classes, load-aware routing, hedging, and
// slow-node detection all on, hashed over the traffic vocabulary plus
// the hedge and slow-node annotation kinds. If this moves, the hedge
// arithmetic, routing choice, class order, or detector timing changed
// and the commit must say why.
const (
	goldenGrayfailStreamHash  = "a1da23eaad1379879f2ccdd4cc6919bb49031463155b9bf6a9626db6691bff1a"
	goldenGrayfailStreamCount = 180
)

// grayfailSlowFn is the deterministic fail-slow stand-in the traffic
// tests use instead of a chaos engine (importing internal/chaos here
// would cycle): node-3 ramps to a 4× service-time multiplier over hour
// 8, holds the plateau until hour 15, and recovers during hour 15–16.
func grayfailSlowFn(node string, now time.Time) float64 {
	if node != "node-3" {
		return 1
	}
	h := now.Sub(harnessStart).Hours()
	switch {
	case h < 8 || h >= 16:
		return 1
	case h < 9:
		return 1 + 3*(h-8)
	case h < 15:
		return 4
	default:
		return 4 - 3*(h-15)
	}
}

// grayfailKind extends the traffic vocabulary with the hedge and
// slow-node annotation kinds the gray-failure path adds.
func grayfailKind(kind string) bool {
	switch kind {
	case traffic.KindRequestHedged, traffic.KindHedgeBudgetExhausted,
		"slow-node-detected", "slow-node-quarantined", "slow-node-recovered":
		return true
	}
	return trafficKind(kind)
}

// mitigatedSpec is the full gray-failure resilience configuration the
// golden and mitigation tests run with.
func mitigatedSpec(seed uint64) *traffic.Spec {
	return &traffic.Spec{
		Seed:     seed,
		SLOP99Ms: 55,
		Classes:  &traffic.ClassesSpec{},
		Routing:  &traffic.RoutingSpec{},
		Hedge:    &traffic.HedgeSpec{BudgetRatio: 0.05},
	}
}

// TestGrayfailDayDeterminism pins the gray-failure golden: the fully
// mitigated fail-slow day is bit-reproducible, matches its golden hash,
// and exercises the whole new annotation vocabulary.
func TestGrayfailDayDeterminism(t *testing.T) {
	run := func() []journal.Entry {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		runDay(t, dayOpts{spec: mitigatedSpec(29), detect: true, slow: true, labels: true, w: w})
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		entries, err := journal.Read(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return entries
	}
	first := run()
	second := run()
	h1, n1 := annotationHash(first, grayfailKind)
	h2, n2 := annotationHash(second, grayfailKind)
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed grayfail streams diverge: %s/%d vs %s/%d", h1, n1, h2, n2)
	}
	t.Logf("grayfail annotations: %d, hash %s", n1, h1)
	if n1 != goldenGrayfailStreamCount {
		t.Errorf("grayfail annotation count = %d, want golden %d", n1, goldenGrayfailStreamCount)
	}
	if h1 != goldenGrayfailStreamHash {
		t.Errorf("grayfail stream hash = %s, want golden %s", h1, goldenGrayfailStreamHash)
	}

	seen := map[string]bool{}
	for i := range first {
		if first[i].Type == journal.TypeAnnotation {
			seen[first[i].Kind] = true
		}
	}
	for _, kind := range []string{
		traffic.KindRequestHedged, traffic.KindHedgeBudgetExhausted,
		"slow-node-detected", "slow-node-quarantined", "slow-node-recovered",
	} {
		if !seen[kind] {
			t.Errorf("grayfail day never emitted %q", kind)
		}
	}
}

// TestGrayfailMitigationReducesTail is the issue's headline acceptance
// at the traffic level: against the identical fail-slow day, hedging +
// routing + quarantine measurably reduce the run p99 and the SLO
// violation count versus the unmitigated twin.
func TestGrayfailMitigationReducesTail(t *testing.T) {
	unmit, _ := runDay(t, dayOpts{
		spec: &traffic.Spec{Seed: 29, SLOP99Ms: 55}, slow: true, labels: true,
	})
	mit, slow := runDay(t, dayOpts{
		spec: mitigatedSpec(29), detect: true, slow: true, labels: true,
	})
	t.Logf("unmitigated: p99=%.1fms sloViolations=%d", unmit.P99Ms, unmit.SLOViolationHours)
	t.Logf("mitigated:   p99=%.1fms sloViolations=%d hedges=%d wins=%d denied=%d slow=%+v",
		mit.P99Ms, mit.SLOViolationHours, mit.Hedges, mit.HedgeWins, mit.HedgesDenied, slow)

	if unmit.SLOViolationHours == 0 {
		t.Fatal("fail-slow day never violated the SLO unmitigated — the fault does not bite")
	}
	if mit.P99Ms >= unmit.P99Ms {
		t.Errorf("mitigation did not reduce p99: %.2f >= %.2f", mit.P99Ms, unmit.P99Ms)
	}
	if mit.SLOViolationHours > unmit.SLOViolationHours {
		t.Errorf("mitigation added SLO violations: %d > %d", mit.SLOViolationHours, unmit.SLOViolationHours)
	}
	if mit.Hedges == 0 || mit.HedgeWins == 0 {
		t.Errorf("no hedges raced during the fail-slow window: %d granted, %d wins", mit.Hedges, mit.HedgeWins)
	}
	if slow.Detections == 0 || slow.Quarantines == 0 {
		t.Errorf("detector never quarantined the slow node: %+v", slow)
	}
	if slow.DrainMoves == 0 {
		t.Errorf("quarantine never drained the slow node: %+v", slow)
	}
	// The budget bound, end to end: hedges never exceed their ratio of
	// offered load.
	if limit := int64(0.05*float64(mit.Arrivals)) + 1; mit.Hedges > limit {
		t.Errorf("hedges %d exceed 5%% of %d arrivals", mit.Hedges, mit.Arrivals)
	}
}

// TestHedgingLeavesRetryBudgetUntouched pins the budget separation: a
// hedged run of the fail-slow day grants exactly the same retries as the
// unhedged twin — hedge tokens and retry tokens never mix — while the
// arrival stream and failure accounting stay identical.
func TestHedgingLeavesRetryBudgetUntouched(t *testing.T) {
	plain, _ := runDay(t, dayOpts{
		spec: &traffic.Spec{Seed: 31, SLOP99Ms: 55}, slow: true,
	})
	hedged, _ := runDay(t, dayOpts{
		spec: &traffic.Spec{Seed: 31, SLOP99Ms: 55, Hedge: &traffic.HedgeSpec{}}, slow: true,
	})

	if hedged.Arrivals != plain.Arrivals || hedged.Admitted != plain.Admitted {
		t.Errorf("hedging perturbed the arrival stream: %d/%d vs %d/%d",
			hedged.Arrivals, hedged.Admitted, plain.Arrivals, plain.Admitted)
	}
	if hedged.Retries != plain.Retries || hedged.RetriesDenied != plain.RetriesDenied {
		t.Errorf("hedging changed retry accounting: %d/%d vs %d/%d",
			hedged.Retries, hedged.RetriesDenied, plain.Retries, plain.RetriesDenied)
	}
	if hedged.Shed != plain.Shed || hedged.Errors != plain.Errors {
		t.Errorf("hedging changed failure accounting: shed %d vs %d, errors %d vs %d",
			hedged.Shed, plain.Shed, hedged.Errors, plain.Errors)
	}
	if hedged.Hedges == 0 {
		t.Error("fail-slow day granted no hedges")
	}
	if limit := int64(0.02*float64(hedged.Arrivals)) + 1; hedged.Hedges > limit {
		t.Errorf("hedges %d exceed default budget of %d arrivals", hedged.Hedges, hedged.Arrivals)
	}
	if hedged.P99Ms > plain.P99Ms {
		t.Errorf("hedging worsened p99: %.2f > %.2f", hedged.P99Ms, plain.P99Ms)
	}
}

// TestTrafficClassShedOrder is the acceptance check for class-ordered
// shedding: under the noon crash overload, standard services shed at a
// multiple of the premium rate, because premium admits first from the
// shared bucket.
func TestTrafficClassShedOrder(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	spec := &traffic.Spec{Seed: 13, Classes: &traffic.ClassesSpec{}}
	st, _ := runDay(t, dayOpts{spec: spec, outage: true, labels: true, w: w})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Shed == 0 {
		t.Fatal("outage shed nothing — overload never happened")
	}
	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var premShed, stdShed float64
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation || e.Kind != traffic.KindRequestShed {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(e.Service, "db-"))
		if err != nil {
			t.Fatalf("unexpected service %q in shed annotation", e.Service)
		}
		if idx%4 == 0 {
			premShed += e.Value
		} else {
			stdShed += e.Value
		}
	}
	// Demand is proportional to reserved cores: premium services hold
	// 12×8 = 96 of 240 cores (40%). Shed-per-core must be lopsided
	// toward standard.
	premRate := premShed / 96
	stdRate := stdShed / 144
	t.Logf("shed: premium %.0f (%.2f/core), standard %.0f (%.2f/core)", premShed, premRate, stdShed, stdRate)
	if stdShed == 0 {
		t.Fatal("standard class never shed under overload")
	}
	if premRate >= stdRate/2 {
		t.Errorf("shed order not honored: premium %.2f/core vs standard %.2f/core", premRate, stdRate)
	}
}

// TestTrafficClassFollowsLabelRewrite: a service's class is resolved
// every tick, not once per service life. Keyed on the slo label, which
// the control plane rewrites when it resizes a database, a service
// scaled into the premium SLO is served ahead of the standard ones on
// the very next tick, and back in name order once scaled down again.
func TestTrafficClassFollowsLabelRewrite(t *testing.T) {
	clock := simclock.New(harnessStart)
	c := fabric.NewCluster(clock, 4, harnessCapacity(), fabric.DefaultConfig())
	cp := controlplane.New(c, slo.Gen5())
	for _, db := range []string{"db-a", "db-b", "db-c"} {
		if _, err := cp.CreateDatabase(db, "GP_Gen5_2"); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	spec := &traffic.Spec{
		Seed:     5,
		Classes:  &traffic.ClassesSpec{Label: controlplane.LabelSLO, PremiumEditions: []string{"GP_Gen5_8"}},
		Reqtrace: &reqtrace.Spec{SampleOneIn: 1},
	}
	eng, err := traffic.NewEngine(clock, c, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every group is kept, so the request-trace annotations list each
	// tick's services in serve order.
	var order []string
	c.SubscribeAnnotations(func(a fabric.Annotation) {
		if a.Kind == traffic.KindRequestTrace && (len(order) == 0 || order[len(order)-1] != a.Service) {
			order = append(order, a.Service)
		}
	})
	eng.Start(harnessStart)
	tick := func() string {
		order = order[:0]
		clock.RunUntil(clock.Now().Add(time.Minute))
		return strings.Join(order, ",")
	}
	scale := func(db, to string) {
		if _, _, err := cp.ScaleDatabase(db, to); err != nil {
			t.Fatal(err)
		}
	}

	if got := tick(); got != "db-a,db-b,db-c" {
		t.Fatalf("all standard: served %s, want name order", got)
	}
	scale("db-c", "GP_Gen5_8")
	if got := tick(); got != "db-c,db-a,db-b" {
		t.Fatalf("after db-c scaled to premium: served %s, want db-c first", got)
	}
	if got := tick(); got != "db-c,db-a,db-b" {
		t.Fatalf("second premium tick: served %s, want db-c first", got)
	}
	scale("db-c", "GP_Gen5_2")
	if got := tick(); got != "db-a,db-b,db-c" {
		t.Fatalf("after db-c scaled back: served %s, want name order", got)
	}
}
