package traffic_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs/reqtrace"
	"toto/internal/simclock"
	"toto/internal/traffic"
)

// BenchmarkSimulatedDayWithTraffic is the traffic plane's cost on top of
// a simulated fabric day: 10 nodes, 48 services, per-minute admission
// ticks, and the noon outage with its shed/breaker/retry churn.
func BenchmarkSimulatedDayWithTraffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runDay(b, dayOpts{spec: &traffic.Spec{Seed: 7}, outage: true})
	}
}

// BenchmarkSimulatedDayWithTrafficTraced is the same day with request
// tracing on at the default 1-in-1000 success sampling: the tail
// sampler's overhead budget, measured against the untraced twin above.
func BenchmarkSimulatedDayWithTrafficTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runDay(b, dayOpts{spec: &traffic.Spec{Seed: 7, Reqtrace: &reqtrace.Spec{}}, outage: true})
	}
}

// BenchmarkSimulatedDayTrafficHedged is the gray-failure stack's cost:
// the same day with traffic classes, load-aware routing, hedged
// requests, and slow-node detection all armed against a fail-slow node
// ramping to 4×. The delta against BenchmarkSimulatedDayWithTraffic is
// the full price of the resilience layer while it is actually working —
// routing picks, hedge pricing, detector feeds, quarantine, and drain.
func BenchmarkSimulatedDayTrafficHedged(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := &traffic.Spec{
			Seed:    7,
			Classes: &traffic.ClassesSpec{},
			Routing: &traffic.RoutingSpec{},
			Hedge:   &traffic.HedgeSpec{},
		}
		runDay(b, dayOpts{spec: spec, detect: true, slow: true, labels: true})
	}
}

// BenchmarkSimulatedDayNoTraffic is the paired baseline: the identical
// workload and outage with no traffic engine constructed, isolating the
// plane's cost from the fabric's.
func BenchmarkSimulatedDayNoTraffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runDay(b, dayOpts{outage: true})
	}
}

// warmTraffic serves spec on a 10-node cluster hosting 48 services for
// two simulated hours, so every live service has its front-end state.
func warmTraffic(t *testing.T, spec *traffic.Spec) (*simclock.Clock, *traffic.Engine) {
	t.Helper()
	clock := simclock.New(harnessStart)
	c := fabric.NewCluster(clock, 10, harnessCapacity(), fabric.DefaultConfig())
	c.Start()
	for i := 0; i < 48; i++ {
		if _, err := c.CreateService(fmt.Sprintf("db-%d", i), 1+i%2, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := traffic.NewEngine(clock, c, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(harnessStart)
	clock.RunUntil(harnessStart.Add(2 * time.Hour))
	return clock, eng
}

// TestWarmedTrafficTickZeroAlloc pins the steady-state request plane at
// zero allocations: once every live service has its front-end state, a
// tick's sweeps, admission, dispatch and histogram adds allocate nothing.
func TestWarmedTrafficTickZeroAlloc(t *testing.T) {
	clock, eng := warmTraffic(t, &traffic.Spec{Seed: 7})
	if allocs := testing.AllocsPerRun(30, func() {
		clock.RunUntil(clock.Now().Add(time.Minute))
	}); allocs != 0 {
		t.Errorf("a warmed traffic tick allocates %.1f", allocs)
	}
	if st := eng.Stats(); st.Arrivals == 0 {
		t.Fatal("no traffic was generated")
	}
}

// TestWarmedTracedTickAllocsPerKeptTrace pins the traced tick's cost to
// the traces it keeps: the sampler decides before a span is built, so a
// warmed minute in which no group is kept allocates nothing, and every
// kept trace costs exactly allocsPerKeptTrace — its wire-form string,
// which the recorder's ring keeps and the journal annotation's Detail
// shares. The spans go into the engine's reused slice and the recorder
// formats no hex ID. Windows holding the hourly flush, whose verdict
// line is formatted, are skipped.
func TestWarmedTracedTickAllocsPerKeptTrace(t *testing.T) {
	const allocsPerKeptTrace = 1
	clock, eng := warmTraffic(t, &traffic.Spec{Seed: 7, Reqtrace: &reqtrace.Spec{}})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var quiet, keeping int
	var ms runtime.MemStats
	for m := 0; m < 180; m++ {
		to := clock.Now().Add(time.Minute)
		kept := eng.Recorder().Stats().Kept
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		clock.RunUntil(to)
		runtime.ReadMemStats(&ms)
		if to.Minute() == 0 {
			continue // the hourly flush
		}
		allocs := ms.Mallocs - before
		n := eng.Recorder().Stats().Kept - kept
		if allocs != uint64(n*allocsPerKeptTrace) {
			t.Fatalf("minute ending %s kept %d traces and allocated %d, want %d",
				to.Format("15:04"), n, allocs, n*allocsPerKeptTrace)
		}
		if n == 0 {
			quiet++
		} else {
			keeping++
		}
	}
	t.Logf("%d quiet minutes, %d keeping minutes", quiet, keeping)
	if quiet == 0 || keeping == 0 {
		t.Fatalf("%d quiet and %d keeping minutes; the pin needs both", quiet, keeping)
	}
}

// TestNoTrafficZeroAlloc pins the tentpole's inertness guarantee: with no
// traffic spec, no engine exists, and the code this package added to the
// fabric (ServingStateAt, the restoring flag) contributes zero
// allocations to the steady-state hot path.
func TestNoTrafficZeroAlloc(t *testing.T) {
	clock := simclock.New(harnessStart)
	c := fabric.NewCluster(clock, 4, harnessCapacity(), fabric.DefaultConfig())
	c.Start()
	svc, err := c.CreateServiceWithLoads("db-0", 2, 2, nil,
		map[fabric.MetricName]float64{fabric.MetricDiskGB: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep := svc.Replicas[0]
	// Warm the report path so one-time lazy state is off the books.
	for i := 0; i < 8; i++ {
		_ = c.ReportLoad(rep, fabric.MetricMemoryGB, 4)
	}
	now := clock.Now()
	if allocs := testing.AllocsPerRun(200, func() {
		_ = svc.ServingStateAt(now)
	}); allocs != 0 {
		t.Errorf("ServingStateAt allocates %.1f per call on the no-traffic path", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		_ = c.ReportLoad(rep, fabric.MetricMemoryGB, 4)
	}); allocs != 0 {
		t.Errorf("steady-state ReportLoad allocates %.1f per call", allocs)
	}
	// The gray-failure PR's inertness pin: with no detector enabled, the
	// per-tick latency observation hook the traffic plane would call is
	// a free no-op on the no-grayfail path.
	if allocs := testing.AllocsPerRun(200, func() {
		c.ObserveNodeLatency(c.Nodes()[0], 5)
	}); allocs != 0 {
		t.Errorf("ObserveNodeLatency allocates %.1f per call with detection off", allocs)
	}
}
