package fabric

import (
	"fmt"
	"io"
	"testing"
	"time"

	"toto/internal/obs"
	"toto/internal/rng"
	"toto/internal/simclock"
)

// BenchmarkPlacement measures one simulated-annealing placement of a
// 4-replica service on a half-full 14-node cluster — the PLB's hot path.
func BenchmarkPlacement(b *testing.B) {
	cfg := DefaultConfig()
	c := NewCluster(simclock.New(testStart), 14, testCapacity(), cfg)
	for i := 0; i < 100; i++ {
		if _, err := c.CreateService(fmt.Sprintf("seed-%d", i), 1, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-%d", i)
		if _, err := c.CreateService(name, 4, 2, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.DropService(name)
		b.StartTimer()
	}
}

// BenchmarkGreedyPlacement is the ablation baseline for BenchmarkPlacement.
func BenchmarkGreedyPlacement(b *testing.B) {
	cfg := DefaultConfig()
	cfg.GreedyPlacement = true
	c := NewCluster(simclock.New(testStart), 14, testCapacity(), cfg)
	for i := 0; i < 100; i++ {
		if _, err := c.CreateService(fmt.Sprintf("seed-%d", i), 1, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-%d", i)
		if _, err := c.CreateService(name, 4, 2, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.DropService(name)
		b.StartTimer()
	}
}

// BenchmarkPlace measures the PLB's annealing search alone — the inner
// loop of every placement decision — on a half-full 14-node cluster,
// with no service-creation bookkeeping around it.
func BenchmarkPlace(b *testing.B) {
	cfg := DefaultConfig()
	c := NewCluster(simclock.New(testStart), 14, testCapacity(), cfg)
	for i := 0; i < 100; i++ {
		if _, err := c.CreateService(fmt.Sprintf("seed-%d", i), 1, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
	svc := newService("probe", 4, 2, nil, testStart)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.plb.search(svc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceWithTopology is BenchmarkPlace with the cluster striped
// over 4 fault domains and 3 upgrade domains: the same annealing search
// paying the domain-spread cost term and the fault-domain-distinctness
// constraint on every candidate. Its delta against BenchmarkPlace is the
// whole price of topology awareness; the budget is <10% (DESIGN.md §13).
func BenchmarkPlaceWithTopology(b *testing.B) {
	cfg := DefaultConfig()
	cfg.FaultDomains = 4
	cfg.UpgradeDomains = 3
	c := NewCluster(simclock.New(testStart), 14, testCapacity(), cfg)
	for i := 0; i < 100; i++ {
		if _, err := c.CreateService(fmt.Sprintf("seed-%d", i), 1, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
	svc := newService("probe", 4, 2, nil, testStart)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.plb.search(svc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan measures the steady-state violation scan alone (no
// violations present) — the walk over all nodes × metrics the PLB pays
// every 5 simulated minutes.
func BenchmarkScan(b *testing.B) {
	cfg := DefaultConfig()
	c := NewCluster(simclock.New(testStart), 14, testCapacity(), cfg)
	for i := 0; i < 250; i++ {
		svc, err := c.CreateService(fmt.Sprintf("db-%d", i), 1, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		c.ReportLoad(svc.Replicas[0], MetricDiskGB, float64(i%100)*20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.plb.scan(testStart)
	}
}

// BenchmarkPLBScan measures one violation-scan pass over a loaded
// 14-node cluster with no violations (the steady-state cost paid every
// 5 simulated minutes).
func BenchmarkPLBScan(b *testing.B) {
	cfg := DefaultConfig()
	c := NewCluster(simclock.New(testStart), 14, testCapacity(), cfg)
	for i := 0; i < 250; i++ {
		svc, err := c.CreateService(fmt.Sprintf("db-%d", i), 1, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		c.ReportLoad(svc.Replicas[0], MetricDiskGB, float64(i%100)*20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.plb.scan(testStart)
	}
}

// BenchmarkReportLoad measures the per-report bookkeeping cost — called
// once per replica per 20 simulated minutes, the busiest call in a run.
func BenchmarkReportLoad(b *testing.B) {
	c := NewCluster(simclock.New(testStart), 4, testCapacity(), DefaultConfig())
	svc, err := c.CreateService("db", 1, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := svc.Replicas[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReportLoad(r, MetricDiskGB, float64(i%5000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNamingServiceFloat measures the persisted-metric protocol's
// actual round trip: the load travels as a number entry, one write and
// one read per BC primary report, and allocates nothing.
func BenchmarkNamingServiceFloat(b *testing.B) {
	n := NewNamingService()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.PutFloat("toto/load/db/diskGB", 1234.5678)
		if _, ok := n.Float("toto/load/db/diskGB"); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkSimulatedDay measures a full simulated day on a churning
// cluster: PLB scans plus hourly create/drop/report activity.
func BenchmarkSimulatedDay(b *testing.B) {
	benchmarkSimulatedDay(b, nil)
}

// BenchmarkSimulatedDayTraced is the paired run with the observability
// layer enabled (tracer + metrics + discarded logging) — the delta vs
// BenchmarkSimulatedDay is the full cost of instrumentation when on.
func BenchmarkSimulatedDayTraced(b *testing.B) {
	benchmarkSimulatedDay(b, func() *obs.Obs {
		return obs.New(obs.Options{LogWriter: io.Discard, LogLevel: obs.LevelWarn})
	})
}

func benchmarkSimulatedDay(b *testing.B, newObs func() *obs.Obs) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		if newObs != nil {
			cfg.Obs = newObs()
		}
		SimulatedDay(i, cfg, func(clock *simclock.Clock, _ *Cluster) {
			cfg.Obs.SetNow(clock.Now)
		})
	}
}

// SimulatedDay is the body every simulated-day benchmark shares: a
// 14-node cluster built from cfg hosts 200 services, then for 24
// simulated hours gains one churn service an hour and reports a disk load
// for every live service. setup, when set, runs on the started cluster
// before the first service is created; iter keeps churn names distinct
// across benchmark iterations. It is exported for the fabric_test
// benchmarks, which cannot reach this package's fixtures.
func SimulatedDay(iter int, cfg Config, setup func(*simclock.Clock, *Cluster)) {
	clock := simclock.New(testStart)
	c := NewCluster(clock, 14, testCapacity(), cfg)
	c.Start()
	if setup != nil {
		setup(clock, c)
	}
	for j := 0; j < 200; j++ {
		c.CreateService(fmt.Sprintf("db-%d", j), 1, 2, nil)
	}
	hour := 0
	clock.Every(time.Hour, func(now time.Time) {
		hour++
		c.CreateService(fmt.Sprintf("churn-%d-%d", iter, hour), 1, 2, nil)
		c.EachLiveService(func(svc *Service) {
			c.ReportLoad(svc.Replicas[0], MetricDiskGB, float64(hour)*3)
		})
	})
	clock.RunUntil(testStart.Add(24 * time.Hour))
	c.Stop()
}

// BenchmarkSimulatedDayWithFaults is BenchmarkSimulatedDay under an
// active fault schedule: a seeded injector (build failures, report
// loss, naming errors), degraded-mode PLB, and a crash/restart pair —
// the marginal cost of the fault-hardening layer when it is actually
// exercised. Compare against BenchmarkSimulatedDay for the overhead.
func BenchmarkSimulatedDayWithFaults(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SimulatedDay(i, DefaultConfig(), func(clock *simclock.Clock, c *Cluster) {
			root := rng.New(uint64(99))
			c.SetFaultInjector(&chaosTestInjector{
				buildRnd:   root.Split("build"),
				reportRnd:  root.Split("report"),
				namingRnd:  root.Split("naming"),
				buildRate:  0.2,
				reportRate: 0.1,
				namingRate: 0.1,
			})
			c.EnableDegradedMode()
			clock.At(testStart.Add(6*time.Hour), func(time.Time) { _, _, _ = c.CrashNode("node-5") })
			clock.At(testStart.Add(7*time.Hour), func(time.Time) { _ = c.RestartNode("node-5") })
		})
	}
}

// TestDisabledObsFabricZeroAlloc asserts the fabric's disabled-path
// instrumentation allocates nothing: with Config.Obs nil, the span,
// counter, and histogram calls on the PLB hot paths must all be no-ops.
func TestDisabledObsFabricZeroAlloc(t *testing.T) {
	c := NewCluster(simclock.New(testStart), 4, testCapacity(), DefaultConfig())
	svc, err := c.CreateService("db", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := svc.Replicas[0]
	load := 0.0
	if n := testing.AllocsPerRun(200, func() {
		load += 1
		if err := c.ReportLoad(r, MetricDiskGB, load); err != nil {
			t.Fatal(err)
		}
		c.plb.scan(testStart)
	}); n != 0 {
		t.Errorf("disabled obs: ReportLoad+scan allocates %.1f per event, want 0", n)
	}
}
