package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"toto/internal/rng"
	"toto/internal/simclock"
)

// goldenEventStreamHash is the SHA-256 of the full event stream produced
// by simulatedDayEventStream with seed 7. It was recorded from the
// string-keyed-map implementation before the array-backed metric-vector
// refactor; any change to it means a refactor altered a placement,
// failover, balancing, resize, or maintenance decision — i.e. a paper
// figure would change. Update it only for a deliberate behaviour change.
const goldenEventStreamHash = "76db709cbf57b5e3feeed3c7b21a6d803c5da8169ea2dea5105dfe0400dbf159"

// goldenEventStreamCount is the number of events behind the golden hash,
// kept alongside it so a mismatch report says how far the streams
// diverged in size (a same-count mismatch points at event payloads).
const goldenEventStreamCount = 545

// simulatedDayEventStream drives one deterministic simulated day on a
// 12-node cluster through every PLB decision path — annealed placement
// with seeded disk, churn, load growth into capacity violations,
// balancing moves, resizes, and a rolling maintenance upgrade — and
// returns the SHA-256 over the ordered, fully-serialized event stream.
func simulatedDayEventStream(plbSeed uint64) (hash string, events int, kinds map[EventKind]int) {
	return simulatedDay(plbSeed, nil)
}

// simulatedDay is simulatedDayEventStream with attach, when set, called
// on the cluster after the hash subscribes and before the cluster starts.
func simulatedDay(plbSeed uint64, attach func(*Cluster)) (hash string, events int, kinds map[EventKind]int) {
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	cfg.PLBSeed = plbSeed
	cfg.BalancingEnabled = true
	cfg.BalanceSpread = 0.45
	c := NewCluster(clock, 12, testCapacity(), cfg)

	h := sha256.New()
	kinds = make(map[EventKind]int)
	c.Subscribe(func(ev Event) {
		events++
		kinds[ev.Kind]++
		svcName := ""
		if ev.Service != nil {
			svcName = ev.Service.Name
		}
		// Every field of the event participates, with the metric rendered
		// by name so the hash is representation-independent. The metric
		// field only carries meaning on movement events; elsewhere it is
		// the zero value, serialized as the empty string regardless of
		// how MetricName represents it.
		metric := ""
		if ev.Kind == EventFailover || ev.Kind == EventBalanceMove {
			metric = ev.Metric.String()
		}
		fmt.Fprintf(h, "%d|%d|%s|%s/%d|%s|%s|%s|%g|%g|%d|%d\n",
			ev.Kind, ev.Time.UnixNano(), svcName,
			ev.Replica.Service, ev.Replica.Index, ev.From, ev.To,
			metric, ev.MovedCores, ev.MovedDiskGB,
			ev.BuildDuration.Nanoseconds(), ev.Downtime.Nanoseconds())
	})
	if attach != nil {
		attach(c)
	}
	c.Start()

	src := rng.New(0x70707)
	// Initial population: every 4th database is a 4-replica local-store
	// service with substantial seeded data, the rest are single-replica.
	// Seeded disk fills ~80% of cluster disk so growth forces violations.
	for i := 0; i < 140; i++ {
		name := fmt.Sprintf("db-%d", i)
		// Every 10th database grows fast (a busy tenant), concentrating
		// pressure on its nodes so violations and failovers occur.
		var labels map[string]string
		if i%10 == 3 {
			labels = map[string]string{"growth": "fast"}
		}
		if i%4 == 0 {
			loads := map[MetricName]float64{MetricDiskGB: src.UniformRange(150, 700)}
			_, _ = c.CreateServiceWithLoads(name, 4, 2, labels, loads)
		} else {
			loads := map[MetricName]float64{MetricDiskGB: src.UniformRange(5, 150)}
			_, _ = c.CreateServiceWithLoads(name, 1, 2, labels, loads)
		}
	}

	// Hourly churn: creations, drops, and SLO resizes.
	hour := 0
	clock.Every(time.Hour, func(time.Time) {
		hour++
		_, _ = c.CreateService(fmt.Sprintf("churn-%d", hour), 1, 2, nil)
		if hour%5 == 0 {
			_ = c.DropService(fmt.Sprintf("db-%d", hour))
		}
		if hour%7 == 0 {
			_, _ = c.ResizeService(fmt.Sprintf("db-%d", hour+20), float64(2+hour%6))
		}
	})
	// 20-minute load reports: disk growth plus fluctuating memory.
	clock.Every(20*time.Minute, func(time.Time) {
		for _, svc := range c.LiveServices() {
			grow := 2.2
			if svc.Labels["growth"] == "fast" {
				grow = 80
			}
			for _, rep := range svc.Replicas {
				_ = c.ReportLoad(rep, MetricDiskGB, rep.Load(MetricDiskGB)+src.UniformRange(0, grow))
				_ = c.ReportLoad(rep, MetricMemoryGB, src.UniformRange(1, 8))
			}
		}
	})
	// A rolling upgrade window across the afternoon.
	c.ScheduleRollingUpgrade(testStart.Add(10*time.Hour), 30*time.Minute)

	clock.RunUntil(testStart.Add(24 * time.Hour))
	c.Stop()
	return hex.EncodeToString(h.Sum(nil)), events, kinds
}

// goldenChaosEventStreamHash locks the fault-injected variant of the
// simulated day: same workload, plus a seeded injector (build failures,
// report loss, naming errors, slowdown windows), a crash, a flap, and
// degraded-mode PLB. Any change means the fault paths' determinism (or
// inertness ordering) broke. Update only for deliberate changes.
const goldenChaosEventStreamHash = "ace4c84795d3597c413fe0fce4ccacc2edb7ed3a75dc739ac4f741bb315d05cd"

// goldenChaosEventStreamCount pairs with the hash for divergence reports.
const goldenChaosEventStreamCount = 593

// chaosTestInjector is a deterministic window-based injector local to
// this package (the full engine is internal/chaos, which imports fabric;
// using it here would be an import cycle).
type chaosTestInjector struct {
	buildRnd, reportRnd, namingRnd          *rng.Source
	buildRate, reportRate, namingRate, slow float64
}

func (i *chaosTestInjector) BuildAttemptFails(ReplicaID, string, int) bool {
	return i.buildRnd.Bernoulli(i.buildRate)
}
func (i *chaosTestInjector) BuildSlowdownFactor() float64 { return i.slow }
func (i *chaosTestInjector) ReportLost(ReplicaID, MetricName) bool {
	return i.reportRnd.Bernoulli(i.reportRate)
}
func (i *chaosTestInjector) NamingWriteFails(string, int) bool {
	return i.namingRnd.Bernoulli(i.namingRate)
}

// simulatedDayChaosEventStream is simulatedDayEventStream under fire:
// the identical workload with a seeded fault schedule layered on top.
// Returns the stream hash plus the continuous invariant checker's
// violations (which must always be empty).
func simulatedDayChaosEventStream(plbSeed, chaosSeed uint64) (hash string, events int, kinds map[EventKind]int, violations []string) {
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	cfg.PLBSeed = plbSeed
	cfg.BalancingEnabled = true
	cfg.BalanceSpread = 0.45
	c := NewCluster(clock, 12, testCapacity(), cfg)

	h := sha256.New()
	kinds = make(map[EventKind]int)
	c.Subscribe(func(ev Event) {
		events++
		kinds[ev.Kind]++
		svcName := ""
		if ev.Service != nil {
			svcName = ev.Service.Name
		}
		metric := ""
		if ev.Kind == EventFailover || ev.Kind == EventBalanceMove {
			metric = ev.Metric.String()
		}
		fmt.Fprintf(h, "%d|%d|%s|%s/%d|%s|%s|%s|%g|%g|%d|%d\n",
			ev.Kind, ev.Time.UnixNano(), svcName,
			ev.Replica.Service, ev.Replica.Index, ev.From, ev.To,
			metric, ev.MovedCores, ev.MovedDiskGB,
			ev.BuildDuration.Nanoseconds(), ev.Downtime.Nanoseconds())
	})
	checker := NewInvariantChecker(c)
	c.Start()

	// The fault layer: seeded injector with scheduled rate windows, one
	// hard crash, and one two-cycle flap, under degraded-mode PLB.
	root := rng.New(chaosSeed)
	inj := &chaosTestInjector{
		buildRnd:  root.Split("build"),
		reportRnd: root.Split("report"),
		namingRnd: root.Split("naming"),
	}
	c.SetFaultInjector(inj)
	c.EnableDegradedMode()
	at := func(h float64, fn func()) {
		clock.At(testStart.Add(time.Duration(h*float64(time.Hour))), func(time.Time) { fn() })
	}
	at(2, func() { inj.buildRate = 0.5 })
	at(20, func() { inj.buildRate = 0 })
	at(6, func() { inj.reportRate = 0.3 })
	at(12, func() { inj.reportRate = 0 })
	at(8, func() { inj.namingRate = 0.25 })
	at(16, func() { inj.namingRate = 0 })
	at(13, func() { inj.slow = 2.5 })
	at(18, func() { inj.slow = 0 })
	at(4, func() { _, _, _ = c.CrashNode("node-3") })
	at(4.75, func() { _ = c.RestartNode("node-3") })
	// The flap starts after the rolling upgrade's last drain (10h + 12
	// nodes × 30m = 16h) so the crash never collides with a node already
	// down for maintenance.
	for _, f := range []struct{ crash, restart float64 }{{20, 20.2}, {20.5, 20.7}} {
		f := f
		at(f.crash, func() { _, _, _ = c.CrashNode("node-7") })
		at(f.restart, func() { _ = c.RestartNode("node-7") })
	}

	src := rng.New(0x70707)
	for i := 0; i < 140; i++ {
		name := fmt.Sprintf("db-%d", i)
		var labels map[string]string
		if i%10 == 3 {
			labels = map[string]string{"growth": "fast"}
		}
		if i%4 == 0 {
			loads := map[MetricName]float64{MetricDiskGB: src.UniformRange(150, 700)}
			_, _ = c.CreateServiceWithLoads(name, 4, 2, labels, loads)
		} else {
			loads := map[MetricName]float64{MetricDiskGB: src.UniformRange(5, 150)}
			_, _ = c.CreateServiceWithLoads(name, 1, 2, labels, loads)
		}
	}
	hour := 0
	clock.Every(time.Hour, func(time.Time) {
		hour++
		_, _ = c.CreateService(fmt.Sprintf("churn-%d", hour), 1, 2, nil)
		if hour%5 == 0 {
			_ = c.DropService(fmt.Sprintf("db-%d", hour))
		}
		if hour%7 == 0 {
			_, _ = c.ResizeService(fmt.Sprintf("db-%d", hour+20), float64(2+hour%6))
		}
	})
	clock.Every(20*time.Minute, func(time.Time) {
		for _, svc := range c.LiveServices() {
			grow := 2.2
			if svc.Labels["growth"] == "fast" {
				grow = 80.0
			}
			for _, rep := range svc.Replicas {
				_ = c.ReportLoad(rep, MetricDiskGB, rep.Load(MetricDiskGB)+src.UniformRange(0, grow))
				_ = c.ReportLoad(rep, MetricMemoryGB, src.UniformRange(1, 8))
			}
		}
	})
	c.ScheduleRollingUpgrade(testStart.Add(10*time.Hour), 30*time.Minute)

	clock.RunUntil(testStart.Add(24 * time.Hour))
	c.Stop()
	return hex.EncodeToString(h.Sum(nil)), events, kinds, checker.Violations()
}

// TestChaosEventStreamDeterminism is the chaos counterpart of
// TestEventStreamDeterminism: a fixed-seed fault-injected day must be
// bit-reproducible, match its golden hash, exercise the crash paths, and
// come out of the continuous invariant checker clean.
func TestChaosEventStreamDeterminism(t *testing.T) {
	hash1, n1, kinds, viol1 := simulatedDayChaosEventStream(7, 42)
	hash2, n2, _, _ := simulatedDayChaosEventStream(7, 42)
	if hash1 != hash2 || n1 != n2 {
		t.Fatalf("same seeds diverged: %s (%d events) vs %s (%d events)", hash1, n1, hash2, n2)
	}
	t.Logf("chaos event stream: %d events, kinds=%v, hash=%s", n1, kinds, hash1)
	if len(viol1) != 0 {
		t.Errorf("continuous invariant checker found %d violations: %v", len(viol1), viol1)
	}
	if kinds[EventNodeCrashed] != 3 {
		t.Errorf("crashes = %d, want 3 (one crash + two flap cycles)", kinds[EventNodeCrashed])
	}
	if kinds[EventNodeRestarted] != 3 {
		t.Errorf("restarts = %d, want 3", kinds[EventNodeRestarted])
	}
	if kinds[EventFailover] == 0 {
		t.Error("no failovers under chaos; evacuation path untested")
	}
	if hash1 != goldenChaosEventStreamHash {
		t.Errorf("chaos event stream hash = %s (%d events), want golden %s (%d events); "+
			"a change altered fault-injected outcomes",
			hash1, n1, goldenChaosEventStreamHash, goldenChaosEventStreamCount)
	}
	// The chaos layer must actually matter: a different chaos seed, same
	// PLB seed, must produce a different stream.
	hash3, _, _, viol3 := simulatedDayChaosEventStream(7, 43)
	if hash3 == hash1 {
		t.Error("different chaos seeds produced identical event streams")
	}
	if len(viol3) != 0 {
		t.Errorf("invariant violations under chaos seed 43: %v", viol3)
	}
	// And the no-chaos stream must be untouched by the fault layer merely
	// existing in the binary (golden hash asserted by its own test).
}

// the same seed must reproduce the exact event stream run-to-run and
// match the golden hash recorded before the metric-vector refactor, so
// every paper figure derived from the event stream is provably unchanged
// by hot-path work.
func TestEventStreamDeterminism(t *testing.T) {
	hash1, n1, kinds := simulatedDayEventStream(7)
	hash2, n2, _ := simulatedDayEventStream(7)
	if hash1 != hash2 || n1 != n2 {
		t.Fatalf("same seed diverged: %s (%d events) vs %s (%d events)", hash1, n1, hash2, n2)
	}
	t.Logf("event stream: %d events, kinds=%v, hash=%s", n1, kinds, hash1)
	// The scenario must actually exercise the interesting paths, or the
	// hash guards nothing.
	if kinds[EventFailover] == 0 {
		t.Error("scenario produced no failovers; violation path untested")
	}
	if kinds[EventBalanceMove] == 0 {
		t.Error("scenario produced no balance moves; balancing path untested")
	}
	if kinds[EventNodeDown] == 0 {
		t.Error("scenario produced no maintenance events")
	}
	if hash1 != goldenEventStreamHash {
		t.Errorf("event stream hash = %s (%d events), want golden %s (%d events); "+
			"a refactor changed simulation outcomes",
			hash1, n1, goldenEventStreamHash, goldenEventStreamCount)
	}
	// Different seeds must differ — otherwise the hash is insensitive.
	hash3, _, _ := simulatedDayEventStream(8)
	if hash3 == hash1 {
		t.Error("different PLB seeds produced identical event streams")
	}
}

// goldenTopologyEventStreamHash locks the topology-enabled variant of
// the simulated day: the same workload on the same 12 nodes, but striped
// over 4 fault domains and 3 upgrade domains, with the safety-checked
// domain-upgrade walker replacing the legacy node-at-a-time rolling
// upgrade. It pins the fault-domain-spread placement, the domain-aware
// target/victim choices, quorum tracking, and the whole upgrade walk.
// Recorded once; update only for a deliberate behaviour change.
const goldenTopologyEventStreamHash = "68a1101531b72f62adff0cfd4ed7fba26acf557df39799a9529fed22c9505fe0"

// goldenTopologyEventStreamCount is the event count behind the hash.
const goldenTopologyEventStreamCount = 562

// simulatedDayTopologyEventStream is simulatedDayEventStream with the
// cluster topology enabled and a domain upgrade walked across the
// afternoon.
func simulatedDayTopologyEventStream(plbSeed uint64) (hash string, events int, kinds map[EventKind]int) {
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	cfg.PLBSeed = plbSeed
	cfg.BalancingEnabled = true
	cfg.BalanceSpread = 0.45
	cfg.FaultDomains = 4
	cfg.UpgradeDomains = 3
	// 120% density, the paper's elevated-density setting: the workload
	// reserves ~64% of physical cores, and the drained domain's load only
	// fits on the surviving 8 nodes with the over-reservation allowance —
	// at 100% the walk (correctly) stalls on the headroom check all day.
	cfg.Density = 1.2
	c := NewCluster(clock, 12, testCapacity(), cfg)

	h := sha256.New()
	kinds = make(map[EventKind]int)
	c.Subscribe(func(ev Event) {
		events++
		kinds[ev.Kind]++
		svcName := ""
		if ev.Service != nil {
			svcName = ev.Service.Name
		}
		metric := ""
		if ev.Kind == EventFailover || ev.Kind == EventBalanceMove {
			metric = ev.Metric.String()
		}
		fmt.Fprintf(h, "%d|%d|%s|%s/%d|%s|%s|%s|%g|%g|%d|%d\n",
			ev.Kind, ev.Time.UnixNano(), svcName,
			ev.Replica.Service, ev.Replica.Index, ev.From, ev.To,
			metric, ev.MovedCores, ev.MovedDiskGB,
			ev.BuildDuration.Nanoseconds(), ev.Downtime.Nanoseconds())
	})
	c.Start()

	src := rng.New(0x70707)
	for i := 0; i < 140; i++ {
		name := fmt.Sprintf("db-%d", i)
		var labels map[string]string
		if i%10 == 3 {
			labels = map[string]string{"growth": "fast"}
		}
		if i%4 == 0 {
			loads := map[MetricName]float64{MetricDiskGB: src.UniformRange(150, 700)}
			_, _ = c.CreateServiceWithLoads(name, 4, 2, labels, loads)
		} else {
			loads := map[MetricName]float64{MetricDiskGB: src.UniformRange(5, 150)}
			_, _ = c.CreateServiceWithLoads(name, 1, 2, labels, loads)
		}
	}

	hour := 0
	clock.Every(time.Hour, func(time.Time) {
		hour++
		_, _ = c.CreateService(fmt.Sprintf("churn-%d", hour), 1, 2, nil)
		if hour%5 == 0 {
			_ = c.DropService(fmt.Sprintf("db-%d", hour))
		}
		if hour%7 == 0 {
			_, _ = c.ResizeService(fmt.Sprintf("db-%d", hour+20), float64(2+hour%6))
		}
	})
	clock.Every(20*time.Minute, func(time.Time) {
		for _, svc := range c.LiveServices() {
			grow := 2.2
			if svc.Labels["growth"] == "fast" {
				grow = 80.0
			}
			for _, rep := range svc.Replicas {
				_ = c.ReportLoad(rep, MetricDiskGB, rep.Load(MetricDiskGB)+src.UniformRange(0, grow))
				_ = c.ReportLoad(rep, MetricMemoryGB, src.UniformRange(1, 8))
			}
		}
	})
	// The safety-checked domain upgrade across the afternoon, instead of
	// the legacy rolling upgrade. The workload reserves ~64% of cluster
	// cores, leaving less than 10% headroom on the 8 surviving nodes once
	// a 4-node domain's load lands on them — so the golden run uses a 2%
	// requirement, enough to exercise the check without stalling the walk
	// for the whole day.
	_, _ = c.ScheduleDomainUpgrade(testStart.Add(10*time.Hour), UpgradeSpec{
		PerDomain:        30 * time.Minute,
		RetryInterval:    10 * time.Minute,
		Timeout:          12 * time.Hour,
		CapacityHeadroom: 0.02,
	})

	clock.RunUntil(testStart.Add(24 * time.Hour))
	c.CloseQuorumWindows()
	c.Stop()
	return hex.EncodeToString(h.Sum(nil)), events, kinds
}

// TestTopologyEventStreamDeterminism locks the topology-enabled run:
// identical twice in-process, matching the recorded golden hash, with
// the domain upgrade completing inside the day.
func TestTopologyEventStreamDeterminism(t *testing.T) {
	hash1, n1, kinds1 := simulatedDayTopologyEventStream(7)
	hash2, n2, _ := simulatedDayTopologyEventStream(7)
	if hash1 != hash2 || n1 != n2 {
		t.Fatalf("topology event stream not deterministic: %s (%d) vs %s (%d)", hash1, n1, hash2, n2)
	}
	if kinds1[EventUpgradeStarted] != 1 || kinds1[EventUpgradeCompleted] != 1 {
		t.Errorf("upgrade did not run to completion: %v", kinds1)
	}
	if kinds1[EventUpgradeDomainCompleted] != 3 {
		t.Errorf("completed %d upgrade domains, want 3", kinds1[EventUpgradeDomainCompleted])
	}
	if hash1 != goldenTopologyEventStreamHash {
		t.Errorf("topology event stream diverged from golden:\n got %s (%d events)\nwant %s (%d events)",
			hash1, n1, goldenTopologyEventStreamHash, goldenTopologyEventStreamCount)
	}
}
