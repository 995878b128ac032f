package fabric

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"toto/internal/simclock"
)

// stubInjector is a deterministic in-package FaultInjector for unit
// tests (the real engine lives in internal/chaos, which imports fabric).
type stubInjector struct {
	buildFail  func(id ReplicaID, node string, attempt int) bool
	slow       float64
	reportLost func(id ReplicaID, m MetricName) bool
	namingFail func(key string, attempt int) bool
}

func (s *stubInjector) BuildAttemptFails(id ReplicaID, node string, attempt int) bool {
	return s.buildFail != nil && s.buildFail(id, node, attempt)
}
func (s *stubInjector) BuildSlowdownFactor() float64 { return s.slow }
func (s *stubInjector) ReportLost(id ReplicaID, m MetricName) bool {
	return s.reportLost != nil && s.reportLost(id, m)
}
func (s *stubInjector) NamingWriteFails(key string, attempt int) bool {
	return s.namingFail != nil && s.namingFail(key, attempt)
}

func TestCrashEvacuationAccountsUnplanned(t *testing.T) {
	c := newTestCluster(t, 5, 1.0)
	svc, err := c.CreateService("bc", 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var crashed, restarted int
	c.Subscribe(func(ev Event) {
		switch ev.Kind {
		case EventNodeCrashed:
			crashed++
		case EventNodeRestarted:
			restarted++
		}
	})

	primaryNode := svc.Primary().Node
	evacuated, stranded := 0, 0
	if evacuated, stranded, err = c.CrashNode(primaryNode.ID); err != nil {
		t.Fatal(err)
	}
	if evacuated != 1 || stranded != 0 {
		t.Fatalf("evacuated=%d stranded=%d, want 1/0", evacuated, stranded)
	}
	if crashed != 1 {
		t.Fatalf("EventNodeCrashed count = %d", crashed)
	}
	if !primaryNode.Crashed() {
		t.Error("node not marked crashed")
	}

	// The evacuation is an unplanned failover: SLA-priced downtime
	// includes the crash-detection delay plus the promotion swap.
	cfg := c.Config()
	wantDowntime := cfg.CrashDetectionDelay + cfg.PrimarySwapDowntime
	if svc.Downtime != wantDowntime {
		t.Errorf("Downtime = %v, want %v", svc.Downtime, wantDowntime)
	}
	if svc.PlannedDowntime != 0 || svc.PlannedMoves != 0 {
		t.Errorf("planned accounting charged for a crash: %v / %d moves", svc.PlannedDowntime, svc.PlannedMoves)
	}
	if svc.UnplannedFailovers != 1 || c.UnplannedFailoverCount() != 1 {
		t.Errorf("unplanned failovers = %d (cluster %d), want 1", svc.UnplannedFailovers, c.UnplannedFailoverCount())
	}
	if err := CheckInvariants(c); err != nil {
		t.Fatalf("invariants after crash: %v", err)
	}

	// Crashing a node that is already down must fail, restarting it must
	// bring it back as a normal (non-crashed) node.
	if _, _, err := c.CrashNode(primaryNode.ID); err == nil {
		t.Error("double crash succeeded")
	}
	if err := c.RestartNode(primaryNode.ID); err != nil {
		t.Fatal(err)
	}
	if restarted != 1 || !primaryNode.Up() || primaryNode.Crashed() {
		t.Errorf("restart: events=%d up=%v crashed=%v", restarted, primaryNode.Up(), primaryNode.Crashed())
	}
	// Without degraded mode the restarted node is NOT quarantined.
	if primaryNode.Quarantined(c.clock.Now()) {
		t.Error("restart quarantined the node outside degraded mode")
	}
}

// TestCrashDuringBuildAbortsAndReplaces is the regression test for the
// crash-during-build race: a node that dies while a replica's data copy
// onto it is still in flight must abort the build (counter + rolled-back
// accounting) and re-place the replica through the normal deterministic
// path, never leaving a half-built replica attached to a dead node.
func TestCrashDuringBuildAbortsAndReplaces(t *testing.T) {
	c := newTestCluster(t, 6, 1.0)
	svc, err := c.CreateServiceWithLoads("bc", 3, 4, nil,
		map[MetricName]float64{MetricDiskGB: 400})
	if err != nil {
		t.Fatal(err)
	}
	// Move a secondary to a fresh node: 400 GB at the default build rate
	// is a build measured in minutes, so it is still in flight "now".
	var r *Replica
	for _, rep := range svc.Replicas {
		if rep.Role == Secondary {
			r = rep
			break
		}
	}
	var target *Node
	for _, n := range c.Nodes() {
		if n != r.Node && !c.plb.hostsServiceReplica(n, svc, r) {
			target = n
			break
		}
	}
	if err := c.ForceMove(r.ID, target.ID); err != nil {
		t.Fatal(err)
	}
	now := c.clock.Now()
	if !r.Building(now) {
		t.Fatalf("move of 400 GB completed instantly; buildDoneAt=%v", r.buildDoneAt)
	}

	if _, _, err := c.CrashNode(target.ID); err != nil {
		t.Fatal(err)
	}
	if c.BuildAbortCount() != 1 {
		t.Errorf("build aborts = %d, want 1", c.BuildAbortCount())
	}
	if r.Node == target {
		t.Fatal("replica still attached to the crashed node")
	}
	if r.Node == nil || !r.Node.Up() {
		t.Fatalf("replica not re-placed on an up node: %v", r.Node)
	}
	if r.Building(c.clock.Now()) {
		// The aborted copy restarted from the replica's post-move state
		// (zero reported disk), so the fresh build is instant.
		t.Error("aborted build still marked in flight after re-placement")
	}
	// The dead node must not carry any of the replica's load accounting.
	if got := target.Load(MetricCores); got != 0 {
		t.Errorf("crashed node still holds %v reserved cores", got)
	}
	if err := CheckInvariants(c); err != nil {
		t.Fatalf("invariants after crash-during-build: %v", err)
	}
}

func TestBuildRetriesStretchBuildAndEscalate(t *testing.T) {
	c := newTestCluster(t, 6, 1.0)
	a, err := c.CreateServiceWithLoads("bc-a", 3, 4, nil, map[MetricName]float64{MetricDiskGB: 250})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateServiceWithLoads("bc-b", 3, 4, nil, map[MetricName]float64{MetricDiskGB: 250})
	if err != nil {
		t.Fatal(err)
	}
	var builds []time.Duration
	c.Subscribe(func(ev Event) {
		if ev.Kind == EventFailover {
			builds = append(builds, ev.BuildDuration)
		}
	})
	base := time.Duration(250 / c.Config().BuildRateGBPerSec * float64(time.Second))

	// Fail the first two attempts of every build: the move still lands,
	// but the event's build duration carries two wasted copies plus
	// backoff.
	inj := &stubInjector{buildFail: func(_ ReplicaID, _ string, attempt int) bool { return attempt <= 2 }}
	c.SetFaultInjector(inj)
	moveSecondary := func(svc *Service) {
		t.Helper()
		for _, rep := range svc.Replicas {
			if rep.Role != Secondary {
				continue
			}
			for _, n := range c.Nodes() {
				if n != rep.Node && n.Up() && !c.plb.hostsServiceReplica(n, svc, rep) {
					if err := c.ForceMove(rep.ID, n.ID); err != nil {
						t.Fatal(err)
					}
					return
				}
			}
		}
		t.Fatal("no movable secondary")
	}
	moveSecondary(a)
	if c.BuildRetryCount() != 2 || c.BuildFailureCount() != 0 {
		t.Fatalf("retries=%d failures=%d, want 2/0", c.BuildRetryCount(), c.BuildFailureCount())
	}
	if len(builds) != 1 || builds[0] < 3*base {
		t.Fatalf("build duration %v does not include 2 retried copies of %v", builds, base)
	}

	// Exhaust the budget: the build escalates (counted) and the final
	// attempt proceeds via the slow path; the replica still lands.
	inj.buildFail = func(ReplicaID, string, int) bool { return true }
	moveSecondary(b)
	max := c.Config().RetryMaxAttempts
	if c.BuildRetryCount() != 2+max || c.BuildFailureCount() != 1 {
		t.Fatalf("retries=%d failures=%d, want %d/1", c.BuildRetryCount(), c.BuildFailureCount(), 2+max)
	}
	if err := CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSlowdownFactorScalesBuild(t *testing.T) {
	c := newTestCluster(t, 6, 1.0)
	svc, err := c.CreateServiceWithLoads("bc", 3, 4, nil, map[MetricName]float64{MetricDiskGB: 100})
	if err != nil {
		t.Fatal(err)
	}
	var builds []time.Duration
	c.Subscribe(func(ev Event) {
		if ev.Kind == EventFailover {
			builds = append(builds, ev.BuildDuration)
		}
	})
	c.SetFaultInjector(&stubInjector{slow: 3})
	var moved bool
	for _, rep := range svc.Replicas {
		if rep.Role != Secondary {
			continue
		}
		for _, n := range c.Nodes() {
			if n != rep.Node && !c.plb.hostsServiceReplica(n, svc, rep) {
				if err := c.ForceMove(rep.ID, n.ID); err != nil {
					t.Fatal(err)
				}
				moved = true
			}
			if moved {
				break
			}
		}
		break
	}
	base := time.Duration(100 / c.Config().BuildRateGBPerSec * float64(time.Second))
	if len(builds) != 1 || builds[0] != 3*base {
		t.Fatalf("build = %v, want exactly 3×%v", builds, base)
	}
}

func TestNamingWriteRetryAndDrop(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	inj := &stubInjector{namingFail: func(_ string, attempt int) bool { return attempt <= 2 }}
	c.SetFaultInjector(inj)
	ns := c.Naming()

	if v := ns.Put("k", []byte("v")); v != 1 {
		t.Fatalf("Put with transient failures returned version %d, want 1", v)
	}
	if ns.WriteRetries() != 2 || ns.WriteDrops() != 0 {
		t.Fatalf("retries=%d drops=%d, want 2/0", ns.WriteRetries(), ns.WriteDrops())
	}

	inj.namingFail = func(string, int) bool { return true }
	if v := ns.Put("k2", []byte("v")); v != 0 {
		t.Fatalf("Put past the retry budget returned %d, want 0 (dropped)", v)
	}
	if ns.WriteDrops() != 1 {
		t.Fatalf("drops = %d, want 1", ns.WriteDrops())
	}
	if _, _, ok := ns.Get("k2"); ok {
		t.Error("dropped write is visible")
	}
	if ns.MaxEntryVersion() > ns.CurrentVersion() {
		t.Error("entry version exceeds store version")
	}

	// Removing the injector restores normal writes.
	c.SetFaultInjector(nil)
	if v := ns.Put("k3", []byte("v")); v == 0 {
		t.Error("write failed with injector removed")
	}

	// A number write goes through the same retries and drops.
	c = newTestCluster(t, 2, 1.0)
	inj = &stubInjector{namingFail: func(_ string, attempt int) bool { return attempt <= 2 }}
	c.SetFaultInjector(inj)
	ns = c.Naming()
	if v := ns.PutFloat("n", 1.5); v != 1 {
		t.Fatalf("PutFloat with transient failures returned version %d, want 1", v)
	}
	if ns.WriteRetries() != 2 || ns.WriteDrops() != 0 {
		t.Fatalf("PutFloat: retries=%d drops=%d, want 2/0", ns.WriteRetries(), ns.WriteDrops())
	}
	inj.namingFail = func(string, int) bool { return true }
	if v := ns.PutFloat("n", 2.5); v != 0 {
		t.Fatalf("PutFloat past the retry budget returned %d, want 0 (dropped)", v)
	}
	if ns.WriteDrops() != 1 {
		t.Fatalf("PutFloat: drops = %d, want 1", ns.WriteDrops())
	}
	if v, ok := ns.Float("n"); !ok || v != 1.5 {
		t.Errorf("after the dropped write Float = %v, %v, want the previous 1.5", v, ok)
	}

	// So does a value write.
	c = newTestCluster(t, 2, 1.0)
	inj = &stubInjector{namingFail: func(_ string, attempt int) bool { return attempt <= 2 }}
	c.SetFaultInjector(inj)
	ns = c.Naming()
	first := &struct{ n int }{1}
	if v := ns.PutValue("m", first); v != 1 {
		t.Fatalf("PutValue with transient failures returned version %d, want 1", v)
	}
	if ns.WriteRetries() != 2 || ns.WriteDrops() != 0 {
		t.Fatalf("PutValue: retries=%d drops=%d, want 2/0", ns.WriteRetries(), ns.WriteDrops())
	}
	inj.namingFail = func(string, int) bool { return true }
	if v := ns.PutValue("m", &struct{ n int }{2}); v != 0 {
		t.Fatalf("PutValue past the retry budget returned %d, want 0 (dropped)", v)
	}
	if ns.WriteDrops() != 1 || ns.CurrentVersion() != 1 {
		t.Fatalf("PutValue: drops = %d, version = %d, want 1, 1", ns.WriteDrops(), ns.CurrentVersion())
	}
	if v, ok := ns.Value("m"); !ok || v != first {
		t.Errorf("after the dropped write Value = %v, %v, want the previous %p", v, ok, first)
	}
}

func TestReportLostLeavesLastKnownGood(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	svc, err := c.CreateService("db", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := svc.Replicas[0]
	if err := c.ReportLoad(r, MetricDiskGB, 100); err != nil {
		t.Fatal(err)
	}
	c.SetFaultInjector(&stubInjector{reportLost: func(ReplicaID, MetricName) bool { return true }})
	if err := c.ReportLoad(r, MetricDiskGB, 999); err != nil {
		t.Fatal(err)
	}
	if r.Loads[MetricDiskGB] != 100 || r.Node.Load(MetricDiskGB) != 100 {
		t.Errorf("lost report mutated loads: replica=%v node=%v", r.Loads[MetricDiskGB], r.Node.Load(MetricDiskGB))
	}
	if c.ReportsLostCount() != 1 {
		t.Errorf("lost count = %d", c.ReportsLostCount())
	}
}

// degradedTestCluster builds a cluster with three two-replica-loaded
// nodes over disk capacity, returning the cluster and its clock. Each
// hot node carries two single-replica services at 5000 GB each (10000 >
// 8192 capacity), so every violation is clearable by moving one replica
// to one of the empty nodes.
func degradedTestCluster(t *testing.T) (*Cluster, *simclock.Clock) {
	t.Helper()
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	cfg.DegradedMaxMovesPerScan = 2
	c := NewCluster(clock, 6, testCapacity(), cfg)
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	for i, name := range names {
		svc, err := c.CreateService(name, 1, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := svc.Replicas[0]
		// Co-locate pairs on nodes 0..2 so those nodes go over capacity
		// once loads are reported.
		want := c.Nodes()[i/2]
		if r.Node != want {
			if err := c.ForceMove(r.ID, want.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.ReportLoad(r, MetricDiskGB, 5000); err != nil {
			t.Fatal(err)
		}
	}
	return c, clock
}

func TestDegradedModeThrottlesFailoverStorm(t *testing.T) {
	c, clock := degradedTestCluster(t)
	overCount := func() int {
		over := 0
		for _, n := range c.Nodes() {
			if n.Load(MetricDiskGB) > c.plb.capacity(n, MetricDiskGB) {
				over++
			}
		}
		return over
	}
	if overCount() != 3 {
		t.Fatalf("setup: %d nodes over capacity, want 3", overCount())
	}

	c.EnableDegradedMode()
	moves := 0
	c.Subscribe(func(ev Event) {
		if ev.Kind == EventFailover {
			moves++
		}
	})
	c.plb.scan(clock.Now())
	if moves != 2 {
		t.Fatalf("degraded scan made %d moves, want budget cap 2", moves)
	}
	if overCount() != 1 {
		t.Fatalf("after throttled scan: %d nodes over, want 1 deferred", overCount())
	}
	// The next scan serves the deferred violation.
	c.plb.scan(clock.Now())
	if overCount() != 0 {
		t.Fatalf("deferred violation never served: %d nodes still over", overCount())
	}
	if moves != 3 {
		t.Errorf("total moves = %d, want 3", moves)
	}
	if err := CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestDegradedModeSkipsStaleNodes(t *testing.T) {
	c, clock := degradedTestCluster(t)
	c.EnableDegradedMode()
	// Let every load report age past the staleness timeout.
	clock.RunUntil(testStart.Add(c.Config().LoadStalenessTimeout + time.Minute))

	moves := 0
	c.Subscribe(func(ev Event) {
		if ev.Kind == EventFailover {
			moves++
		}
	})
	c.plb.scan(clock.Now())
	if moves != 0 {
		t.Fatalf("scan moved %d replicas on stale loads, want 0", moves)
	}

	// A fresh report on one hot node re-arms it for the next scan.
	svc := c.Services()[0]
	r := svc.Replicas[0]
	if err := c.ReportLoad(r, MetricDiskGB, 5000); err != nil {
		t.Fatal(err)
	}
	c.plb.scan(clock.Now())
	if moves == 0 {
		t.Fatal("refreshed node was not served")
	}
	// Outside degraded mode staleness is ignored entirely.
	c.DisableDegradedMode()
	c.plb.scan(clock.Now())
	if moves < 3 {
		t.Errorf("normal scan left stale violations unserved: %d moves", moves)
	}
}

func TestRestartUnderDegradedModeQuarantines(t *testing.T) {
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	c := NewCluster(clock, 4, testCapacity(), cfg)
	if _, err := c.CreateService("db", 1, 2, nil); err != nil {
		t.Fatal(err)
	}
	c.EnableDegradedMode()
	n := c.Nodes()[3]
	if _, _, err := c.CrashNode(n.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(n.ID); err != nil {
		t.Fatal(err)
	}
	now := clock.Now()
	if !n.Quarantined(now) {
		t.Fatal("restarted node not quarantined in degraded mode")
	}

	// Quarantined nodes accept no placements even when emptiest.
	svc, err := c.CreateService("db2", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Replicas[0].Node == n {
		t.Error("placement chose a quarantined node")
	}
	// The quarantine lapses after the configured window.
	clock.RunUntil(now.Add(cfg.QuarantineWindow + time.Second))
	if n.Quarantined(clock.Now()) {
		t.Error("quarantine never lapsed")
	}
}

func TestMaintenanceDrainStaysPlanned(t *testing.T) {
	c := newTestCluster(t, 5, 1.0)
	svc, err := c.CreateService("bc", 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := svc.Replicas[0].Node
	if _, _, err := c.SetNodeDown(n.ID); err != nil {
		t.Fatal(err)
	}
	if svc.UnplannedFailovers != 0 || c.UnplannedFailoverCount() != 0 {
		t.Errorf("maintenance drain counted as unplanned: %d", svc.UnplannedFailovers)
	}
	if svc.PlannedMoves == 0 || c.PlannedMoveCount() == 0 {
		t.Error("maintenance drain not counted as planned")
	}
	if svc.TotalDowntime() != svc.Downtime+svc.PlannedDowntime {
		t.Error("TotalDowntime does not sum the split")
	}
}

// TestCrashEvacuationNoHeadroomStrands pins the escalation path of
// evacuateNode when no surviving node has capacity headroom for the
// victims: the replicas strand on the dead node (reported, not silently
// dropped), nothing moves, and a later restart recovers them in place.
func TestCrashEvacuationNoHeadroomStrands(t *testing.T) {
	c := newTestCluster(t, 3, 1.0)
	// One 60-of-64-core service per node: no node can absorb another.
	for i := 0; i < 3; i++ {
		if _, err := c.CreateService(fmt.Sprintf("big-%d", i), 1, 60, nil); err != nil {
			t.Fatal(err)
		}
	}
	svc, ok := c.Service("big-2")
	if !ok {
		t.Fatal("big-2 missing")
	}
	victim := svc.Replicas[0].Node
	evac, stranded, err := c.CrashNode(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if evac != 0 || stranded != 1 {
		t.Fatalf("evacuated=%d stranded=%d, want 0 moved and 1 stranded", evac, stranded)
	}
	if svc.Replicas[0].Node != victim {
		t.Fatalf("stranded replica relocated to %s", svc.Replicas[0].Node.ID)
	}
	if svc.Primary().Node.Up() {
		t.Error("stranded primary's node reports up")
	}
	if err := c.RestartNode(victim.ID); err != nil {
		t.Fatal(err)
	}
	if !svc.Primary().Node.Up() {
		t.Error("service not recovered after the stranding node restarted")
	}
}

// TestDrainRacingCrashOnSameNode pins the maintenance/chaos collision on
// one node: whichever path takes the node down first wins, the loser
// gets a clean "already down" error instead of double-evacuating, and
// the cluster stays consistent.
func TestDrainRacingCrashOnSameNode(t *testing.T) {
	c := newTestCluster(t, 6, 1.0)
	clock := c.clock
	for i := 0; i < 8; i++ {
		if _, err := c.CreateService(fmt.Sprintf("db-%d", i), 1, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	at := testStart.Add(time.Hour)
	var drainErr, crashErr error
	// Same simulated instant; callbacks fire in scheduling order, so the
	// drain lands first and the chaos crash hits an already-down node.
	clock.At(at, func(time.Time) { _, _, drainErr = c.SetNodeDown("node-0") })
	clock.At(at, func(time.Time) { _, _, crashErr = c.CrashNode("node-0") })
	// And the mirror race on another node: crash first, drain second.
	clock.At(at, func(time.Time) { _, _, crashErr2 := c.CrashNode("node-1"); _ = crashErr2 })
	var drainErr2 error
	clock.At(at, func(time.Time) { _, _, drainErr2 = c.SetNodeDown("node-1") })
	clock.RunUntil(at.Add(time.Minute))

	if drainErr != nil {
		t.Errorf("drain (first mover): %v", drainErr)
	}
	if crashErr == nil || !strings.Contains(crashErr.Error(), "already down") {
		t.Errorf("crash after drain: err = %v, want already-down", crashErr)
	}
	if drainErr2 == nil || !strings.Contains(drainErr2.Error(), "already down") {
		t.Errorf("drain after crash: err = %v, want already-down", drainErr2)
	}
	if err := CheckInvariants(c); err != nil {
		t.Errorf("invariants after the race: %v", err)
	}
	// Every replica evacuated exactly once: none left on the down nodes.
	for _, svc := range c.LiveServices() {
		for _, r := range svc.Replicas {
			if r.Node.ID == "node-0" || r.Node.ID == "node-1" {
				t.Errorf("replica %s left on down node %s", r.ID, r.Node.ID)
			}
		}
	}
	if err := c.SetNodeUp("node-0"); err != nil {
		t.Errorf("restoring drained node: %v", err)
	}
	if err := c.RestartNode("node-1"); err != nil {
		t.Errorf("restarting crashed node: %v", err)
	}
}
