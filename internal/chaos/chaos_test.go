package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/rng"
	"toto/internal/simclock"
)

var testStart = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func testCapacity() map[fabric.MetricName]float64 {
	return map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"seed": 1, "fautls": []}`)); err == nil {
		t.Error("typoed field accepted")
	}
	s, err := ParseSpec([]byte(`{"seed": 1, "faults": [{"kind": "node-crash", "atHours": 2, "downMinutes": 30}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 1 || len(s.Faults) != 1 {
		t.Errorf("parsed spec %+v", s)
	}
}

func TestValidateRejectsBadFaults(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
		want  string
	}{
		{"unknown kind", Fault{Kind: "meteor-strike"}, "unknown fault kind"},
		{"negative at", Fault{Kind: KindNodeCrash, AtHours: -1}, "negative atHours"},
		{"crash negative down", Fault{Kind: KindNodeCrash, DownMinutes: -5}, "downMinutes"},
		{"flap no count", Fault{Kind: KindNodeFlap, DownMinutes: 1, UpMinutes: 1}, "count"},
		{"flap no gaps", Fault{Kind: KindNodeFlap, Count: 2}, "positive downMinutes"},
		{"domain too few", Fault{Kind: KindDomainOutage, Domains: 1}, "domains >= 2"},
		{"domain out of range", Fault{Kind: KindDomainOutage, Domains: 3, Domain: 3}, "out of range"},
		{"rate zero", Fault{Kind: KindBuildFailures, DurationHours: 1}, "rate"},
		{"rate over one", Fault{Kind: KindReportLoss, Rate: 1.5, DurationHours: 1}, "rate"},
		{"rate no window", Fault{Kind: KindNamingErrors, Rate: 0.5}, "durationHours"},
		{"slowdown factor", Fault{Kind: KindBuildSlowdown, Factor: 0.5, DurationHours: 1}, "exceed 1"},
		{"slowdown no window", Fault{Kind: KindBuildSlowdown, Factor: 2}, "durationHours"},
		{"negative onset", Fault{Kind: KindFailSlow, Factor: 3, DurationHours: 1, OnsetHours: -1}, "negative onsetHours"},
		{"negative recovery", Fault{Kind: KindFailSlow, Factor: 3, DurationHours: 1, RecoveryHours: -0.5}, "negative recoveryHours"},
		{"fail-slow factor low", Fault{Kind: KindFailSlow, Factor: 1, DurationHours: 1}, "outside (1, 100]"},
		{"fail-slow factor high", Fault{Kind: KindFailSlow, Factor: 101, DurationHours: 1}, "outside (1, 100]"},
		{"fail-slow no plateau", Fault{Kind: KindFailSlow, Factor: 3}, "durationHours"},
		{"fail-slow correlate+count", Fault{Kind: KindFailSlow, Factor: 3, DurationHours: 1, CorrelateDomain: true, Count: 2}, "conflicts"},
	}
	for _, tc := range cases {
		s := &Spec{Faults: []Fault{tc.fault}}
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: invalid fault accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// chaosRun drives a small cluster with churn and growth under spec for a
// simulated day and returns a hash over the full event stream plus the
// engine's stats — the fixture for the determinism and property tests.
func chaosRun(t *testing.T, spec *Spec) (hash string, stats Stats) {
	t.Helper()
	clock := simclock.New(testStart)
	cfg := fabric.DefaultConfig()
	cfg.PLBSeed = 77
	c := fabric.NewCluster(clock, 8, testCapacity(), cfg)

	h := sha256.New()
	c.Subscribe(func(ev fabric.Event) {
		svcName := ""
		if ev.Service != nil {
			svcName = ev.Service.Name
		}
		fmt.Fprintf(h, "%d|%d|%s|%s/%d|%s|%s|%d|%d\n",
			ev.Kind, ev.Time.UnixNano(), svcName,
			ev.Replica.Service, ev.Replica.Index, ev.From, ev.To,
			ev.BuildDuration.Nanoseconds(), ev.Downtime.Nanoseconds())
	})
	c.Start()

	eng, err := NewEngine(clock, c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(testStart)

	src := rng.New(0xBEEF)
	for i := 0; i < 60; i++ {
		replicas := 1
		if i%5 == 0 {
			replicas = 3
		}
		loads := map[fabric.MetricName]float64{fabric.MetricDiskGB: src.UniformRange(20, 500)}
		if _, err := c.CreateServiceWithLoads(fmt.Sprintf("db-%d", i), replicas, 2, nil, loads); err != nil {
			t.Fatalf("create db-%d: %v", i, err)
		}
	}
	clock.Every(30*time.Minute, func(now time.Time) {
		for _, svc := range c.LiveServices() {
			for _, rep := range svc.Replicas {
				_ = c.ReportLoad(rep, fabric.MetricDiskGB, rep.Load(fabric.MetricDiskGB)+src.UniformRange(0, 6))
			}
		}
		// Periodic metastore write, standing in for the model-refresh
		// writes the orchestrator performs — the naming-error channel
		// needs write traffic to act on.
		c.Naming().PutValue("models/xml", now)
	})
	clock.RunUntil(testStart.Add(24 * time.Hour))
	c.Stop()
	return hex.EncodeToString(h.Sum(nil)), eng.Stats()
}

func fullSpec(seed uint64) *Spec {
	return &Spec{
		Seed: seed,
		Faults: []Fault{
			{Kind: KindNodeCrash, AtHours: 2, DownMinutes: 45},
			{Kind: KindBuildFailures, AtHours: 1, DurationHours: 12, Rate: 0.5},
			{Kind: KindNodeFlap, AtHours: 6, Count: 2, DownMinutes: 10, UpMinutes: 20},
			{Kind: KindReportLoss, AtHours: 8, DurationHours: 6, Rate: 0.3},
			{Kind: KindDomainOutage, AtHours: 14, Domain: 1, Domains: 4, DownMinutes: 30},
			{Kind: KindNamingErrors, AtHours: 10, DurationHours: 8, Rate: 0.3},
			{Kind: KindBuildSlowdown, AtHours: 16, DurationHours: 4, Factor: 3},
		},
	}
}

// TestEngineDeterminism: the same spec, seed, and workload must inject
// bit-identical faults (same event stream), and a different chaos seed
// must not.
func TestEngineDeterminism(t *testing.T) {
	h1, s1 := chaosRun(t, fullSpec(11))
	h2, s2 := chaosRun(t, fullSpec(11))
	if h1 != h2 {
		t.Fatalf("same chaos seed diverged: %s vs %s", h1, h2)
	}
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	h3, _ := chaosRun(t, fullSpec(12))
	if h3 == h1 {
		t.Error("different chaos seeds produced identical runs")
	}
	t.Logf("stats: %+v", s1)
}

// TestEngineInjectsEveryChannel asserts the full-kind schedule actually
// exercises each fault channel, and that the continuous invariant
// checker stays green through all of it — the property-style guarantee
// the chaos subsystem exists to provide.
func TestEngineInjectsEveryChannel(t *testing.T) {
	_, s := chaosRun(t, fullSpec(11))
	if s.FaultsScheduled != 7 {
		t.Errorf("scheduled = %d, want 7", s.FaultsScheduled)
	}
	if s.Crashes == 0 || s.Restarts == 0 {
		t.Errorf("no crashes/restarts fired: %+v", s)
	}
	if s.DomainOutages != 1 {
		t.Errorf("domain outages = %d", s.DomainOutages)
	}
	if s.BuildFailuresInjected == 0 {
		t.Error("build-failure channel never fired")
	}
	if s.ReportsLostInjected == 0 {
		t.Error("report-loss channel never fired")
	}
	if s.NamingErrorsInjected == 0 {
		t.Error("naming-error channel never fired")
	}
	if s.InvariantChecks == 0 {
		t.Error("continuous invariant checker never ran")
	}
	if len(s.InvariantViolations) != 0 {
		t.Errorf("invariant violations: %v", s.InvariantViolations)
	}
}

// TestEngineGuardsClusterFloor: a schedule that tries to kill everything
// must be refused past the two-up-nodes floor.
func TestEngineGuardsClusterFloor(t *testing.T) {
	spec := &Spec{Seed: 3, Faults: make([]Fault, 0, 12)}
	for i := 0; i < 12; i++ {
		spec.Faults = append(spec.Faults, Fault{Kind: KindNodeCrash, AtHours: float64(i) * 0.1})
	}
	clock := simclock.New(testStart)
	c := fabric.NewCluster(clock, 8, testCapacity(), fabric.DefaultConfig())
	c.Start()
	eng, err := NewEngine(clock, c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(testStart)
	clock.RunUntil(testStart.Add(2 * time.Hour))
	c.Stop()
	if c.UpNodes() < 2 {
		t.Fatalf("guard failed: %d up nodes", c.UpNodes())
	}
	s := eng.Stats()
	if s.Crashes != 6 || s.CrashesSkipped != 6 {
		t.Errorf("crashes=%d skipped=%d, want 6/6", s.Crashes, s.CrashesSkipped)
	}
}

func TestNamedNodeCrash(t *testing.T) {
	clock := simclock.New(testStart)
	c := fabric.NewCluster(clock, 4, testCapacity(), fabric.DefaultConfig())
	c.Start()
	spec := &Spec{Seed: 1, Faults: []Fault{
		{Kind: KindNodeCrash, AtHours: 1, Node: "node-2", DownMinutes: 30},
		{Kind: KindNodeCrash, AtHours: 2, Node: "no-such-node"},
	}}
	eng, err := NewEngine(clock, c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(testStart)
	clock.RunUntil(testStart.Add(75 * time.Minute))
	if c.Nodes()[2].Up() {
		t.Error("named node not crashed")
	}
	clock.RunUntil(testStart.Add(3 * time.Hour))
	c.Stop()
	s := eng.Stats()
	if !c.Nodes()[2].Up() {
		t.Error("named node not restarted")
	}
	if s.Crashes != 1 || s.CrashesSkipped != 1 {
		t.Errorf("crashes=%d skipped=%d, want 1 crash and 1 skip for the unknown node", s.Crashes, s.CrashesSkipped)
	}
}

func TestTopologyDomainOutage(t *testing.T) {
	clock := simclock.New(testStart)
	cfg := fabric.DefaultConfig()
	cfg.FaultDomains = 4
	c := fabric.NewCluster(clock, 8, testCapacity(), cfg)
	c.Start()
	spec := &Spec{Seed: 1, Faults: []Fault{
		// Domains omitted: topology mode, crash the nodes whose
		// FaultDomain coordinate is 1 (nodes 1 and 5 of 8 striped over 4).
		{Kind: KindDomainOutage, AtHours: 1, Domain: 1, DownMinutes: 60},
	}}
	eng, err := NewEngine(clock, c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(testStart)
	clock.RunUntil(testStart.Add(90 * time.Minute))
	for _, n := range c.Nodes() {
		if want := n.FaultDomain != 1; n.Up() != want {
			t.Errorf("node %s (fd %d): up=%v during fault-domain-1 outage", n.ID, n.FaultDomain, n.Up())
		}
	}
	clock.RunUntil(testStart.Add(3 * time.Hour))
	c.Stop()
	for _, n := range c.Nodes() {
		if !n.Up() {
			t.Errorf("node %s still down after restore", n.ID)
		}
	}
	if s := eng.Stats(); s.DomainOutages != 1 || s.Crashes != 2 {
		t.Errorf("stats %+v, want 1 domain outage crashing 2 nodes", s)
	}
}

func TestTopologyDomainOutageRequiresTopology(t *testing.T) {
	clock := simclock.New(testStart)
	c := fabric.NewCluster(clock, 4, testCapacity(), fabric.DefaultConfig())
	spec := &Spec{Faults: []Fault{{Kind: KindDomainOutage, AtHours: 1, Domain: 0}}}
	if _, err := NewEngine(clock, c, spec, nil); err == nil || !strings.Contains(err.Error(), "topology mode") {
		t.Errorf("topology-mode fault on a topology-free cluster: err=%v", err)
	}

	cfg := fabric.DefaultConfig()
	cfg.FaultDomains = 3
	ct := fabric.NewCluster(simclock.New(testStart), 4, testCapacity(), cfg)
	bad := &Spec{Faults: []Fault{{Kind: KindDomainOutage, AtHours: 1, Domain: 3}}}
	if _, err := NewEngine(clock, ct, bad, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("topology-mode fault with domain beyond the cluster's domains: err=%v", err)
	}
}

// TestFailSlowWindowPhases pins the piecewise-linear latency profile: a
// 3× fail-slow with a 1h onset, 2h plateau, and 1h recovery must ramp,
// hold, ramp back, and tear itself down — all as a pure function of sim
// time, consuming no randomness after the target pick.
func TestFailSlowWindowPhases(t *testing.T) {
	clock := simclock.New(testStart)
	c := fabric.NewCluster(clock, 4, testCapacity(), fabric.DefaultConfig())
	spec := &Spec{Seed: 5, Faults: []Fault{{
		Kind: KindFailSlow, Node: "node-1", AtHours: 1,
		OnsetHours: 1, DurationHours: 2, RecoveryHours: 1, Factor: 3,
	}}}
	eng, err := NewEngine(clock, c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(testStart)

	at := func(h float64) float64 {
		clock.RunUntil(testStart.Add(time.Duration(h * float64(time.Hour))))
		return eng.SlowFactor("node-1", clock.Now())
	}
	close := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if f := at(0.5); !close(f, 1) {
		t.Errorf("before injection: factor %v, want 1", f)
	}
	if f := at(1.5); !close(f, 2) { // halfway up the onset ramp: 1 + 2×0.5
		t.Errorf("mid-onset: factor %v, want 2", f)
	}
	if f := at(3); !close(f, 3) { // plateau
		t.Errorf("plateau: factor %v, want 3", f)
	}
	if f := at(4.5); !close(f, 2) { // halfway down the recovery ramp
		t.Errorf("mid-recovery: factor %v, want 2", f)
	}
	if f := at(5.25); !close(f, 1) { // window torn down
		t.Errorf("after recovery: factor %v, want 1", f)
	}
	if f := eng.SlowFactor("node-0", testStart.Add(3*time.Hour)); !close(f, 1) {
		t.Errorf("untargeted node slowed: factor %v", f)
	}
	if s := eng.Stats(); s.SlowNodesInjected != 1 || s.Crashes != 0 {
		t.Errorf("stats %+v, want exactly 1 slow node and no crashes", s)
	}
}

// TestFailSlowLeavesEventStreamUntouched: a fail-slow fault draws only
// from its dedicated rng stream and emits no fabric events, so adding
// one to a schedule must leave the fabric event stream byte-identical —
// the isolation property that keeps the golden chaos hash safe.
func TestFailSlowLeavesEventStreamUntouched(t *testing.T) {
	base := fullSpec(11)
	h1, _ := chaosRun(t, base)
	withSlow := fullSpec(11)
	withSlow.Faults = append(withSlow.Faults, Fault{
		Kind: KindFailSlow, AtHours: 3, Count: 2,
		OnsetHours: 0.5, DurationHours: 6, RecoveryHours: 0.5, Factor: 4,
	})
	h2, s2 := chaosRun(t, withSlow)
	if h1 != h2 {
		t.Fatalf("fail-slow fault perturbed the fabric event stream: %s vs %s", h1, h2)
	}
	if s2.SlowNodesInjected != 2 {
		t.Errorf("SlowNodesInjected = %d, want 2", s2.SlowNodesInjected)
	}
	// And the schedule itself is deterministic.
	h3, s3 := chaosRun(t, withSlow)
	if h2 != h3 || s2.SlowNodesInjected != s3.SlowNodesInjected {
		t.Error("fail-slow runs diverged under the same seed")
	}
}

// TestFailSlowCorrelateDomain: with correlateDomain every up node in the
// seed node's fault domain slows together, and the fault is refused
// outright on a topology-free cluster.
func TestFailSlowCorrelateDomain(t *testing.T) {
	clock := simclock.New(testStart)
	plain := fabric.NewCluster(clock, 6, testCapacity(), fabric.DefaultConfig())
	spec := &Spec{Seed: 9, Faults: []Fault{{
		Kind: KindFailSlow, AtHours: 1, DurationHours: 2, Factor: 2, CorrelateDomain: true,
	}}}
	if _, err := NewEngine(clock, plain, spec, nil); err == nil || !strings.Contains(err.Error(), "correlateDomain") {
		t.Errorf("correlateDomain on a topology-free cluster: err=%v", err)
	}

	cfg := fabric.DefaultConfig()
	cfg.FaultDomains = 3
	c := fabric.NewCluster(clock, 6, testCapacity(), cfg)
	eng, err := NewEngine(clock, c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(testStart)
	clock.RunUntil(testStart.Add(2 * time.Hour))
	now := clock.Now()
	slowed := 0
	var domain = -1
	for _, n := range c.Nodes() {
		if eng.SlowFactor(n.ID, now) > 1 {
			slowed++
			if domain == -1 {
				domain = n.FaultDomain
			} else if n.FaultDomain != domain {
				t.Errorf("slow nodes span fault domains %d and %d", domain, n.FaultDomain)
			}
		}
	}
	// 6 nodes striped over 3 domains: the whole domain is 2 nodes.
	if slowed != 2 {
		t.Errorf("slowed %d nodes, want the full 2-node fault domain", slowed)
	}
	if s := eng.Stats(); s.SlowNodesInjected != 2 {
		t.Errorf("SlowNodesInjected = %d, want 2", s.SlowNodesInjected)
	}
}
