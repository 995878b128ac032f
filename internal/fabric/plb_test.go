package fabric

import (
	"testing"
	"testing/quick"
	"time"

	"toto/internal/simclock"
)

func TestPlacementPrefersLeastLoaded(t *testing.T) {
	c := newTestCluster(t, 3, 1.0)
	// Load two nodes with cores.
	c.CreateService("a", 1, 40, nil)
	c.CreateService("b", 1, 40, nil)
	svc, err := c.CreateService("c", 1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The third (empty) node should host c in the common case: its cost
	// is strictly lower and annealing only accepts strict improvements
	// from the greedy seed here.
	if svc.Replicas[0].Node.Load(MetricCores) != 10 {
		t.Errorf("new service landed on a loaded node")
	}
}

func TestGreedyPlacementDeterministic(t *testing.T) {
	build := func() *Cluster {
		cfg := DefaultConfig()
		cfg.GreedyPlacement = true
		return NewCluster(simclock.New(testStart), 5, testCapacity(), cfg)
	}
	c1, c2 := build(), build()
	for i := 0; i < 20; i++ {
		name := string(rune('a' + i))
		s1, err1 := c1.CreateService(name, 1, 4, nil)
		s2, err2 := c2.CreateService(name, 1, 4, nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if s1.Replicas[0].Node.ID != s2.Replicas[0].Node.ID {
			t.Fatalf("greedy placement diverged at service %s", name)
		}
	}
}

func TestSamePLBSeedSamePlacements(t *testing.T) {
	build := func(seed uint64) []string {
		cfg := DefaultConfig()
		cfg.PLBSeed = seed
		c := NewCluster(simclock.New(testStart), 6, testCapacity(), cfg)
		var nodes []string
		for i := 0; i < 15; i++ {
			svc, err := c.CreateService(string(rune('a'+i)), 4, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range svc.Replicas {
				nodes = append(nodes, r.Node.ID)
			}
		}
		return nodes
	}
	a := build(7)
	b := build(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different placements")
		}
	}
}

func TestPlacementFillsFeasibilityExactly(t *testing.T) {
	// 4 nodes, 4-replica service: exactly one feasible assignment set.
	c := newTestCluster(t, 4, 1.0)
	svc, err := c.CreateService("bc", 4, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if n.Load(MetricCores) != 64 {
			t.Errorf("node %s cores = %v", n.ID, n.Load(MetricCores))
		}
	}
	_ = svc
}

func TestChooseVictimClearsViolation(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(simclock.New(testStart), 2, testCapacity(), cfg)
	// Three services on node via direct attachment manipulation: use
	// creates and then force loads.
	small, _ := c.CreateService("small", 1, 1, nil)
	big, _ := c.CreateService("big", 1, 1, nil)
	// Put both replicas on node 0.
	n0 := c.Nodes()[0]
	for _, svc := range []*Service{small, big} {
		r := svc.Replicas[0]
		if r.Node != n0 {
			r.Node.detach(r)
			n0.attach(r)
		}
	}
	c.ReportLoad(small.Replicas[0], MetricDiskGB, 300)
	c.ReportLoad(big.Replicas[0], MetricDiskGB, 8000) // total 8300 > 8192

	// Deterministic victim path (probe many times to dodge the 10%
	// exploration branch): the smallest replica that clears the overage
	// (300 >= 108) is "small".
	clears := 0
	for i := 0; i < 100; i++ {
		v := c.plb.chooseVictim(n0, MetricDiskGB)
		if v.Loads[MetricDiskGB] >= n0.Load(MetricDiskGB)-8192 {
			clears++
		}
	}
	if clears < 85 {
		t.Errorf("victim cleared the violation only %d/100 times", clears)
	}
}

func TestChooseTargetAvoidsSameServiceNodes(t *testing.T) {
	c := newTestCluster(t, 5, 1.0)
	svc, _ := c.CreateService("bc", 4, 2, nil)
	rep := svc.Replicas[0]
	for i := 0; i < 50; i++ {
		target := c.plb.chooseTarget(rep)
		if target == nil {
			t.Fatal("no target on an empty cluster")
		}
		for _, other := range svc.Replicas {
			if other != rep && other.Node == target {
				t.Fatal("target hosts a sibling replica")
			}
		}
		if target == rep.Node {
			t.Fatal("target is the current node")
		}
	}
}

func TestChooseTargetNilWhenNoCapacity(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	a, _ := c.CreateService("a", 1, 2, nil)
	b, _ := c.CreateService("b", 1, 2, nil)
	// Saturate both nodes' disk.
	c.ReportLoad(a.Replicas[0], MetricDiskGB, 8192)
	c.ReportLoad(b.Replicas[0], MetricDiskGB, 8192)
	if target := c.plb.chooseTarget(a.Replicas[0]); target != nil {
		t.Errorf("found target %s on a disk-saturated cluster", target.ID)
	}
}

func TestBalancingMovesFromHotToCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BalancingEnabled = true
	cfg.BalanceSpread = 0.2
	c := NewCluster(simclock.New(testStart), 2, testCapacity(), cfg)
	c.Start()
	defer c.Stop()
	a, _ := c.CreateService("a", 1, 2, nil)
	b, _ := c.CreateService("b", 1, 2, nil)
	n0 := c.Nodes()[0]
	for _, svc := range []*Service{a, b} {
		r := svc.Replicas[0]
		if r.Node != n0 {
			r.Node.detach(r)
			n0.attach(r)
		}
	}
	c.ReportLoad(a.Replicas[0], MetricDiskGB, 3000)
	c.ReportLoad(b.Replicas[0], MetricDiskGB, 1000)
	// Spread = (4000 - 0)/8192 = 0.49 > 0.2: balancing should move one.
	c.clock.RunUntil(testStart.Add(10 * time.Minute))
	if c.PlannedMoveCount() == 0 {
		t.Error("no balancing move despite large spread")
	}
	if c.UnplannedFailoverCount() != 0 {
		t.Error("balancing move counted as failover")
	}
}

func TestDegradationAccrues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegradationFactor = 1.0
	cfg.MaxMovesPerViolation = 0 // never fix, so degradation keeps accruing
	c := NewCluster(simclock.New(testStart), 1, testCapacity(), cfg)
	c.Start()
	defer c.Stop()
	svc, _ := c.CreateService("x", 1, 2, nil)
	c.ReportLoad(svc.Replicas[0], MetricDiskGB, 9000) // violation, unfixable
	c.clock.RunUntil(testStart.Add(time.Hour))
	want := 12 * cfg.ScanInterval // 12 scans in an hour
	if svc.Downtime != want {
		t.Errorf("degradation downtime = %v, want %v", svc.Downtime, want)
	}
}

func TestNoDegradationWhenDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DegradationFactor = 0
	cfg.MaxMovesPerViolation = 0
	c := NewCluster(simclock.New(testStart), 1, testCapacity(), cfg)
	c.Start()
	defer c.Stop()
	svc, _ := c.CreateService("x", 1, 2, nil)
	c.ReportLoad(svc.Replicas[0], MetricDiskGB, 9000)
	c.clock.RunUntil(testStart.Add(time.Hour))
	if svc.Downtime != 0 {
		t.Errorf("downtime = %v with degradation disabled", svc.Downtime)
	}
}

func TestPlacementNeverViolatesAntiAffinityProperty(t *testing.T) {
	// Property: under arbitrary (replicas, cores) requests that are
	// admitted, replicas always land on distinct nodes.
	f := func(seed uint64, reqs []uint8) bool {
		cfg := DefaultConfig()
		cfg.PLBSeed = seed
		c := NewCluster(simclock.New(testStart), 8, testCapacity(), cfg)
		for i, raw := range reqs {
			if i > 30 {
				break
			}
			replicas := int(raw%4) + 1
			cores := float64(raw%16) + 1
			svc, err := c.CreateService(string(rune('A'+i)), replicas, cores, nil)
			if err != nil {
				continue
			}
			seen := map[*Node]bool{}
			for _, r := range svc.Replicas {
				if r.Node == nil || seen[r.Node] {
					return false
				}
				seen[r.Node] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreCapacityNeverExceededByAdmissionProperty(t *testing.T) {
	// Property: per-node reserved cores never exceed density-scaled
	// logical capacity purely via admission (no violations injected).
	f := func(seed uint64, reqs []uint8) bool {
		cfg := DefaultConfig()
		cfg.PLBSeed = seed
		cfg.Density = 1.2
		c := NewCluster(simclock.New(testStart), 5, testCapacity(), cfg)
		for i, raw := range reqs {
			if i > 40 {
				break
			}
			replicas := int(raw%4) + 1
			cores := float64(raw % 32)
			if cores == 0 {
				cores = 1
			}
			c.CreateService(string(rune('A'+i)), replicas, cores, nil)
		}
		for _, n := range c.Nodes() {
			if n.Load(MetricCores) > 64*1.2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
