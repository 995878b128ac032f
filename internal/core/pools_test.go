package core

import (
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/slo"
)

// poolScenario returns a short scenario whose model set enables elastic
// pool churn for Standard/GP.
func poolScenario(t *testing.T) *Scenario {
	t.Helper()
	tm := DefaultModels()
	set := *tm.Set
	set.Pools = map[slo.Edition]*models.PoolPolicy{
		slo.StandardGP: {
			MemberFraction:  0.5,
			PoolSLO:         "GPPOOL_Gen5_8",
			MemberMaxDiskGB: 64,
		},
	}
	sc := DefaultScenario("pools", 1.1, &set, testSeeds())
	sc.Duration = 24 * time.Hour
	sc.BootstrapDuration = 2 * time.Hour
	return sc
}

func TestPoolReportingAggregatesMembers(t *testing.T) {
	sc := poolScenario(t)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	o.Start()

	if err := o.CreatePool("pool-x", "GPPOOL_Gen5_8"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPoolMember("pool-x", "m1", 64, 10); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPoolMember("pool-x", "m2", 64, 20); err != nil {
		t.Fatal(err)
	}

	o.Clock.RunUntil(sc.Start.Add(time.Hour))
	svc, _ := o.Cluster.Service("pool-x")
	load := svc.Primary().Loads[fabric.MetricDiskGB]
	// The pool reports the sum of its members (10 + 20 plus an hour of
	// modeled growth).
	if load < 30 || load > 40 {
		t.Errorf("pool disk load = %v, want ~30+", load)
	}

	// Removing a member shrinks the next report.
	if err := o.RemovePoolMember("pool-x", "m2"); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(2 * time.Hour))
	after := svc.Primary().Loads[fabric.MetricDiskGB]
	if after >= load {
		t.Errorf("pool load %v did not shrink after member removal (was %v)", after, load)
	}
}

func TestPoolChurnEndToEnd(t *testing.T) {
	sc := poolScenario(t)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolMemberCreates == 0 {
		t.Fatal("no pool members created despite 50% member fraction")
	}
	if res.PoolsProvisioned == 0 {
		t.Fatal("no pools provisioned")
	}
	// Pools pack databases without reserving per-database cores: total
	// customer databases exceed fabric services.
	t.Logf("pools=%d members created=%d dropped=%d (singleton creates=%d)",
		res.PoolsProvisioned, res.PoolMemberCreates, res.PoolMemberDrops, res.Creates)
	if res.Revenue.Adjusted <= 0 {
		t.Error("no revenue")
	}
}

func TestPoolMemberSurvivesPoolFailover(t *testing.T) {
	// A BC pool's member disk is persisted: after the pool's primary
	// fails over, the newly promoted primary reports the same member sum.
	tm := DefaultModels()
	sc := DefaultScenario("pool-failover", 1.0, tm.Set, testSeeds())
	sc.Duration = 6 * time.Hour
	sc.BootstrapDuration = time.Hour
	sc.Population.Counts = map[slo.Edition]int{} // empty cluster
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	o.Start()

	if err := o.CreatePool("bcpool", "BCPOOL_Gen5_4"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPoolMember("bcpool", "m1", 500, 300); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(time.Hour))
	svc, _ := o.Cluster.Service("bcpool")
	before := svc.Primary().Loads[fabric.MetricDiskGB]
	if before < 300 {
		t.Fatalf("pool load = %v before failover", before)
	}

	// Force the primary to a free node.
	hosts := map[string]bool{}
	for _, r := range svc.Replicas {
		if r.Node != nil {
			hosts[r.Node.ID] = true
		}
	}
	var target string
	for _, n := range o.Cluster.Nodes() {
		if !hosts[n.ID] {
			target = n.ID
			break
		}
	}
	if err := o.Cluster.ForceMove(svc.Primary().ID, target); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(2 * time.Hour))
	after := svc.Primary().Loads[fabric.MetricDiskGB]
	if after < before {
		t.Errorf("pool member disk lost on failover: %v -> %v", before, after)
	}
}
