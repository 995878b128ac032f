package core

import (
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/slo"
)

func testSeeds() Seeds { return Seeds{Population: 11, Models: 22, PLB: 33, Bootstrap: 44} }

func shortScenario(t *testing.T, density float64) *Scenario {
	t.Helper()
	sc := DefaultScenario("t", density, DefaultModels().Set, testSeeds())
	sc.Duration = 12 * time.Hour
	sc.BootstrapDuration = 2 * time.Hour
	return sc
}

func TestScenarioValidate(t *testing.T) {
	good := shortScenario(t, 1.0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no nodes", func(s *Scenario) { s.Nodes = 0 }},
		{"zero density", func(s *Scenario) { s.Density = 0 }},
		{"zero duration", func(s *Scenario) { s.Duration = 0 }},
		{"no models", func(s *Scenario) { s.Models = nil }},
		{"no catalog", func(s *Scenario) { s.Catalog = nil }},
		{"unknown SLO in mix", func(s *Scenario) {
			s.Population.SLOMix = map[slo.Edition][]models.SLOWeight{
				slo.StandardGP: {{Name: "nope", Weight: 1}},
			}
		}},
		{"SLO under wrong edition", func(s *Scenario) {
			s.Population.SLOMix = map[slo.Edition][]models.SLOWeight{
				slo.StandardGP: {{Name: "BC_Gen5_2", Weight: 1}},
			}
		}},
	}
	for _, c := range cases {
		sc := shortScenario(t, 1.0)
		c.mutate(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: not rejected", c.name)
		}
	}
}

func TestBootstrapPopulationState(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	frozen := cloneFrozen(sc.Models, true)
	if err := o.WriteModels(frozen); err != nil {
		t.Fatal(err)
	}
	o.Start()
	counts, err := o.BootstrapPopulation()
	if err != nil {
		t.Fatal(err)
	}
	if counts[slo.PremiumBC] != 33 || counts[slo.StandardGP] != 187 {
		t.Fatalf("counts = %v, want Table 2's 33 BC / 187 GP", counts)
	}
	if got := len(o.Cluster.LiveServices()); got != 220 {
		t.Errorf("live services = %d", got)
	}
	diskAtCreate := o.Cluster.DiskUsage()
	util := diskAtCreate / o.Cluster.DiskCapacity()
	if util < 0.70 || util > 0.84 {
		t.Errorf("bootstrap disk utilization = %v, want ~0.77 (Table 3)", util)
	}

	// Frozen phase: disk usage must not grow.
	o.Clock.RunUntil(sc.Start.Add(sc.BootstrapDuration))
	after := o.Cluster.DiskUsage()
	if after > diskAtCreate*1.001 {
		t.Errorf("disk grew during frozen bootstrap: %v -> %v", diskAtCreate, after)
	}

	// Every database has registered metadata.
	for _, svc := range o.Cluster.LiveServices() {
		if _, ok := o.DBInfo(svc.Name); !ok {
			t.Fatalf("no DBInfo for %s", svc.Name)
		}
	}
}

func TestModelInjectionReachesAllManagers(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	for _, n := range o.Cluster.Nodes() {
		mgr := o.Manager(n)
		if mgr == nil || mgr.Models() == nil {
			t.Fatalf("manager on %s has no models after WriteModels", n.ID)
		}
	}
}

func TestModelRefreshPicksUpOverwrite(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(cloneFrozen(sc.Models, true)); err != nil {
		t.Fatal(err)
	}
	o.Start()
	// Overwrite the models directly in the Naming Service (no manual
	// refresh): the 15-minute refresh ticker must pick them up.
	live := cloneFrozen(sc.Models, false)
	o.Cluster.Naming().PutValue(models.NamingKey, live)
	o.Clock.RunUntil(sc.Start.Add(16 * time.Minute))
	for _, n := range o.Cluster.Nodes() {
		if o.Manager(n).Models().Frozen {
			t.Fatalf("manager on %s still frozen after refresh interval", n.ID)
		}
	}
}

func TestDropClearsPersistedState(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	o.Start()

	svc, err := o.Control.CreateDatabaseSeeded("bc-test", "BC_Gen5_2", 400)
	if err != nil {
		t.Fatal(err)
	}
	bc2, _ := sc.Catalog.Lookup("BC_Gen5_2")
	o.registerDB(svc, bc2)
	o.seedInitialLoad(svc, bc2, 400)
	if keys := o.Cluster.Naming().Keys("toto/load/"); len(keys) != 1 {
		t.Fatalf("persisted keys = %v", keys)
	}
	if err := o.Control.DropDatabase("bc-test"); err != nil {
		t.Fatal(err)
	}
	if keys := o.Cluster.Naming().Keys("toto/load/"); len(keys) != 0 {
		t.Errorf("persisted keys not cleared on drop: %v", keys)
	}
}

func TestReportingEngineDrivesLoads(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil { // live (unfrozen) models
		t.Fatal(err)
	}
	o.Start()

	svc, err := o.Control.CreateDatabaseSeeded("bc-grow", "BC_Gen5_4", 300)
	if err != nil {
		t.Fatal(err)
	}
	bc4, _ := sc.Catalog.Lookup("BC_Gen5_4")
	o.registerDB(svc, bc4)
	o.seedInitialLoad(svc, bc4, 300)

	o.Clock.RunUntil(sc.Start.Add(24 * time.Hour))

	// The primary's disk should have grown under the BC steady model, and
	// the secondaries should report the same persisted value.
	p := svc.Primary()
	if p.Loads[fabric.MetricDiskGB] <= 300 {
		t.Errorf("primary disk = %v, expected growth from 300", p.Loads[fabric.MetricDiskGB])
	}
	for _, r := range svc.Replicas {
		if r.Role == fabric.Secondary && r.Loads[fabric.MetricDiskGB] == 0 {
			t.Error("secondary never reported the persisted disk value")
		}
	}
	// Memory reports happen too (memory model configured by default).
	if p.Loads[fabric.MetricMemoryGB] <= 0 {
		t.Error("no memory load reported")
	}
	// The disk integral accrues for revenue.
	if o.DiskGBSeconds("bc-grow") <= 0 {
		t.Error("disk GB-seconds integral empty")
	}
}

func TestRunDeterministicWithSameSeeds(t *testing.T) {
	run := func() *Result {
		res, err := Run(shortScenario(t, 1.1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalReservedCores != b.FinalReservedCores {
		t.Errorf("reserved cores differ: %v vs %v", a.FinalReservedCores, b.FinalReservedCores)
	}
	if a.FinalDiskGB != b.FinalDiskGB {
		t.Errorf("disk differs: %v vs %v", a.FinalDiskGB, b.FinalDiskGB)
	}
	if a.Creates != b.Creates || a.Drops != b.Drops {
		t.Errorf("churn differs: %d/%d vs %d/%d", a.Creates, a.Drops, b.Creates, b.Drops)
	}
	if len(a.Failovers) != len(b.Failovers) {
		t.Errorf("failovers differ: %d vs %d", len(a.Failovers), len(b.Failovers))
	}
	if a.Revenue.Adjusted != b.Revenue.Adjusted {
		t.Errorf("revenue differs: %v vs %v", a.Revenue.Adjusted, b.Revenue.Adjusted)
	}
}

func TestPLBSeedChangesPlacementsOnly(t *testing.T) {
	// Varying only the PLB seed must keep the population identical (the
	// §5.2 design: Population Manager and model seeds are fixed) while
	// node-level placements may differ.
	runWith := func(plbSeed uint64) *Result {
		sc := shortScenario(t, 1.1)
		sc.Seeds.PLB = plbSeed
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runWith(1), runWith(2)
	if a.Creates != b.Creates || a.Drops != b.Drops {
		t.Errorf("churn depends on PLB seed: %d/%d vs %d/%d", a.Creates, a.Drops, b.Creates, b.Drops)
	}
	if a.BootstrapReservedCores != b.BootstrapReservedCores {
		t.Errorf("bootstrap population depends on PLB seed")
	}
}

func TestDensityStudyOrdering(t *testing.T) {
	tm := DefaultModels()
	build := func(density float64, seeds Seeds) *Scenario {
		sc := DefaultScenario("d", density, tm.Set, seeds)
		sc.Duration = 12 * time.Hour
		sc.BootstrapDuration = 2 * time.Hour
		return sc
	}
	results, err := DensityStudy(build, []float64{1.0, 1.2}, testSeeds(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// Higher density ⇒ more free cores at bootstrap (Table 3).
	if results[1].BootstrapFreeCores <= results[0].BootstrapFreeCores {
		t.Errorf("free cores: %v @100%% vs %v @120%%",
			results[0].BootstrapFreeCores, results[1].BootstrapFreeCores)
	}
	// Same initial population in each experiment (§5.2).
	if results[0].BootstrapReservedCores != results[1].BootstrapReservedCores {
		t.Error("initial population differs across densities")
	}
	// Initial disk is held constant up to bootstrap-phase failovers (a
	// moved GP replica loses its tempDB, so tiny deviations are real
	// behaviour, not bugs).
	lo, hi := results[0].BootstrapDiskGB, results[1].BootstrapDiskGB
	if lo > hi {
		lo, hi = hi, lo
	}
	if (hi-lo)/hi > 0.02 {
		t.Errorf("initial disk differs across densities: %v vs %v", lo, hi)
	}
}

func TestRepeatRunVariesOnlyPLB(t *testing.T) {
	tm := DefaultModels()
	build := func(seeds Seeds) *Scenario {
		sc := DefaultScenario("r", 1.2, tm.Set, seeds)
		sc.Duration = 6 * time.Hour
		sc.BootstrapDuration = time.Hour
		return sc
	}
	results, err := RepeatRun(build, testSeeds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Creates != results[1].Creates {
		t.Error("repeat runs differ in churn")
	}
}

func TestRevenueScoredOverMeasuredWindowOnly(t *testing.T) {
	res, err := Run(shortScenario(t, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	// An initial-population GP_Gen5_2 database alive for the whole 12h
	// window earns exactly 2 cores x price x 12h of compute.
	gp2, _ := slo.Gen5().Lookup("GP_Gen5_2")
	want := gp2.PricePerCoreHour * 2 * 12
	found := false
	for _, r := range res.PerDB {
		if r.DB == "init-gp-0000" {
			found = true
			if r.Compute < want*0.999 || r.Compute > want*1.001 {
				t.Errorf("compute = %v, want %v (measured window only)", r.Compute, want)
			}
		}
	}
	if !found {
		t.Skip("init-gp-0000 dropped during the run")
	}
}

func TestChurnSLOMixValid(t *testing.T) {
	catalog := slo.Gen5()
	for e, mix := range ChurnSLOMix() {
		total := 0.0
		for _, sw := range mix {
			s, ok := catalog.Lookup(sw.Name)
			if !ok || s.Edition != e {
				t.Errorf("bad churn mix entry %v under %s", sw, e)
			}
			total += sw.Weight
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("%s churn weights sum to %v", e, total)
		}
	}
	for e, mix := range DefaultSLOMix() {
		total := 0.0
		for _, sw := range mix {
			total += sw.Weight
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("%s default weights sum to %v", e, total)
		}
	}
}

func TestRollingUpgradeDuringRun(t *testing.T) {
	sc := shortScenario(t, 1.1)
	sc.UpgradeStart = 4 * time.Hour
	sc.UpgradePerNode = 10 * time.Minute
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The rolling upgrade drains all 14 nodes; evacuations are balance
	// moves, not failovers.
	if res.BalanceMoves == 0 {
		t.Error("no evacuation moves recorded during the upgrade")
	}
	// All services end on up nodes.
	if res.FinalReservedCores <= 0 {
		t.Error("cluster empty after upgrade")
	}
}
