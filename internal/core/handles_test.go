package core

import (
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/slo"
)

// liveReplicas counts the replicas of every live service.
func liveReplicas(o *Orchestrator) int {
	n := 0
	o.Cluster.EachLiveService(func(svc *fabric.Service) { n += len(svc.Replicas) })
	return n
}

// memEntries totals the in-memory records every node's RgManager holds.
func memEntries(o *Orchestrator) int {
	n := 0
	for _, node := range o.Cluster.Nodes() {
		n += o.managers[node.Index()].MemEntries()
	}
	return n
}

// registered counts the orchestrator's database entries.
func registered(o *Orchestrator) int {
	n := 0
	for _, e := range o.dbs {
		if e.svc != nil {
			n++
		}
	}
	return n
}

// TestDroppedDatabasesReleaseModelState walks the default scenario's
// churn for six days and checks hourly that the model state the
// orchestrator and the RgManagers keep never exceeds what the live
// databases need, so it cannot grow with the drops.
func TestDroppedDatabasesReleaseModelState(t *testing.T) {
	sc := DefaultScenario("churn", 1.0, DefaultModels().Set, testSeeds())
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(cloneFrozen(sc.Models, true)); err != nil {
		t.Fatal(err)
	}
	o.Start()
	if _, err := o.BootstrapPopulation(); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(sc.BootstrapDuration))
	if err := o.WriteModels(cloneFrozen(sc.Models, false)); err != nil {
		t.Fatal(err)
	}
	o.PopMgr.Start()
	drops := 0
	o.Cluster.Subscribe(func(ev fabric.Event) {
		if ev.Kind == fabric.EventServiceDropped {
			drops++
		}
	})
	end := o.Clock.Now().Add(sc.Duration)
	peak := 0
	for now := o.Clock.Now(); now.Before(end); {
		now = now.Add(time.Hour)
		o.Clock.RunUntil(now)
		entries, live := memEntries(o), liveReplicas(o)
		if entries > live {
			t.Fatalf("%s: %d in-memory records for %d live replicas", now.Format(time.DateTime), entries, live)
		}
		if reg, dbs := registered(o), o.Cluster.LiveServiceCount(); reg > dbs {
			t.Fatalf("%s: %d registered databases for %d live ones", now.Format(time.DateTime), reg, dbs)
		}
		peak = max(peak, live)
	}
	if drops < 100 {
		t.Fatalf("only %d drops in six days: the churn did not exercise eviction", drops)
	}
	t.Logf("%d drops; %d records for %d live replicas at the end (peak %d)", drops, memEntries(o), liveReplicas(o), peak)
}

// startedOrchestrator deploys sc with its models unfrozen and no
// population, for tests that create their own databases.
func startedOrchestrator(t *testing.T, sc *Scenario) *Orchestrator {
	t.Helper()
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Stop)
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	return o
}

// flatHourly returns an hourly-normal model with one cell everywhere.
func flatHourly(mean, sigma float64) *models.HourlyNormal {
	h := models.NewHourlyNormal()
	for w := 0; w < 2; w++ {
		for hr := 0; hr < 24; hr++ {
			h.Set(models.HourBucket{Weekend: w == 1, Hour: hr}, models.NormalParam{Mean: mean, Sigma: sigma})
		}
	}
	return h
}

// cappedMemoryScenario is a short scenario whose GP memory target lies
// far above every SLO's allotment, so each memory report equals the cap.
func cappedMemoryScenario(t *testing.T) *Scenario {
	sc := shortScenario(t, 1.0)
	set := *sc.Models
	set.Memory = map[slo.Edition]*models.MemoryModel{
		slo.StandardGP: {Target: flatHourly(1000, 0), WarmRate: 1, ColdStartGB: 1, ReportInterval: 20 * time.Minute},
	}
	sc.Models = &set
	sc.Population.Counts = map[slo.Edition]int{}
	return sc
}

func TestScaleDatabaseCapsApplyNextRound(t *testing.T) {
	sc := cappedMemoryScenario(t)
	o := startedOrchestrator(t, sc)
	svc, err := o.Control.CreateDatabase("gp-scale", "GP_Gen5_2")
	if err != nil {
		t.Fatal(err)
	}
	small, _ := sc.Catalog.Lookup("GP_Gen5_2")
	big, _ := sc.Catalog.Lookup("GP_Gen5_8")
	o.RegisterDatabase(svc, small)
	now := sc.Start.Add(20 * time.Minute)
	o.reportMemory(now)
	if got := svc.Primary().Load(fabric.MetricMemoryGB); got != small.MemoryGB {
		t.Fatalf("memory before the scale-up = %v, want the GP_Gen5_2 cap %v", got, small.MemoryGB)
	}
	if _, err := o.ScaleDatabase("gp-scale", "GP_Gen5_8"); err != nil {
		t.Fatal(err)
	}
	if info := o.entryNamed("gp-scale").info; info.MaxMemoryGB != big.MemoryGB || info.MaxDiskGB != big.MaxDiskGB {
		t.Fatalf("registered caps after the scale-up = %v GB memory, %v GB disk; want %v, %v",
			info.MaxMemoryGB, info.MaxDiskGB, big.MemoryGB, big.MaxDiskGB)
	}
	o.reportMemory(now.Add(20 * time.Minute))
	if got := svc.Primary().Load(fabric.MetricMemoryGB); got != big.MemoryGB {
		t.Errorf("memory the round after the scale-up = %v, want the GP_Gen5_8 cap %v", got, big.MemoryGB)
	}
}

func TestRecycledSlotRegistration(t *testing.T) {
	sc := cappedMemoryScenario(t)
	o := startedOrchestrator(t, sc)
	gp2, _ := sc.Catalog.Lookup("GP_Gen5_2")
	old, err := o.Control.CreateDatabase("gp-old", "GP_Gen5_2")
	if err != nil {
		t.Fatal(err)
	}
	o.RegisterDatabase(old, gp2)
	o.seedInitialLoad(old, gp2, 30)
	now := sc.Start.Add(20 * time.Minute)
	o.reportDisk(now)
	o.reportMemory(now)
	if err := o.Control.DropDatabase("gp-old"); err != nil {
		t.Fatal(err)
	}
	if o.entryNamed("gp-old") != nil {
		t.Error("a dropped database keeps its registered metadata")
	}
	if memEntries(o) != 0 {
		t.Errorf("%d in-memory records after the only database was dropped", memEntries(o))
	}

	// An unregistered service in the recycled slot is not reported.
	raw, err := o.Cluster.CreateService("raw", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Slot() != old.Slot() {
		t.Fatalf("slot not recycled: %d, was %d", raw.Slot(), old.Slot())
	}
	o.reportDisk(now.Add(20 * time.Minute))
	o.reportMemory(now.Add(20 * time.Minute))
	if got := raw.Replicas[0].Load(fabric.MetricMemoryGB); got != 0 {
		t.Errorf("unregistered service in gp-old's slot reported %v GB memory", got)
	}
	if o.DiskGBSeconds("raw") != 0 || memEntries(o) != 0 {
		t.Errorf("unregistered service accrued %v GB·s and %d records", o.DiskGBSeconds("raw"), memEntries(o))
	}
	gbs := o.DiskGBSeconds("gp-old")
	if gbs == 0 {
		t.Fatal("the dropped database lost its disk integral")
	}
	// A re-created name continues the integral, as one keyed by name did.
	again, err := o.Control.CreateDatabase("gp-old", "GP_Gen5_2")
	if err != nil {
		t.Fatal(err)
	}
	o.RegisterDatabase(again, gp2)
	if got := o.DiskGBSeconds("gp-old"); got != gbs {
		t.Errorf("re-created gp-old starts at %v GB·s, want its predecessor's %v", got, gbs)
	}
}

// TestReportRoundsAllocateNothing pins the orchestrator's warmed report
// rounds at zero allocations: a memory round over the default
// population, and a disk round over a GP-only one (BC primaries' Naming
// writes allocate by design).
func TestReportRoundsAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		round func(*Orchestrator, time.Time)
		gp    bool
	}{
		{"reportMemory", (*Orchestrator).reportMemory, false},
		{"reportDisk GP-only", (*Orchestrator).reportDisk, true},
	} {
		sc := shortScenario(t, 1.0)
		if tc.gp {
			sc.Population.Counts = map[slo.Edition]int{slo.StandardGP: sc.Population.Counts[slo.StandardGP]}
		}
		o := startedOrchestrator(t, sc)
		if _, err := o.BootstrapPopulation(); err != nil {
			t.Fatal(err)
		}
		now := sc.Start.Add(20 * time.Minute)
		tc.round(o, now) // warm: claim records, derive keys
		if allocs := testing.AllocsPerRun(5, func() {
			now = now.Add(20 * time.Minute)
			tc.round(o, now)
		}); allocs != 0 {
			t.Errorf("%s over %d databases: %v allocs per round, want 0", tc.name, o.Cluster.LiveServiceCount(), allocs)
		}
	}
}
