// Repro: the paper's third day-to-day use of Toto (§1) — "debug
// ('repro') problems from the production clusters". An on-call engineer
// writes a small model XML describing the suspect behaviour, injects it
// into a stage cluster, and watches the incident replay deterministically.
//
// The incident replayed here is the one the paper itself narrates
// (§5.3.2): a single innocuous-looking 6-core Business Critical database
// restores ~1.3 TB within its first 30 minutes; its four replicas land on
// nearly full nodes and the placement balancer spends the next hours
// shuffling capacity to absorb it.
//
//	go run ./examples/reproincident
package main

import (
	"fmt"
	"log"
	"time"

	"toto"
	"toto/internal/core"
	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/slo"
)

func main() {
	tm := toto.DefaultModels()
	seeds := toto.Seeds{Population: 91, Models: 92, PLB: 93, Bootstrap: 94}

	// The engineer's repro XML: everything frozen EXCEPT a Premium/BC
	// disk model whose initial-growth pattern is pinned to the incident:
	// probability 1, 1.3 TB in 30 minutes. Population churn stays off so
	// the only moving part is the suspect database.
	repro := models.NewModelSet(92)
	repro.RingShare = 1
	steady := models.NewHourlyNormal() // zero growth outside the restore
	repro.Disk[slo.PremiumBC] = &models.DiskUsageModel{
		Steady:         steady,
		ReportInterval: 20 * time.Minute,
		Persisted:      true,
		Initial: &models.InitialGrowthModel{
			Probability: 1,
			Duration:    30 * time.Minute,
			Bins:        []models.GrowthBin{{LoGB: 1331, HiGB: 1331}}, // exactly 1.3 TB
		},
	}
	repro.Disk[slo.StandardGP] = &models.DiskUsageModel{
		Steady:         steady,
		ReportInterval: 20 * time.Minute,
	}

	// Stage cluster bootstrapped like the incident cluster: denser than
	// the default study, ~85% disk, so no node has 1.3 TB of headroom.
	sc := core.DefaultScenario("repro-1.3tb-restore", 1.2, tm.Set, seeds)
	sc.Duration = 6 * time.Hour
	sc.Population.InitialDiskGB[slo.PremiumBC] = models.GrowthBin{LoGB: 200, HiGB: 1190}
	o, err := core.NewOrchestrator(sc)
	if err != nil {
		log.Fatal(err)
	}
	defer o.Stop()
	frozen := *tm.Set
	frozen.Frozen = true
	if err := o.WriteModels(&frozen); err != nil {
		log.Fatal(err)
	}
	o.Start()
	if _, err := o.BootstrapPopulation(); err != nil {
		log.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(sc.BootstrapDuration))
	fmt.Printf("stage cluster bootstrapped: disk %.1f%%, %d databases\n",
		100*o.Cluster.DiskUsage()/o.Cluster.DiskCapacity(), len(o.Cluster.LiveServices()))

	// Inject the repro XML (declaratively, through the Naming Service —
	// exactly how the production mechanism works) and create the suspect.
	if err := o.WriteModels(repro); err != nil {
		log.Fatal(err)
	}
	o.Recorder.Start(sc.Duration)
	suspect, err := o.Control.CreateDatabase("incident-db", "BC_Gen5_6")
	if err != nil {
		log.Fatalf("suspect redirected: %v", err)
	}
	bc6, _ := sc.Catalog.Lookup("BC_Gen5_6")
	o.RegisterDatabase(suspect, bc6)
	fmt.Printf("suspect created: BC_Gen5_6 (24 reserved cores across 4 replicas)\n\n")

	// Watch the restore replay.
	start := o.Clock.Now()
	for _, mark := range []time.Duration{20 * time.Minute, 40 * time.Minute, 2 * time.Hour, 6 * time.Hour} {
		o.Clock.RunUntil(start.Add(mark))
		svc, _ := o.Cluster.Service("incident-db")
		fmt.Printf("t+%-8s suspect disk %6.0f GB x4 replicas | cluster %.1f%% | failovers %d (%.0f cores moved)\n",
			mark, svc.Primary().Load(fabric.MetricDiskGB),
			100*o.Cluster.DiskUsage()/o.Cluster.DiskCapacity(),
			len(o.Recorder.Failovers()), o.Recorder.FailedOverCores(nil))
	}

	fmt.Println()
	if n := len(o.Recorder.Failovers()); n > 0 {
		fmt.Printf("repro confirmed: the single restore forced %d failovers — the §5.3.2\n", n)
		fmt.Println("finding that \"even the admission of a single database exhibiting an")
		fmt.Println("innocuous behavior can dramatically alter the rate of failovers\".")
	} else {
		fmt.Println("no failovers this time — rerun with a different PLB seed; at lower")
		fmt.Println("starting utilization the cluster can absorb the restore.")
	}
}
