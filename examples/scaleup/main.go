// Scale-up efficiency: §5.4 points out that density is not the only
// notion of efficiency — "how quickly an individual database can scale up
// to full resource utilization or the amount of time it takes to
// provision a new database" matter to customers too. This example
// measures both on clusters packed at increasing density: the denser the
// cluster, the more often a scale-up cannot fit in place and must move
// replicas, and the longer it takes.
//
//	go run ./examples/scaleup
package main

import (
	"fmt"
	"log"
	"time"

	"toto"
	"toto/internal/core"
	"toto/internal/slo"
	"toto/internal/stats"
)

func main() {
	tm := toto.DefaultModels()
	seeds := toto.Seeds{Population: 51, Models: 52, PLB: 53, Bootstrap: 54}

	fmt.Println("scale-up latency vs cluster density (§5.4's 'other notions of efficiency')")
	fmt.Println()
	fmt.Printf("%-9s %-12s %-14s %-14s %-16s %s\n",
		"density", "scale-ups", "in-place", "with moves", "median latency", "p90 latency")

	for _, density := range []float64{1.0, 1.2, 1.4} {
		sc := core.DefaultScenario(fmt.Sprintf("scale-%0.f", density*100), density, tm.Set, seeds)
		sc.Duration = 12 * time.Hour
		sc.BootstrapDuration = 4 * time.Hour

		o, err := core.NewOrchestrator(sc)
		if err != nil {
			log.Fatal(err)
		}
		frozen := *sc.Models
		frozen.Frozen = true
		if err := o.WriteModels(&frozen); err != nil {
			log.Fatal(err)
		}
		o.Start()
		if _, err := o.BootstrapPopulation(); err != nil {
			log.Fatal(err)
		}
		o.Clock.RunUntil(sc.Start.Add(sc.BootstrapDuration))

		// Scale every 2-core GP database up to 8 cores — a burst of
		// customer upgrades against a packed cluster.
		var latencies []float64
		inPlace, withMoves, rejected := 0, 0, 0
		gp := slo.StandardGP
		for _, db := range o.Control.LiveDatabases(nil, &gp) {
			svc, _ := o.Cluster.Service(db)
			if svc.Labels["slo"] != "GP_Gen5_2" {
				continue
			}
			out, err := o.ScaleDatabase(db, "GP_Gen5_8")
			if err != nil {
				rejected++
				continue
			}
			latencies = append(latencies, out.Latency.Seconds())
			if out.Moves == 0 {
				inPlace++
			} else {
				withMoves++
			}
		}
		o.Stop()

		if len(latencies) == 0 {
			fmt.Printf("%-9.0f %-12d %-14d %-14d %-16s %s   (%d rejected: no core headroom)\n",
				density*100, 0, 0, 0, "-", "-", rejected)
			continue
		}
		fmt.Printf("%-9.0f %-12d %-14d %-14d %-16s %s   (%d rejected)\n",
			density*100, len(latencies), inPlace, withMoves,
			time.Duration(stats.Quantile(latencies, 0.5)*float64(time.Second)).Round(time.Second),
			time.Duration(stats.Quantile(latencies, 0.9)*float64(time.Second)).Round(time.Second),
			rejected)
	}

	fmt.Println()
	fmt.Println("provisioning time (§5.4's other notion) for a seeded 500GB Premium/BC create:")
	sc := core.DefaultScenario("prov", 1.0, tm.Set, seeds)
	sc.Duration = time.Hour
	o, err := core.NewOrchestrator(sc)
	if err != nil {
		log.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil {
		log.Fatal(err)
	}
	svc, err := o.Control.CreateDatabaseSeeded("bc-big", "BC_Gen5_8", 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  BC_Gen5_8 with 500GB to replicate: %s (4 parallel replica builds)\n",
		o.Cluster.ProvisioningLatency(svc).Round(time.Second))
	gpSvc, _ := o.Control.CreateDatabase("gp-small", "GP_Gen5_2")
	fmt.Printf("  GP_Gen5_2 (remote storage attach):  %s\n",
		o.Cluster.ProvisioningLatency(gpSvc).Round(time.Second))
}
