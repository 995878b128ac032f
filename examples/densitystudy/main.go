// Density study: the paper's §5 experiment — run the same benchmark at
// 100/110/120/140% density and quantify the trade-off between packing
// more databases onto the cluster and the failovers (and SLA penalties)
// that density causes. This regenerates the Figure 2 / Figure 14 story.
//
//	go run ./examples/densitystudy            # 2-day windows (fast)
//	go run ./examples/densitystudy -days 6    # the paper's full length
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"toto"
)

func main() {
	days := flag.Int("days", 2, "measured window per density level, in days")
	flag.Parse()

	tm := toto.DefaultModels()
	seeds := toto.Seeds{Population: 101, Models: 202, PLB: 303, Bootstrap: 404}

	build := func(density float64, s toto.Seeds) *toto.Scenario {
		sc := toto.DefaultScenario(fmt.Sprintf("density-%.0f%%", density*100), density, tm.Set, s)
		sc.Duration = time.Duration(*days) * 24 * time.Hour
		return sc
	}

	densities := []float64{1.0, 1.1, 1.2, 1.4}
	fmt.Printf("running %d-day experiments at %v density...\n\n", *days, densities)
	results, err := toto.DensityStudy(build, densities, seeds)
	if err != nil {
		log.Fatal(err)
	}

	base := results[0]
	fmt.Printf("%-9s %-14s %-12s %-14s %-12s %-14s %s\n",
		"density", "cores (rel)", "disk %", "moved cores", "penalty $", "adjusted $", "vs 100%")
	for _, r := range results {
		fmt.Printf("%-9.0f %-14.3f %-12.1f %-14.0f %-12.0f %-14.0f %+.1f%%\n",
			r.Density*100,
			r.FinalReservedCores/base.FinalReservedCores,
			100*r.FinalDiskUtil,
			r.TotalFailedOverCores(),
			r.Revenue.Penalty,
			r.Revenue.Adjusted,
			100*(r.Revenue.Adjusted/base.Revenue.Adjusted-1))
	}

	// The paper's takeaway (§5.3.5): revenue rises with density until the
	// failover penalties outweigh the extra packed databases.
	best := results[0]
	for _, r := range results {
		if r.Revenue.Adjusted > best.Revenue.Adjusted {
			best = r
		}
	}
	fmt.Printf("\noptimal density for this population: %.0f%% "+
		"(adjusted revenue $%.0f, %d failovers)\n",
		best.Density*100, best.Revenue.Adjusted, len(best.Failovers))
}
