package toto_test

import (
	"fmt"
	"time"

	"toto"
)

// Example runs the smallest complete benchmark: train models, declare a
// scenario, run it, read the KPIs. Output totals are deterministic under
// fixed seeds.
func Example() {
	tm := toto.DefaultModels()
	sc := toto.DefaultScenario("doc-example", 1.10, tm.Set,
		toto.Seeds{Population: 1, Models: 2, PLB: 3, Bootstrap: 4})
	sc.Duration = 6 * time.Hour
	sc.BootstrapDuration = time.Hour

	res, err := toto.Run(sc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("population: %d BC + %d GP\n",
		res.InitialCounts[toto.PremiumBC], res.InitialCounts[toto.StandardGP])
	fmt.Printf("density: %.0f%%\n", res.Density*100)
	// Output:
	// population: 33 BC + 187 GP
	// density: 110%
}

// ExampleDensityStudy sweeps density levels — the paper's §5 study in
// four lines.
func ExampleDensityStudy() {
	tm := toto.DefaultModels()
	build := func(density float64, seeds toto.Seeds) *toto.Scenario {
		sc := toto.DefaultScenario("study", density, tm.Set, seeds)
		sc.Duration = 3 * time.Hour
		sc.BootstrapDuration = time.Hour
		return sc
	}
	results, err := toto.DensityStudy(build, []float64{1.0, 1.2},
		toto.Seeds{Population: 1, Models: 2, PLB: 3, Bootstrap: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range results {
		fmt.Printf("%.0f%%: disk %.0f%%\n", r.Density*100, 100*r.BootstrapDiskUtil)
	}
	// Output:
	// 100%: disk 77%
	// 120%: disk 77%
}
