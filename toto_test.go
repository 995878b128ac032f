package toto_test

import (
	"testing"
	"time"

	"toto"
)

// TestPublicAPIQuickstart exercises the documented entry points end to
// end: train models, build a scenario, run it, inspect the result.
func TestPublicAPIQuickstart(t *testing.T) {
	tm := toto.DefaultModels()
	sc := toto.DefaultScenario("api-test", 1.1, tm.Set,
		toto.Seeds{Population: 1, Models: 2, PLB: 3, Bootstrap: 4})
	sc.Duration = 6 * time.Hour
	sc.BootstrapDuration = time.Hour

	res, err := toto.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Density != 1.1 {
		t.Errorf("density = %v", res.Density)
	}
	if res.InitialCounts[toto.PremiumBC] != 33 || res.InitialCounts[toto.StandardGP] != 187 {
		t.Errorf("initial population = %v", res.InitialCounts)
	}
	if res.Revenue.Adjusted <= 0 {
		t.Error("no revenue")
	}
	if len(res.Samples) == 0 || len(res.NodeSamples) == 0 {
		t.Error("no telemetry")
	}
}

func TestPublicDensityStudy(t *testing.T) {
	tm := toto.DefaultModels()
	build := func(density float64, seeds toto.Seeds) *toto.Scenario {
		sc := toto.DefaultScenario("study", density, tm.Set, seeds)
		sc.Duration = 4 * time.Hour
		sc.BootstrapDuration = time.Hour
		return sc
	}
	results, err := toto.DensityStudy(build, []float64{1.0, 1.4},
		toto.Seeds{Population: 1, Models: 2, PLB: 3, Bootstrap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[1].BootstrapFreeCores <= results[0].BootstrapFreeCores {
		t.Error("density did not increase free cores")
	}
}

func TestPublicRepeatRun(t *testing.T) {
	tm := toto.DefaultModels()
	build := func(seeds toto.Seeds) *toto.Scenario {
		sc := toto.DefaultScenario("rep", 1.0, tm.Set, seeds)
		sc.Duration = 3 * time.Hour
		sc.BootstrapDuration = time.Hour
		return sc
	}
	results, err := toto.RepeatRun(build, toto.Seeds{Population: 1, Models: 2, PLB: 3, Bootstrap: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Creates != results[1].Creates {
		t.Error("repeats differ in population churn")
	}
}
