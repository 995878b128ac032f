// Package toto is the public API of the Toto benchmark framework — a
// reproduction of "Toto: Benchmarking the Efficiency of a Cloud Service"
// (Moeller, Ye, Lin, Lang — SIGMOD 2021).
//
// Toto measures the *efficiency* of an orchestrator-based cloud service
// (Service Fabric / Kubernetes style) by injecting statistically modeled
// resource loads and database churn into the service's own resource
// governance stack and observing how the orchestrator reacts: placements,
// creation redirects, capacity-violation failovers, and the resulting
// "modeled adjusted revenue".
//
// A minimal benchmark run:
//
//	tm := toto.TrainDefaultModels(42)                    // §4 model training
//	sc := toto.DefaultScenario("d110", 1.10, tm.Set,     // §5.2 protocol
//	        toto.Seeds{Population: 1, Models: 2, PLB: 3, Bootstrap: 4})
//	res, err := toto.Run(sc)                             // bootstrap + 6 days
//	_ = res.Revenue.Adjusted                             // §5.1 scoring
//
// The package re-exports the types of internal/core; the substrates
// (fabric orchestrator, RgManager, models, trainer, …) live under
// internal/ and are documented there.
package toto

import (
	"toto/internal/core"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/slo"
)

// Scenario declaratively specifies one benchmark run (cluster shape,
// density, duration, population, models, seeds).
type Scenario = core.Scenario

// Seeds fixes every random stream of a run (§5.2).
type Seeds = core.Seeds

// Result is everything a run produced: telemetry series, failovers,
// redirects, and revenue scoring.
type Result = core.Result

// InitialPopulation describes the bootstrapped databases (Table 2).
type InitialPopulation = core.InitialPopulation

// TrainedModels is a §4 training run over synthetic production traces.
// The value DefaultModels returns carries only the model set (Set);
// TrainDefaultModels returns the training inputs too.
type TrainedModels = core.TrainedModels

// ModelSet is the deployable collection of behaviour models, serialized
// as XML into the cluster's Naming Service.
type ModelSet = models.ModelSet

// Edition identifies Standard/GP (remote-store) vs Premium/BC
// (local-store) databases.
type Edition = slo.Edition

// The two database editions (§2).
const (
	StandardGP = slo.StandardGP
	PremiumBC  = slo.PremiumBC
)

// Observer is the simulation-time observability layer: a span tracer on
// the simulated clock (exportable as a Chrome/Perfetto trace), a metrics
// registry, and a sim-timestamped logger. Attach one via Scenario.Obs; a
// nil Observer disables all instrumentation at zero cost.
type Observer = obs.Obs

// NewObserver creates an Observer with default options (1M-event trace
// buffer, logging off).
func NewObserver() *Observer { return obs.New(obs.Options{}) }

// Run executes the full experiment protocol on a scenario: inject frozen
// models, bootstrap the population, unfreeze, run the measured window,
// and score revenue.
func Run(s *Scenario) (*Result, error) { return core.Run(s) }

// DefaultScenario returns the paper's experimental setup (14-node gen5
// cluster, 6-day run) at the given density.
func DefaultScenario(name string, density float64, set *ModelSet, seeds Seeds) *Scenario {
	return core.DefaultScenario(name, density, set, seeds)
}

// TrainDefaultModels generates synthetic production traces and trains the
// full model suite of §4 on them. The result carries the training inputs
// Figures 6-9 read as well as the model set.
func TrainDefaultModels(seed uint64) *TrainedModels { return core.TrainDefaultModels(seed) }

// DefaultModels returns the deployed default model set, the seed-42
// training's model XML that the repository ships, decoded once per
// process. It trains nothing and carries only Set; use TrainDefaultModels
// for the training inputs.
func DefaultModels() *TrainedModels { return core.DefaultModels() }

// DensityStudy runs a scenario family across density levels (the §5
// study). The build function receives the density and the seeds to use:
// run i gets seeds.DensityRun(i), whose PLB seed steps per density.
func DensityStudy(build func(density float64, seeds Seeds) *Scenario, densities []float64, seeds Seeds) ([]*Result, error) {
	return core.DensityStudy(build, densities, seeds)
}

// RepeatRun executes one scenario n times varying only the PLB seed
// (§5.3.4 repeatability analysis).
func RepeatRun(build func(seeds Seeds) *Scenario, seeds Seeds, n int) ([]*Result, error) {
	return core.RepeatRun(build, seeds, n)
}
