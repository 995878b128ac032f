// Package core is Toto itself: the benchmark framework that injects
// declarative behaviour models into a cluster's resource-governance stack
// and measures how the orchestrator reacts (paper §3.3). It wires the
// substrates together — the fabric cluster, per-node RgManagers, the
// Population Manager, telemetry, and revenue scoring — and exposes a
// declarative Scenario that specifies a benchmark of arbitrary scale,
// complexity and time-length.
//
// A Scenario holds specs, not built layers. NewOrchestrator builds the
// deployment and every optional layer the specs turn on (series store,
// alerts, chaos, traffic and request tracing), and (*Orchestrator).Run
// carries out the §5.2 protocol on it; Run is the two in one call.
package core

import (
	"fmt"
	"time"

	"toto/internal/chaos"
	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/obs/journal"
	"toto/internal/slo"
	"toto/internal/traffic"
)

// ScenarioEpoch is the default simulated start instant: a Monday at
// midnight, so weekday/weekend model cells line up predictably.
var ScenarioEpoch = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

// InitialPopulation describes the databases bootstrapped into the cluster
// before an experiment begins (§5.2, Table 2).
type InitialPopulation struct {
	// Counts is the number of databases per edition (the paper uses 33
	// Premium/BC and 187 Standard/GP).
	Counts map[slo.Edition]int
	// SLOMix weights SLO selection within each edition.
	SLOMix map[slo.Edition][]models.SLOWeight
	// InitialDiskGB is the uniform range of initial reported disk usage
	// per edition.
	InitialDiskGB map[slo.Edition]models.GrowthBin
	// Seed fixes the generated population.
	Seed uint64
}

// Seeds collects every random seed an experiment uses, mirroring §5.2:
// the Population Manager has a single seed, the model XML carries the
// model seed (from which each node derives a unique stream), and the PLB
// seed is separate because the paper could not fix it across repeats.
type Seeds struct {
	Population uint64
	Models     uint64
	PLB        uint64
	Bootstrap  uint64
}

// DensityRun returns the seeds of run i of a density study that varies
// the PLB seed: the annealing seed steps by (i+1)·7919 per run, since the
// paper could not hold it fixed across its density runs (§5.2).
func (s Seeds) DensityRun(i int) Seeds {
	s.PLB += uint64(i+1) * 7919
	return s
}

// RepeatRun returns the seeds of run i of a repeatability study that
// varies only the PLB seed (§5.3.4): the annealing seed steps by i·104729
// per run, so run 0 is s itself.
func (s Seeds) RepeatRun(i int) Seeds {
	s.PLB += uint64(i) * 104729
	return s
}

// Scenario declaratively specifies one benchmark run. Besides the Obs and
// Journal sinks it holds values and specs only: NewOrchestrator builds
// each optional layer (the series store, the alert engine, the chaos
// engine, the traffic plane and its trace recorder) when its spec is set,
// and each run owns its layers, so one Scenario can be run any number of
// times. Callers that serve a run while it goes on take the handles from
// the orchestrator (Series, Alerts, Traces).
type Scenario struct {
	// Name labels the run in outputs.
	Name string
	// Start is the simulated wall-clock start.
	Start time.Time
	// Nodes is the cluster size (the paper uses a 14-node stage cluster).
	Nodes int
	// NodeSpec gives per-node capacities.
	NodeSpec slo.NodeSpec
	// Density is the core over-reservation factor (1.0, 1.1, 1.2, 1.4 in
	// the paper's study).
	Density float64
	// BootstrapDuration is how long the cluster runs with growth frozen
	// so the PLB can place and balance the initial population (§5.2).
	BootstrapDuration time.Duration
	// Duration is the measured experiment length (6 days in the paper).
	Duration time.Duration
	// Population is the bootstrapped database population.
	Population InitialPopulation
	// Models is the trained model set injected into the cluster. Its
	// Frozen flag is managed by the runner.
	Models *models.ModelSet
	// Catalog is the SLO catalog (defaults to gen5).
	Catalog *slo.Catalog
	// Seeds fixes the run's randomness.
	Seeds Seeds
	// ModelRefreshInterval is how often RgManagers re-read the model set
	// (15 minutes in the paper).
	ModelRefreshInterval time.Duration
	// FaultDomains and UpgradeDomains, when positive, stripe the
	// cluster's nodes over that many fault and upgrade domains (node i
	// lands in domain i % count): placement spreads each replica set
	// across fault domains, quorum availability is tracked per replica
	// set, and the domain-upgrade walker walks upgrade domains. Zero
	// (the default) leaves the fabric's topology machinery fully inert.
	FaultDomains   int
	UpgradeDomains int
	// DomainUpgrade, when set, schedules the upgrade-domain walker
	// (safety-checked drain of one upgrade domain at a time; see
	// fabric.ScheduleDomainUpgrade) beginning Start after the measured
	// window opens. Zero Spec fields take fabric defaults.
	DomainUpgrade *DomainUpgrade
	// UpgradeStart, when positive, schedules a rolling maintenance
	// upgrade (§5.2's "internal code upgrades"; the Figure 11 outliers)
	// beginning this long after the measured window starts; each node is
	// drained for UpgradePerNode in turn.
	UpgradeStart time.Duration
	// UpgradePerNode is each node's maintenance window (default 20m when
	// an upgrade is scheduled without one).
	UpgradePerNode time.Duration
	// SlowNodeDetection, when set, arms the fabric's gray-failure
	// detector before the cluster starts: per-node latency EWMAs fed by
	// the traffic plane, probationary quarantine of nodes whose EWMA
	// sustains above the cluster median, and rate-limited planned-move
	// drains (see fabric.SlowNodeConfig). Zero fields take the fabric
	// defaults. nil (the default) leaves the detector entirely inert —
	// ObserveNodeLatency is a no-op and chooseTarget is untouched.
	SlowNodeDetection *fabric.SlowNodeConfig
	// Chaos, when set, attaches a deterministic fault-injection schedule
	// to the measured window: the engine installs itself as the fabric's
	// fault injector, switches the PLB into degraded mode, and validates
	// cluster invariants after every event (see internal/chaos).
	Chaos *chaos.Spec
	// Traffic, when set, attaches the request-level traffic plane to the
	// measured window: open-loop diurnal arrivals per service through
	// admission control, circuit breakers, and budgeted retries, with
	// request errors journaled inside causal brackets and tail-latency
	// series pushed to the series store (see internal/traffic). A
	// Traffic.Reqtrace section also keeps sampled request traces
	// (Orchestrator.Traces). nil (the default) constructs no engine at
	// all — the fabric hot path is untouched.
	Traffic *traffic.Spec
	// FabricOverrides, when set, is applied to the fabric configuration
	// after the scenario's defaults — the hook ablation benches use to
	// flip PLB policies (greedy placement, degradation accounting,
	// balancing) without widening the scenario surface.
	FabricOverrides func(*fabric.Config)
	// Obs, when set, instruments the whole run: the orchestrator binds
	// it to the simulation clock and threads it through the fabric, the
	// population manager, every RgManager, and telemetry. nil (the
	// default) disables all tracing and metrics at zero cost.
	Obs *obs.Obs
	// Journal, when set, records every cluster event and causal
	// annotation the run produces. The orchestrator attaches it before
	// the cluster starts so initial placements are captured, and samples
	// the run into a series store (Orchestrator.Series) for the journal's
	// .series.json sidecar. nil (the default) keeps the fabric's
	// annotation paths disabled entirely.
	Journal *journal.Writer
	// Alerts, when set, attaches the watch layer (Orchestrator.Alerts):
	// an alert engine evaluating the rules against the series store on
	// the sim clock, emitting alert-firing/alert-resolved annotations
	// into the journal's causal chains, and publishing samples and
	// transitions to stream subscribers. An empty spec builds an idle
	// engine that only feeds subscribers; nil leaves every hot path
	// untouched.
	Alerts *alert.Spec
}

// DomainUpgrade schedules a safety-checked rolling upgrade over the
// cluster's upgrade domains during the measured window.
type DomainUpgrade struct {
	// Start is the delay after the measured window opens.
	Start time.Duration
	// Spec configures the walker; zero fields take fabric defaults.
	Spec fabric.UpgradeSpec
}

// Validate checks scenario consistency.
func (s *Scenario) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("core: scenario %q has no nodes", s.Name)
	}
	if s.Density <= 0 {
		return fmt.Errorf("core: scenario %q has non-positive density", s.Name)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("core: scenario %q has non-positive duration", s.Name)
	}
	if s.Models == nil {
		return fmt.Errorf("core: scenario %q has no model set", s.Name)
	}
	if s.Catalog == nil {
		return fmt.Errorf("core: scenario %q has no SLO catalog", s.Name)
	}
	if s.FaultDomains < 0 || s.UpgradeDomains < 0 {
		return fmt.Errorf("core: scenario %q has negative domain counts", s.Name)
	}
	if s.DomainUpgrade != nil && s.DomainUpgrade.Start < 0 {
		return fmt.Errorf("core: scenario %q has negative upgrade start", s.Name)
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return fmt.Errorf("core: scenario %q: %w", s.Name, err)
		}
	}
	if err := s.Alerts.Validate(); err != nil {
		return fmt.Errorf("core: scenario %q: %w", s.Name, err)
	}
	if err := s.Traffic.Validate(); err != nil {
		return fmt.Errorf("core: scenario %q: %w", s.Name, err)
	}
	for e, mix := range s.Population.SLOMix {
		for _, sw := range mix {
			sl, ok := s.Catalog.Lookup(sw.Name)
			if !ok {
				return fmt.Errorf("core: scenario %q population references unknown SLO %q", s.Name, sw.Name)
			}
			if sl.Edition != e {
				return fmt.Errorf("core: scenario %q maps SLO %q under wrong edition %s", s.Name, sw.Name, e)
			}
		}
	}
	return nil
}

// DefaultSLOMix returns the paper-representative SLO demographics: most
// databases are small (2-4 cores) with a thin tail of large ones,
// including the occasional 24-core Premium/BC database whose admission
// at 110% density (96 cores across four replicas) drives the §5.3.1
// redirect crossover.
func DefaultSLOMix() map[slo.Edition][]models.SLOWeight {
	return map[slo.Edition][]models.SLOWeight{
		slo.StandardGP: {
			{Name: "GP_Gen5_2", Weight: 0.86},
			{Name: "GP_Gen5_4", Weight: 0.10},
			{Name: "GP_Gen5_8", Weight: 0.03},
			{Name: "GP_Gen5_16", Weight: 0.01},
		},
		slo.PremiumBC: {
			{Name: "BC_Gen5_2", Weight: 0.87},
			{Name: "BC_Gen5_4", Weight: 0.09},
			{Name: "BC_Gen5_6", Weight: 0.025},
			{Name: "BC_Gen5_8", Weight: 0.012},
			{Name: "BC_Gen5_24", Weight: 0.003},
		},
	}
}

// DefaultInitialPopulation returns the Table 2 population: 33 Premium/BC
// and 187 Standard/GP databases with initial disk loads that put the
// cluster at roughly 77% disk utilization (Table 3).
func DefaultInitialPopulation(seed uint64) InitialPopulation {
	return InitialPopulation{
		Counts: map[slo.Edition]int{
			slo.PremiumBC:  33,
			slo.StandardGP: 187,
		},
		SLOMix: DefaultSLOMix(),
		InitialDiskGB: map[slo.Edition]models.GrowthBin{
			slo.PremiumBC:  {LoGB: 150, HiGB: 1100},
			slo.StandardGP: {LoGB: 4, HiGB: 60},
		},
		Seed: seed,
	}
}

// DefaultScenario returns the paper's experimental setup (§5.2): a
// 14-node gen5 stage cluster, 6-day measured runs and 15-minute model
// refresh. The orchestrator fixes the telemetry and memory-report
// intervals, and the fabric the PLB scan.
func DefaultScenario(name string, density float64, set *models.ModelSet, seeds Seeds) *Scenario {
	return &Scenario{
		Name:                 name,
		Start:                ScenarioEpoch,
		Nodes:                14,
		NodeSpec:             slo.Gen5Node(),
		Density:              density,
		BootstrapDuration:    6 * time.Hour,
		Duration:             6 * 24 * time.Hour,
		Population:           DefaultInitialPopulation(seeds.Bootstrap),
		Models:               set,
		Catalog:              slo.Gen5(),
		Seeds:                seeds,
		ModelRefreshInterval: 15 * time.Minute,
	}
}

// ChurnSLOMix returns the SLO demographics of *newly created* databases
// during the measured window. Compared to the initial population it
// carries a fatter tail of large Premium/BC SLOs — including the 24-core
// BC databases (96 reserved cores across four replicas) whose admission
// only at elevated density drives the §5.3.1 redirect crossover.
func ChurnSLOMix() map[slo.Edition][]models.SLOWeight {
	return map[slo.Edition][]models.SLOWeight{
		slo.StandardGP: {
			{Name: "GP_Gen5_2", Weight: 0.895},
			{Name: "GP_Gen5_4", Weight: 0.10},
			{Name: "GP_Gen5_8", Weight: 0.005},
		},
		slo.PremiumBC: {
			{Name: "BC_Gen5_2", Weight: 0.78},
			{Name: "BC_Gen5_4", Weight: 0.16},
			{Name: "BC_Gen5_6", Weight: 0.04},
			{Name: "BC_Gen5_8", Weight: 0.015},
			{Name: "BC_Gen5_24", Weight: 0.005},
		},
	}
}
