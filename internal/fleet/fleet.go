// Package fleet runs a matrix of independently seeded benchmark
// scenarios in parallel — one simulation per worker, workers defaulting
// to GOMAXPROCS — and merges the per-run results into a single
// deterministic report.
//
// Each simulation is single-threaded and owns its entire world (clock,
// cluster, population manager, RNG streams), so N simulations on N cores
// scale near-linearly: the only shared state is the immutable trained
// model set. Determinism is preserved by construction, not by luck —
// every run's seeds are derived from its position in the matrix before
// any goroutine starts, and results land at their matrix index
// regardless of completion order, so a fleet at Workers=8 produces
// bit-identical per-run results (and an identical merged report) to the
// same fleet at Workers=1. TestFleetParallelMatchesSerial pins that
// property on every run's Fingerprint, a digest of the whole result.
package fleet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"toto/internal/core"
	"toto/internal/models"
	"toto/internal/stats"
)

// Config describes a fleet: a densities × repeats matrix of scenarios
// plus how to run it.
type Config struct {
	// Densities are the core over-reservation factors to sweep (default
	// {1.0}). Runs at different densities within one repeat share seeds,
	// mirroring the paper's density study; repeats vary the seeds.
	Densities []float64
	// Repeats is how many independently seeded runs to make per density
	// (default 1).
	Repeats int
	// Duration is each run's measured window (default 24h).
	Duration time.Duration
	// Bootstrap is each run's bootstrap phase (default 6h, matching
	// core.DefaultScenario).
	Bootstrap time.Duration
	// Seeds are the repeat-0 base seeds; later repeats derive theirs
	// deterministically. The zero value takes the repo's test defaults.
	Seeds core.Seeds
	// Models is the trained model set shared read-only by every run
	// (required).
	Models *models.ModelSet
	// Workers caps how many simulations run concurrently; <= 0 means
	// GOMAXPROCS. Workers=1 is the serial reference order.
	Workers int
	// Configure, when set, is applied to each run's scenario after the
	// defaults, on the worker goroutine that runs it — the hook callers
	// use to name runs, vary seeds or attach instrumentation, and tests
	// to shorten telemetry intervals, without widening this config.
	Configure func(spec RunSpec, sc *core.Scenario)
}

// RunSpec identifies one cell of the fleet matrix.
type RunSpec struct {
	// Index is the cell's position in matrix order (density-major).
	Index int
	// Name labels the run ("d110-r2" = density 1.10, repeat 2).
	Name string
	// Density and Repeat are the cell's matrix coordinates.
	Density float64
	Repeat  int
	// Seeds are the run's derived seeds.
	Seeds core.Seeds
}

// RunResult is one completed cell: the spec it ran and the full result.
// Elapsed is host wall time — diagnostic only, never part of the result.
type RunResult struct {
	Spec    RunSpec
	Result  *core.Result
	Elapsed time.Duration
	Err     error
}

// Result is a completed fleet: per-run results in matrix order (not
// completion order) plus the wall-clock cost of the whole fleet.
type Result struct {
	Runs    []RunResult
	Workers int
	// Elapsed is the fleet's wall time; SumElapsed the total single-run
	// time it covered. Their ratio is the realized parallel speedup.
	Elapsed    time.Duration
	SumElapsed time.Duration
}

// Speedup returns SumElapsed/Elapsed — the realized parallelism.
func (r *Result) Speedup() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.SumElapsed.Seconds() / r.Elapsed.Seconds()
}

// Errs returns the errors of failed runs (nil when the fleet is green).
func (r *Result) Errs() []error {
	var errs []error
	for _, rr := range r.Runs {
		if rr.Err != nil {
			errs = append(errs, fmt.Errorf("fleet: run %s: %w", rr.Spec.Name, rr.Err))
		}
	}
	return errs
}

// defaultSeeds mirrors the repo-wide test seeds so a zero Config still
// runs a meaningful fleet.
func defaultSeeds() core.Seeds {
	return core.Seeds{Population: 11, Models: 22, PLB: 33, Bootstrap: 44}
}

// repeatSeeds derives repeat r's seeds from the base. Repeat 0 is the
// base itself; later repeats shift the PLB seed by base.RepeatRun(r),
// exactly like core.RepeatRun (the paper's §5.3.4 protocol), and give the
// population its own stream so repeats are fully independent workloads.
func repeatSeeds(base core.Seeds, r int) core.Seeds {
	s := base.RepeatRun(r)
	s.Population += uint64(r) * 7919
	s.Bootstrap += uint64(r) * 15485863
	return s
}

// Matrix expands the config into its run cells, density-major: all
// repeats of Densities[0], then all of Densities[1], and so on. The
// expansion is pure — seeds depend only on matrix position — which is
// what makes parallel execution trivially deterministic.
func Matrix(cfg Config) []RunSpec {
	densities := cfg.Densities
	if len(densities) == 0 {
		densities = []float64{1.0}
	}
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	base := cfg.Seeds
	if base == (core.Seeds{}) {
		base = defaultSeeds()
	}
	runs := make([]RunSpec, 0, len(densities)*repeats)
	for _, d := range densities {
		for r := 0; r < repeats; r++ {
			runs = append(runs, RunSpec{
				Index:   len(runs),
				Name:    fmt.Sprintf("d%03.0f-r%d", d*100, r),
				Density: d,
				Repeat:  r,
				Seeds:   repeatSeeds(base, r),
			})
		}
	}
	return runs
}

// Run executes the fleet. Cells are handed to a pool of Workers
// goroutines; each builds a fresh scenario (sharing only the immutable
// model set), runs the full experiment protocol, and stores its result
// at the cell's matrix index. An error in one run does not stop the
// others — check Result.Errs.
func Run(cfg Config) (*Result, error) {
	if cfg.Models == nil {
		return nil, fmt.Errorf("fleet: config has no model set")
	}
	runs := Matrix(cfg)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}

	out := make([]RunResult, len(runs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				out[idx] = runOne(cfg, runs[idx])
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	res := &Result{Runs: out, Workers: workers, Elapsed: time.Since(start)}
	for _, rr := range out {
		res.SumElapsed += rr.Elapsed
	}
	return res, nil
}

// runOne executes one cell in the calling goroutine.
func runOne(cfg Config, spec RunSpec) RunResult {
	sc := core.DefaultScenario(spec.Name, spec.Density, cfg.Models, spec.Seeds)
	if cfg.Duration > 0 {
		sc.Duration = cfg.Duration
	} else {
		sc.Duration = 24 * time.Hour
	}
	if cfg.Bootstrap > 0 {
		sc.BootstrapDuration = cfg.Bootstrap
	}
	if cfg.Configure != nil {
		cfg.Configure(spec, sc)
	}
	start := time.Now()
	res, err := core.Run(sc)
	return RunResult{Spec: spec, Result: res, Err: err, Elapsed: time.Since(start)}
}

// Fingerprint digests a run's whole result: SHA-256 over its JSON
// encoding, which writes every exported field, maps in key order and
// floats in shortest round-trip form. The digest is bit-exact — one
// sample differing by one ULP changes it — and a field added to
// core.Result joins it with no new code. Two runs of the same scenario
// must produce equal fingerprints on any worker count; that is the
// "bit-identical" the fleet's determinism contract promises. A NaN or
// infinite float cannot be encoded and returns the encoder's error.
//
// Run does not call it: encoding a result costs milliseconds and
// hundreds of kilobytes, so callers digest only the results they compare.
func Fingerprint(res *core.Result) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return "", fmt.Errorf("fleet: fingerprint: %w", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// DensitySummary aggregates one density level's repeats.
type DensitySummary struct {
	Density float64
	Runs    int
	// Adjusted is the modeled-adjusted-revenue distribution across
	// repeats; Failovers and FailedOverCores likewise.
	Adjusted        stats.BoxPlot
	AdjustedMean    float64
	AdjustedStdDev  float64
	Failovers       stats.BoxPlot
	FailedOverCores stats.BoxPlot
	CreatesMean     float64
	DropsMean       float64
	QuorumLosses    int
}

// Report condenses a fleet result into per-density KPI distributions,
// computed with the repo's stats kit so the merged view is the same
// arithmetic the paper's repeatability analysis uses.
func Report(res *Result) []DensitySummary {
	byDensity := make(map[float64][]*core.Result)
	var order []float64
	for _, rr := range res.Runs {
		if rr.Err != nil || rr.Result == nil {
			continue
		}
		if _, seen := byDensity[rr.Spec.Density]; !seen {
			order = append(order, rr.Spec.Density)
		}
		byDensity[rr.Spec.Density] = append(byDensity[rr.Spec.Density], rr.Result)
	}
	var out []DensitySummary
	for _, d := range order {
		rs := byDensity[d]
		adjusted := make([]float64, 0, len(rs))
		failovers := make([]float64, 0, len(rs))
		movedCores := make([]float64, 0, len(rs))
		creates := make([]float64, 0, len(rs))
		drops := make([]float64, 0, len(rs))
		quorum := 0
		for _, r := range rs {
			adjusted = append(adjusted, r.Revenue.Adjusted)
			failovers = append(failovers, float64(r.UnplannedFailovers))
			movedCores = append(movedCores, r.TotalFailedOverCores())
			creates = append(creates, float64(r.Creates))
			drops = append(drops, float64(r.Drops))
			quorum += r.QuorumLosses
		}
		out = append(out, DensitySummary{
			Density:         d,
			Runs:            len(rs),
			Adjusted:        stats.NewBoxPlot(adjusted),
			AdjustedMean:    stats.Mean(adjusted),
			AdjustedStdDev:  stats.StdDev(adjusted),
			Failovers:       stats.NewBoxPlot(failovers),
			FailedOverCores: stats.NewBoxPlot(movedCores),
			CreatesMean:     stats.Mean(creates),
			DropsMean:       stats.Mean(drops),
			QuorumLosses:    quorum,
		})
	}
	return out
}
