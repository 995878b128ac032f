package fleet

import (
	"runtime"
	"testing"
	"time"

	"toto/internal/core"
	"toto/internal/obs/reqtrace"
	"toto/internal/traffic"
)

func testConfig(workers int) Config {
	return Config{
		Densities: []float64{1.0, 1.1, 1.2, 1.4},
		Repeats:   2,
		Duration:  12 * time.Hour,
		Bootstrap: 2 * time.Hour,
		Models:    core.DefaultModels().Set,
		Workers:   workers,
	}
}

// fingerprint digests one healthy cell's result.
func fingerprint(t *testing.T, rr RunResult) string {
	t.Helper()
	fp, err := Fingerprint(rr.Result)
	if err != nil {
		t.Fatalf("cell %s: %v", rr.Spec.Name, err)
	}
	return fp
}

func TestMatrixExpansion(t *testing.T) {
	cfg := testConfig(1)
	runs := Matrix(cfg)
	if len(runs) != 8 {
		t.Fatalf("matrix has %d cells, want 8", len(runs))
	}
	// Density-major order, indices sequential, names stable.
	if runs[0].Name != "d100-r0" || runs[1].Name != "d100-r1" || runs[2].Name != "d110-r0" {
		t.Errorf("unexpected cell names: %s, %s, %s", runs[0].Name, runs[1].Name, runs[2].Name)
	}
	for i, r := range runs {
		if r.Index != i {
			t.Errorf("cell %s has index %d, want %d", r.Name, r.Index, i)
		}
	}
	// Repeat 0 runs at the base seeds; repeats vary them; densities within
	// a repeat share them (the paper's density-study protocol).
	base := defaultSeeds()
	if runs[0].Seeds != base {
		t.Errorf("repeat 0 seeds = %+v, want base %+v", runs[0].Seeds, base)
	}
	if runs[1].Seeds == base {
		t.Error("repeat 1 did not vary the seeds")
	}
	if runs[0].Seeds != runs[2].Seeds {
		t.Error("same repeat at different densities should share seeds")
	}
	// Pure expansion: same config, same matrix.
	again := Matrix(cfg)
	for i := range runs {
		if runs[i] != again[i] {
			t.Fatalf("matrix expansion not pure at cell %d", i)
		}
	}
}

// TestFleetParallelMatchesSerial is the fleet's determinism contract: a
// parallel fleet produces bit-identical per-run results to the serial
// reference, verified on the whole-result fingerprint of all 8 matrix
// cells.
func TestFleetParallelMatchesSerial(t *testing.T) {
	serial, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if errs := serial.Errs(); len(errs) > 0 {
		t.Fatalf("serial fleet failed: %v", errs)
	}
	if serial.Workers != 1 {
		t.Fatalf("serial fleet ran with %d workers", serial.Workers)
	}

	// Pin 4 workers rather than GOMAXPROCS: on a single-core host the
	// goroutines still interleave, which is exactly what the determinism
	// claim (and the race detector in CI) must survive.
	par, err := Run(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if errs := par.Errs(); len(errs) > 0 {
		t.Fatalf("parallel fleet failed: %v", errs)
	}
	if par.Workers != 4 {
		t.Errorf("parallel fleet ran with %d workers, want 4", par.Workers)
	}
	if def, err := Run(Config{Models: testConfig(0).Models, Densities: []float64{1.0}, Duration: time.Hour}); err != nil {
		t.Fatal(err)
	} else if want := min(runtime.GOMAXPROCS(0), 1); def.Workers != want {
		t.Errorf("default worker count = %d, want min(GOMAXPROCS, cells) = %d", def.Workers, want)
	}

	for i := range serial.Runs {
		s, p := serial.Runs[i], par.Runs[i]
		if s.Spec != p.Spec {
			t.Fatalf("cell %d spec mismatch: %+v vs %+v", i, s.Spec, p.Spec)
		}
		if sf, pf := fingerprint(t, s), fingerprint(t, p); sf != pf {
			t.Errorf("cell %s: serial fingerprint %s != parallel %s", s.Spec.Name, sf, pf)
		}
	}
	t.Logf("serial %v, parallel %v on %d workers (speedup %.1fx)",
		serial.Elapsed, par.Elapsed, par.Workers, par.Speedup())
}

// TestFleetTrafficParallelDeterminism extends the determinism contract
// to the request-level traffic plane: fleets that flow traffic must stay
// bit-reproducible across worker counts, and the traffic counters must
// join the fingerprint (a traffic-bearing run digests differently from
// the identical traffic-free run).
func TestFleetTrafficParallelDeterminism(t *testing.T) {
	withTraffic := func(workers int) Config {
		cfg := testConfig(workers)
		cfg.Densities = []float64{1.0, 1.2}
		cfg.Configure = func(spec RunSpec, sc *core.Scenario) {
			sc.Traffic = &traffic.Spec{Seed: 0xF00D + uint64(spec.Index), SLOP99Ms: 500}
		}
		return cfg
	}
	serial, err := Run(withTraffic(1))
	if err != nil {
		t.Fatal(err)
	}
	if errs := serial.Errs(); len(errs) > 0 {
		t.Fatalf("serial traffic fleet failed: %v", errs)
	}
	par, err := Run(withTraffic(4))
	if err != nil {
		t.Fatal(err)
	}
	if errs := par.Errs(); len(errs) > 0 {
		t.Fatalf("parallel traffic fleet failed: %v", errs)
	}
	for i := range serial.Runs {
		s, p := serial.Runs[i], par.Runs[i]
		if s.Result.Traffic == nil || s.Result.Traffic.Arrivals == 0 {
			t.Fatalf("cell %s flowed no traffic", s.Spec.Name)
		}
		if sf, pf := fingerprint(t, s), fingerprint(t, p); sf != pf {
			t.Errorf("cell %s: serial fingerprint %s != parallel %s", s.Spec.Name, sf, pf)
		}
	}

	// Same cells without traffic: the fabric outputs are identical (the
	// plane observes, never feeds back), so only the traffic section may
	// separate the digests.
	base := withTraffic(1)
	base.Configure = nil
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Runs {
		pr, tr := plain.Runs[i], serial.Runs[i]
		if pr.Result.Traffic != nil {
			t.Fatalf("cell %s grew traffic stats without a spec", pr.Spec.Name)
		}
		if fingerprint(t, pr) == fingerprint(t, tr) {
			t.Errorf("cell %s: traffic counters did not join the fingerprint", pr.Spec.Name)
		}
		if pr.Result.UnplannedFailovers != tr.Result.UnplannedFailovers ||
			pr.Result.Revenue.Adjusted != tr.Result.Revenue.Adjusted {
			t.Errorf("cell %s: traffic plane perturbed the fabric outputs", pr.Spec.Name)
		}
	}
}

// TestFleetTracedParallelDeterminism is the sampler's cross-worker
// contract: request tracing draws from its own rng stream inside each
// cell, so a traced fleet run in parallel is bit-identical to the serial
// reference — sampler counters included, because they are part of the
// result the fingerprint digests. Against the identical untraced fleet,
// only the fingerprint may differ (the counters join the digest); every
// traffic aggregate stays the same.
func TestFleetTracedParallelDeterminism(t *testing.T) {
	traced := func(workers int, trace bool) Config {
		cfg := testConfig(workers)
		cfg.Densities = []float64{1.0, 1.2}
		cfg.Configure = func(spec RunSpec, sc *core.Scenario) {
			ts := &traffic.Spec{Seed: 0xF00D + uint64(spec.Index), SLOP99Ms: 500}
			if trace {
				ts.Reqtrace = &reqtrace.Spec{SampleOneIn: 50}
			}
			sc.Traffic = ts
		}
		return cfg
	}
	serial, err := Run(traced(1, true))
	if err != nil {
		t.Fatal(err)
	}
	if errs := serial.Errs(); len(errs) > 0 {
		t.Fatalf("serial traced fleet failed: %v", errs)
	}
	par, err := Run(traced(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if errs := par.Errs(); len(errs) > 0 {
		t.Fatalf("parallel traced fleet failed: %v", errs)
	}
	for i := range serial.Runs {
		s, p := serial.Runs[i], par.Runs[i]
		rt := s.Result.Traffic.Reqtrace
		if rt == nil || rt.Considered == 0 || rt.Kept == 0 {
			t.Fatalf("cell %s kept no traces: %+v", s.Spec.Name, rt)
		}
		if sf, pf := fingerprint(t, s), fingerprint(t, p); sf != pf {
			t.Errorf("cell %s: serial fingerprint %s != parallel %s", s.Spec.Name, sf, pf)
		}
		if prt := p.Result.Traffic.Reqtrace; *rt != *prt {
			t.Errorf("cell %s: sampler counters diverged across workers:\nserial   %+v\nparallel %+v",
				s.Spec.Name, rt, prt)
		}
	}

	// The untraced twin: tracing must not move a single traffic number,
	// only the fingerprint (which digests the sampler counters).
	plain, err := Run(traced(1, false))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Runs {
		pr, tr := plain.Runs[i], serial.Runs[i]
		if pr.Result.Traffic.Reqtrace != nil {
			t.Fatalf("cell %s grew sampler stats without tracing", pr.Spec.Name)
		}
		if fingerprint(t, pr) == fingerprint(t, tr) {
			t.Errorf("cell %s: sampler counters did not join the traced fingerprint", pr.Spec.Name)
		}
		pu, tu := *pr.Result.Traffic, *tr.Result.Traffic
		pu.Reqtrace, tu.Reqtrace = nil, nil
		if pu != tu {
			t.Errorf("cell %s: tracing perturbed traffic stats:\nuntraced %+v\ntraced   %+v",
				pr.Spec.Name, pu, tu)
		}
	}
}

func TestFleetReport(t *testing.T) {
	res, err := Run(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	sums := Report(res)
	if len(sums) != 4 {
		t.Fatalf("report has %d density rows, want 4", len(sums))
	}
	for i, s := range sums {
		if s.Runs != 2 {
			t.Errorf("density %.2f aggregates %d runs, want 2", s.Density, s.Runs)
		}
		if i > 0 && s.Density <= sums[i-1].Density {
			t.Errorf("report densities out of order: %.2f after %.2f", s.Density, sums[i-1].Density)
		}
		if s.AdjustedMean <= 0 {
			t.Errorf("density %.2f has non-positive adjusted revenue %f", s.Density, s.AdjustedMean)
		}
		if s.CreatesMean <= 0 {
			t.Errorf("density %.2f reports no creates", s.Density)
		}
	}
}

// TestFleetRunErrorIsolated: one broken cell fails alone, the rest of
// the fleet still completes.
func TestFleetRunErrorIsolated(t *testing.T) {
	cfg := testConfig(0)
	cfg.Densities = []float64{1.0}
	cfg.Repeats = 3
	cfg.Duration = 6 * time.Hour
	cfg.Configure = func(spec RunSpec, sc *core.Scenario) {
		if spec.Repeat == 1 {
			sc.Nodes = 0 // fails validation inside core.Run
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := res.Errs()
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want exactly 1: %v", len(errs), errs)
	}
	if res.Runs[1].Err == nil || res.Runs[0].Err != nil || res.Runs[2].Err != nil {
		t.Errorf("error not isolated to cell 1: %+v", res.Errs())
	}
	if res.Runs[0].Result == nil || res.Runs[2].Result == nil {
		t.Error("healthy cells missing results")
	}
	if sums := Report(res); len(sums) != 1 || sums[0].Runs != 2 {
		t.Errorf("report should aggregate the 2 healthy runs, got %+v", sums)
	}
}

func TestFleetRequiresModels(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("fleet without models should fail")
	}
}
