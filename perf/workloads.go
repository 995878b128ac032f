package main

import (
	"compress/gzip"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"toto/internal/core"
	"toto/internal/fleet"
	"toto/internal/models"
	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
)

// The workload scenarios are copies, not references to scenarios/: the
// benchmark's inputs must not move when the repository's own scenarios
// are edited.
var (
	//go:embed workloads/traffic-week.json
	trafficWeekJSON []byte
	//go:embed workloads/grayfail-week.json
	grayfailWeekJSON []byte
)

// workload is one named set of inputs, run through the same public entry
// points users run (core.Run and fleet.Run).
type workload struct {
	name string
	// golden is the seed-0 output digest of the full-size workload.
	golden string
	// prepare builds the workload's scenarios (the timed set-up) and
	// returns the repetition to measure. dir is a scratch directory the
	// repetition may write into.
	prepare func(set *models.ModelSet, seed uint64, short bool, dir string) (func() (*repOutput, error), error)
}

// repOutput is what one repetition produced.
type repOutput struct {
	// results are the runs' results in a fixed order: density order for
	// the campaign, matrix order for the fleet.
	results []*core.Result
	// simDays sums every run's bootstrap plus measured window.
	simDays float64
	// cellS is the wall time of each independent simulation.
	cellS []float64
	// speedup is the summed single-run wall time over the repetition's.
	speedup float64
	// journalPath is the gzipped journal a journaled repetition wrote;
	// closeS is how long closing it took, inside the timed region.
	journalPath string
	closeS      float64
	// journalEvents and journalAnnotations are the writer's own counts.
	journalEvents, journalAnnotations int
}

var workloads = []*workload{
	{name: "campaign", golden: "48dcd83b1074c58a519312610b964621", prepare: prepareCampaign},
	{name: "traffic-week", golden: "f7ad6c2348ade42d80755fac6952ad49", prepare: prepareScenarioFile(trafficWeekJSON, false)},
	{name: "grayfail-journaled", golden: "35d6ffed84aa7747bfc1af77200ef21a", prepare: prepareScenarioFile(grayfailWeekJSON, true)},
	{name: "fleet", golden: "be37db5d50d6cde071d42ede2447ac5d", prepare: prepareFleet},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// offsetSeeds shifts the churn, model and PLB seeds by the benchmark's
// -seed, so seed 0 is the workload as written. The initial population's
// seed stays put, as the paper's protocol holds the starting state
// constant: some initial populations do not fit the 14-node cluster at
// 100% density, and a bootstrap that fails is no benchmark input.
func offsetSeeds(s core.Seeds, by uint64) core.Seeds {
	s.Population += by
	s.Models += by
	s.PLB += by
	return s
}

func simDays(sc *core.Scenario) float64 {
	return (sc.BootstrapDuration + sc.Duration).Hours() / 24
}

// runSerial runs scenarios one after another through core.Run.
func runSerial(scs []*core.Scenario) (*repOutput, error) {
	out := &repOutput{}
	start := time.Now()
	for _, sc := range scs {
		t := time.Now()
		res, err := core.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		out.cellS = append(out.cellS, time.Since(t).Seconds())
		out.results = append(out.results, res)
		out.simDays += simDays(sc)
	}
	out.speedup = sum(out.cellS) / time.Since(start).Seconds()
	return out, nil
}

// prepareCampaign is the paper's §5 campaign: four densities, each a 6 h
// bootstrap plus a 6-day window on the default 14-node cluster, with the
// density study's seeds (bench.DefaultSeeds) and PLB seed ladder, run
// serially. The short form is one density for 12 h.
func prepareCampaign(set *models.ModelSet, seed uint64, short bool, _ string) (func() (*repOutput, error), error) {
	densities := []float64{1.0, 1.1, 1.2, 1.4}
	if short {
		densities = densities[:1]
	}
	base := offsetSeeds(core.Seeds{Population: 101, Models: 202, PLB: 303, Bootstrap: 404}, seed)
	var scs []*core.Scenario
	for i, d := range densities {
		s := base
		s.PLB = base.PLB + uint64(i+1)*7919
		sc := core.DefaultScenario(fmt.Sprintf("density-%.0f%%", d*100), d, set, s)
		if short {
			sc.Duration = 12 * time.Hour
		}
		scs = append(scs, sc)
	}
	return func() (*repOutput, error) { return runSerial(scs) }, nil
}

// prepareScenarioFile parses a scenario file and offsets its scenario
// (as offsetSeeds does), chaos and traffic seeds. A journaled workload
// also traces requests, as totosim -reqtrace does, and writes a gzipped
// journal that it closes inside the timed region. The short form runs
// 12 h.
func prepareScenarioFile(data []byte, journaled bool) func(*models.ModelSet, uint64, bool, string) (func() (*repOutput, error), error) {
	return func(set *models.ModelSet, seed uint64, short bool, dir string) (func() (*repOutput, error), error) {
		sf, err := core.ParseScenarioFile(data)
		if err != nil {
			return nil, err
		}
		sf.Seeds.Population += seed
		sf.Seeds.Models += seed
		sf.Seeds.PLB += seed
		if sf.Chaos != nil {
			sf.Chaos.Seed += seed
		}
		if sf.Traffic != nil {
			sf.Traffic.Seed += seed
			if journaled {
				sf.Traffic.Reqtrace = &reqtrace.Spec{}
			}
		}
		if short {
			sf.Days = 0.5
		}
		sc := sf.Build(set)
		if !journaled {
			return func() (*repOutput, error) { return runSerial([]*core.Scenario{sc}) }, nil
		}
		path := filepath.Join(dir, sc.Name+".jsonl.gz")
		return func() (*repOutput, error) {
			jw, err := journal.Create(path)
			if err != nil {
				return nil, err
			}
			sc.Journal = jw
			out, err := runSerial([]*core.Scenario{sc})
			t := time.Now()
			if cerr := jw.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close journal: %w", cerr)
			}
			if err != nil {
				return nil, err
			}
			out.closeS = time.Since(t).Seconds()
			out.journalPath = path
			out.journalEvents, out.journalAnnotations = jw.Counts()
			return out, nil
		}, nil
	}
}

// prepareFleet is fleet.Run over densities {1.0, 1.1, 1.2, 1.4} × 3
// repeats, each 6 h + 48 h, on two workers with the fleet's default seeds.
// The short form is two cells of 12 h.
func prepareFleet(set *models.ModelSet, seed uint64, short bool, _ string) (func() (*repOutput, error), error) {
	cfg := fleet.Config{
		Densities: []float64{1.0, 1.1, 1.2, 1.4},
		Repeats:   3,
		Duration:  48 * time.Hour,
		Bootstrap: 6 * time.Hour,
		Seeds:     offsetSeeds(core.Seeds{Population: 11, Models: 22, PLB: 33, Bootstrap: 44}, seed),
		Models:    set,
		Workers:   2,
	}
	if short {
		cfg.Densities, cfg.Repeats, cfg.Duration = cfg.Densities[:1], 2, 12*time.Hour
	}
	return func() (*repOutput, error) {
		res, err := fleet.Run(cfg)
		if err != nil {
			return nil, err
		}
		if errs := res.Errs(); len(errs) > 0 {
			return nil, errs[0]
		}
		out := &repOutput{speedup: res.Speedup()}
		for _, rr := range res.Runs {
			out.results = append(out.results, rr.Result)
			out.cellS = append(out.cellS, rr.Elapsed.Seconds())
			out.simDays += (cfg.Bootstrap + cfg.Duration).Hours() / 24
		}
		return out, nil
	}, nil
}

// check rejects a repetition whose runs broke a run-time invariant.
func (o *repOutput) check() error {
	for _, r := range o.results {
		if c := r.Chaos; c != nil && len(c.InvariantViolations) > 0 {
			return fmt.Errorf("%s: %d invariant violations, first: %s", r.Scenario, len(c.InvariantViolations), c.InvariantViolations[0])
		}
	}
	return nil
}

// digest is the repetition's output digest: every run's result digest in
// order, then the decompressed journal stream. It also returns the
// journal's uncompressed size.
func (o *repOutput) digest() (string, int64, error) {
	var parts [][]byte
	for _, r := range o.results {
		parts = append(parts, resultDigest(r))
	}
	var size int64
	if o.journalPath != "" {
		f, err := os.Open(o.journalPath)
		if err != nil {
			return "", 0, err
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			return "", 0, fmt.Errorf("read journal: %w", err)
		}
		h := sha256.New()
		if size, err = io.Copy(h, zr); err != nil {
			return "", 0, fmt.Errorf("read journal: %w", err)
		}
		parts = append(parts, h.Sum(nil))
	}
	return combineDigests(parts), size, nil
}

// counts are the exact, repeatable counters the program reports about
// the repetition, summed over its runs.
func (o *repOutput) counts() map[string]float64 {
	c := map[string]float64{}
	for _, r := range o.results {
		c["count.creates"] += float64(r.Creates)
		c["count.drops"] += float64(r.Drops)
		c["count.redirects"] += float64(len(r.Redirects))
		c["count.unplanned_failovers"] += float64(r.UnplannedFailovers)
		c["count.planned_moves"] += float64(r.PlannedMoves)
		c["count.naming_reads"] += float64(r.NamingReads)
		if t := r.Traffic; t != nil {
			c["count.traffic_arrivals"] += float64(t.Arrivals)
			c["count.traffic_batches"] += float64(t.Batches)
			c["count.traffic_dispatched"] += float64(t.Dispatched)
			c["count.retries"] += float64(t.Retries)
			c["count.hedges"] += float64(t.Hedges)
			if rt := t.Reqtrace; rt != nil {
				c["count.traces_kept"] += float64(rt.Kept)
			}
		}
		if ch := r.Chaos; ch != nil {
			c["count.invariant_checks"] += float64(ch.InvariantChecks)
		}
		if a := r.Alerts; a != nil {
			c["count.alerts_fired"] += float64(a.Fired)
		}
		if s := r.SlowNodes; s != nil {
			c["count.slow_node_detections"] += float64(s.Detections)
		}
	}
	c["count.journal_events"] = float64(o.journalEvents)
	c["count.journal_annotations"] = float64(o.journalAnnotations)
	return c
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
