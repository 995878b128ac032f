// Command totolab runs a fleet of independently seeded benchmark
// scenarios in parallel — one simulation per core — and merges the
// per-run results into a single KPI report.
//
// Each cell of the densities × repeats matrix is a full experiment
// (bootstrap, measured window, revenue scoring) with seeds derived from
// its matrix position, so the fleet's results are bit-identical to
// running the same cells serially: -workers changes only the wall
// clock, never a number. The per-run fingerprint printed with -v, a
// digest of the run's whole result, makes that checkable by eye across
// invocations.
//
// Usage:
//
//	totolab                                  # 1.0 density, 3 repeats, 24h runs
//	totolab -densities 1.0,1.1,1.2,1.4 -repeats 2
//	totolab -hours 144 -workers 4            # full-length runs, 4 sims at a time
//	totolab -workers 1                       # serial reference
//	totolab -traffic traffic.json            # drive request traffic in every cell
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"toto/internal/core"
	"toto/internal/fleet"
	"toto/internal/obs/reqtrace"
	"toto/internal/traffic"
)

func main() {
	densitiesFlag := flag.String("densities", "1.0", "comma-separated core over-reservation factors")
	repeats := flag.Int("repeats", 3, "independently seeded runs per density")
	hours := flag.Float64("hours", 24, "measured window per run, in hours")
	bootstrapHours := flag.Float64("bootstrap-hours", 6, "bootstrap phase per run, in hours")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 0, "offset added to all base seeds")
	trafficPath := flag.String("traffic", "", "JSON traffic spec file: drive request-level traffic in every cell")
	reqtraceOn := flag.Bool("reqtrace", false, "trace requests with tail-based sampling in every cell (needs -traffic); sampler counters join the fingerprints")
	verbose := flag.Bool("v", false, "print one row per run with its fingerprint")
	flag.Parse()

	densities, err := parseDensities(*densitiesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "totolab:", err)
		os.Exit(1)
	}

	seeds := core.Seeds{Population: 11, Models: 22, PLB: 33, Bootstrap: 44}
	seeds.Population += *seed
	seeds.Models += *seed
	seeds.PLB += *seed
	seeds.Bootstrap += *seed

	cfg := fleet.Config{
		Densities: densities,
		Repeats:   *repeats,
		Duration:  time.Duration(*hours * float64(time.Hour)),
		Bootstrap: time.Duration(*bootstrapHours * float64(time.Hour)),
		Seeds:     seeds,
		Models:    core.DefaultModels().Set,
		Workers:   *workers,
	}
	if *trafficPath != "" {
		ts, err := core.ReadSection(*trafficPath, "traffic", traffic.ParseSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "totolab:", err)
			os.Exit(1)
		}
		if *reqtraceOn && ts.Reqtrace == nil {
			ts.Reqtrace = &reqtrace.Spec{} // defaults: 1-in-1000, ring 512
		}
		// Each cell gets its own arrival stream, derived from its matrix
		// position so the fleet stays reproducible on any worker count.
		cfg.Configure = func(spec fleet.RunSpec, sc *core.Scenario) {
			cell := *ts
			cell.Seed += uint64(spec.Index) * 6700417
			sc.Traffic = &cell
		}
	} else if *reqtraceOn {
		fmt.Fprintln(os.Stderr, "totolab: -reqtrace given without -traffic")
		os.Exit(1)
	}

	cells := len(fleet.Matrix(cfg))
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	fmt.Printf("totolab: %d runs (%d densities x %d repeats, %.0fh windows), %d workers\n",
		cells, len(densities), *repeats, *hours, w)

	res, err := fleet.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "totolab:", err)
		os.Exit(1)
	}

	if *verbose {
		for _, rr := range res.Runs {
			if rr.Err != nil {
				fmt.Printf("  %-9s FAILED: %v\n", rr.Spec.Name, rr.Err)
				continue
			}
			r := rr.Result
			fp, err := fleet.Fingerprint(r)
			if err != nil {
				fmt.Fprintln(os.Stderr, "totolab:", rr.Spec.Name, err)
				os.Exit(1)
			}
			trafficCols := ""
			if st := r.Traffic; st != nil {
				trafficCols = fmt.Sprintf("p99=%-6.0fms errRate=%-7.4f ", st.P99Ms, st.ErrorRate)
				if st.Hedges > 0 || st.HedgesDenied > 0 {
					trafficCols += fmt.Sprintf("hedges=%-5d ", st.Hedges)
				}
			}
			fmt.Printf("  %-9s creates=%-4d drops=%-4d failovers=%-3d movedCores=%-7.1f adjusted=$%-10.0f %s%6.2fs  fp=%s\n",
				rr.Spec.Name, r.Creates, r.Drops, r.UnplannedFailovers,
				r.TotalFailedOverCores(), r.Revenue.Adjusted, trafficCols, rr.Elapsed.Seconds(), fp)
		}
	}

	fmt.Printf("fleet: wall %.1fs, sum-of-runs %.1fs, speedup %.1fx on %d workers\n",
		res.Elapsed.Seconds(), res.SumElapsed.Seconds(), res.Speedup(), res.Workers)

	for _, s := range fleet.Report(res) {
		fmt.Printf("density %3.0f%%: adjusted $%.0f +/- %.0f  failovers med %.0f [%.0f-%.0f]  movedCores med %.1f  creates %.0f  drops %.0f\n",
			s.Density*100, s.AdjustedMean, s.AdjustedStdDev,
			s.Failovers.Median, s.Failovers.LowWhisk, s.Failovers.HiWhisk,
			s.FailedOverCores.Median, s.CreatesMean, s.DropsMean)
	}

	if errs := res.Errs(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "totolab:", e)
		}
		os.Exit(1)
	}
}

func parseDensities(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.ParseFloat(part, 64)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad density %q", part)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no densities given")
	}
	return out, nil
}
