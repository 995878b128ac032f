// Command tototrain runs the paper's §4 model-building pipeline over
// synthetic production traces and emits the deployable model XML that
// Toto writes into a cluster's Naming Service.
//
// Usage:
//
//	tototrain                     # train with the default seed, XML to stdout
//	tototrain -seed 7 -o m.xml    # explicit seed, write to a file
//	tototrain -validate           # also print the §4 validation report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"toto/internal/bench"
	"toto/internal/core"
	"toto/internal/obs"
	"toto/internal/obs/journal"
	"toto/internal/slo"
	"toto/internal/trace"
	"toto/internal/trainer"
)

func main() {
	seed := flag.Uint64("seed", 42, "training seed (drives trace generation and fitting)")
	outPath := flag.String("o", "", "write the model XML to this file (default stdout)")
	validate := flag.Bool("validate", false, "print the §4 validation report (K-S tests, Figure 8/9 checks)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tototrain:", err)
		os.Exit(1)
	}
	if obsFlags.AlertsPath != "" {
		// Training runs no cluster, so there is nothing for the watch
		// layer to evaluate; fail loudly rather than silently ignore.
		fmt.Fprintln(os.Stderr, "tototrain: -alerts is not supported (training has no cluster to watch)")
		os.Exit(2)
	}
	// Training has no cluster to journal; -journal-out records the run's
	// metadata and final metrics snapshot for provenance.
	var jw *journal.Writer
	if obsFlags.JournalOut != "" {
		jw, err = journal.Create(obsFlags.JournalOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tototrain:", err)
			os.Exit(1)
		}
		jw.Meta("tototrain", core.ScenarioEpoch, map[string]string{
			"tool": "tototrain", "seed": fmt.Sprintf("%d", *seed),
		})
	}
	fail := func(err error) {
		_ = jw.Close()
		_ = sess.Close()
		fmt.Fprintln(os.Stderr, "tototrain:", err)
		os.Exit(1)
	}
	finish := func() {
		if jw != nil {
			if sess.Obs != nil {
				jw.Snapshot(sess.Obs.Registry().Snapshot(), core.ScenarioEpoch)
			}
			if err := jw.Close(); err != nil {
				fail(err)
			}
		}
		if err := sess.Close(); err != nil {
			fail(err)
		}
	}

	sp := sess.Obs.Span("train.models", obs.I64("seed", int64(*seed)))
	tm := core.TrainDefaultModels(*seed)
	sp.End(obs.Int("disk_traces", len(tm.DiskTraces)))

	if *validate {
		report(tm, *seed)
	}

	data, err := tm.Set.EncodeXML()
	if err != nil {
		fail(err)
	}
	if *outPath == "" {
		os.Stdout.Write(data)
		fmt.Println()
		finish()
		return
	}
	// Through a temp file and a rename, so that an interrupted run (or
	// `go generate ./internal/core`) leaves no truncated model file.
	if err := obs.WriteFile(*outPath, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "tototrain: wrote %d bytes of model XML to %s\n", len(data), *outPath)
	finish()
}

// report prints the training diagnostics the paper's §4 walks through.
func report(tm *core.TrainedModels, seed uint64) {
	w := os.Stderr
	fmt.Fprintf(w, "=== Toto model training report (seed %d) ===\n\n", seed)

	fmt.Fprintf(w, "Training data: %d-day region trace (%d rings), %d disk traces over %d days\n\n",
		tm.Region.Config.Days, tm.Region.Config.Rings, len(tm.DiskTraces), diskTraceDays(tm.DiskTraces))

	if f7, err := bench.RunFig7(tm); err == nil {
		f7.Print(w)
		fmt.Fprintln(w)
	}

	f8, err := bench.RunFig8(tm, 100, seed)
	if err == nil {
		f8.Print(w)
		fmt.Fprintln(w)
	}

	for _, e := range slo.Editions() {
		dt := tm.Disk[e]
		fmt.Fprintf(w, "%s disk training: %d DBs, steady share %.2f%%, %d initial-growth, %d rapid-growth\n",
			e, dt.TotalDBs, 100*dt.SteadyFraction, len(dt.InitialDBs), len(dt.RapidDBs))
		if dt.Model.Initial != nil {
			fmt.Fprintf(w, "  initial growth: p=%.3f over %v, %d bins\n",
				dt.Model.Initial.Probability, dt.Model.Initial.Duration, len(dt.Model.Initial.Bins))
		}
		if dt.Model.Rapid != nil {
			fmt.Fprintf(w, "  rapid growth:   p=%.3f cycle=%v\n",
				dt.Model.Rapid.Probability, dt.Model.Rapid.CycleDuration())
		}
		if f9, err := bench.RunFig9(tm, e, seed); err == nil {
			fmt.Fprintf(w, "  cumulative fit: production %.1fGB vs model %.1fGB (RMSE %.2f)\n",
				f9.ProdFinalGB, f9.ModelFinalGB, f9.RMSE)
		}
	}
	// §5.5 extension: per-database lifetime model, trained from the
	// per-database lifecycle stream.
	lifeCfg := trace.DefaultLifetimeConfig(seed + 2)
	events := trace.GenerateDBEvents(lifeCfg)
	windowEnd := trace.Epoch.Add(time.Duration(lifeCfg.Days) * 24 * time.Hour)
	for _, e := range slo.Editions() {
		lt := trainer.TrainLifetime(events, e, windowEnd, 5)
		if lt.Model == nil {
			continue
		}
		fmt.Fprintf(w, "%s lifetime model: %.0f%% long-lived; %d observed lifetimes in %d bins (%.0fh..%.0fh)\n",
			e, 100*lt.Model.LongLivedFraction, lt.Observed, len(lt.Model.Bins),
			lt.Model.Bins[0].LoGB, lt.Model.Bins[len(lt.Model.Bins)-1].HiGB)
	}
	fmt.Fprintln(w)
}

// diskTraceDays is the span of the longest disk trace in whole days.
func diskTraceDays(traces []trace.DBTrace) int {
	var span time.Duration
	for _, tr := range traces {
		span = max(span, time.Duration(len(tr.UsageGB))*tr.Interval)
	}
	return int(span / (24 * time.Hour))
}
