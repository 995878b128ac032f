// Command totobench regenerates every table and figure of the paper's
// evaluation from the reproduction, printing the same rows/series the
// paper reports.
//
// Usage:
//
//	totobench -run all           # everything (default)
//	totobench -run fig2          # one artifact
//	totobench -run fig10,fig14   # a comma-separated subset
//	totobench -days 2            # shorten the density-study window
//
// Artifact IDs: tab1 tab2 tab3 fig2 fig3a fig3b fig6 fig7 fig8 fig9
// fig10 fig11 fig12a fig12b fig13 fig14, plus the DESIGN.md ablations:
// abl-placement abl-persistence abl-refresh (not included in 'all').
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"toto/internal/bench"
	"toto/internal/core"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/obs/journal"
	"toto/internal/slo"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated artifact IDs, or 'all'")
	days := flag.Int("days", 6, "density-study measured window in days")
	repeats := flag.Int("repeats", 3, "repeatability runs for fig13")
	repeatHours := flag.Int("repeat-hours", 18, "repeatability run length in hours")
	seed := flag.Uint64("seed", 0, "offset added to all default seeds (0 = paper defaults)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "totobench:", err)
		os.Exit(1)
	}
	var alertSpec *alert.Spec
	if obsFlags.AlertsPath != "" {
		alertSpec, err = core.ReadSection(obsFlags.AlertsPath, "alerts", alert.ParseSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "totobench: -alerts:", err)
			os.Exit(1)
		}
	}
	// totobench drives many clusters per invocation, so a per-event
	// journal is ill-defined here; -journal-out records the run's metadata
	// and final metrics snapshot (totosim journals single runs in full).
	var jw *journal.Writer
	if obsFlags.JournalOut != "" {
		jw, err = journal.Create(obsFlags.JournalOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "totobench:", err)
			os.Exit(1)
		}
		jw.Meta("totobench", core.ScenarioEpoch, map[string]string{
			"tool": "totobench", "run": *runFlag, "days": fmt.Sprintf("%d", *days),
		})
	}

	want := map[string]bool{}
	all := *runFlag == "all"
	for _, id := range strings.Split(*runFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}
	sel := func(id string) bool { return all || want[id] }

	seeds := bench.DefaultSeeds
	seeds.Population += *seed
	seeds.Models += *seed
	seeds.PLB += *seed
	seeds.Bootstrap += *seed

	out := os.Stdout
	fail := func(err error) {
		// Flush whatever trace/metrics/profile data exists before dying,
		// so a failed run is still diagnosable.
		_ = jw.Close()
		_ = sess.Close()
		fmt.Fprintln(os.Stderr, "totobench:", err)
		os.Exit(1)
	}
	// show prints one artifact and a blank line, or fails on its error.
	show := func(a interface{ Print(io.Writer) }, err error) {
		if err != nil {
			fail(err)
		}
		a.Print(out)
		fmt.Fprintln(out)
	}

	// Modeling artifacts (trace + trainer based). They read the §4
	// training inputs, which the deployed model set (core.DefaultModels)
	// does not carry, so one full training serves all five.
	var tm *core.TrainedModels
	if sel("tab1") || sel("fig6") || sel("fig7") || sel("fig8") || sel("fig9") {
		tm = core.TrainDefaultModels(42)
	}

	if sel("fig3a") {
		show(bench.RunFig3a(seeds.Models), nil)
	}
	if sel("fig3b") {
		show(bench.RunFig3b(seeds.Models, 4000), nil)
	}
	if sel("fig6") {
		show(bench.RunFig6(tm))
	}
	if sel("fig7") {
		show(bench.RunFig7(tm))
	}
	if sel("fig8") {
		show(bench.RunFig8(tm, 100, seeds.Models))
	}
	if sel("fig9") {
		for _, e := range slo.Editions() {
			show(bench.RunFig9(tm, e, seeds.Models))
		}
	}
	if sel("tab1") {
		show(bench.RunTab1(tm), nil)
	}

	// Density-study artifacts.
	if sel("fig2") || sel("fig10") || sel("fig11") || sel("fig12a") ||
		sel("fig12b") || sel("fig14") || sel("tab2") || sel("tab3") {
		cfg := bench.DefaultStudyConfig()
		cfg.Days = *days
		cfg.Seeds = seeds
		cfg.Obs = sess.Obs
		cfg.Alerts = alertSpec
		study, err := bench.RunStudy(cfg)
		if err != nil {
			fail(err)
		}
		if alertSpec != nil {
			for i, res := range study.Results {
				if a := res.Alerts; a != nil {
					fmt.Fprintf(out, "alerts density-%.0f%%: %d fired, %d resolved\n",
						cfg.Densities[i]*100, a.Fired, a.Resolved)
				}
			}
			fmt.Fprintln(out)
		}
		if sel("tab2") {
			study.PrintTab2(out)
			fmt.Fprintln(out)
		}
		if sel("tab3") {
			study.PrintTab3(out)
			fmt.Fprintln(out)
		}
		if sel("fig2") {
			study.PrintFig2(out)
			fmt.Fprintln(out)
		}
		if sel("fig10") {
			study.PrintFig10(out, 6)
			fmt.Fprintln(out)
		}
		if sel("fig11") {
			study.PrintFig11(out)
			fmt.Fprintln(out)
		}
		if sel("fig12a") {
			study.PrintFig12a(out)
			fmt.Fprintln(out)
		}
		if sel("fig12b") {
			study.PrintFig12b(out)
			fmt.Fprintln(out)
		}
		if sel("fig14") {
			study.PrintFig14(out)
			fmt.Fprintln(out)
		}
	}

	if want["abl-placement"] {
		show(bench.RunPlacementAblation(seeds))
	}
	if want["abl-persistence"] {
		show(bench.RunPersistenceAblation(seeds))
	}
	if want["abl-refresh"] {
		show(bench.RunRefreshAblation(seeds, []time.Duration{5 * time.Minute, 15 * time.Minute, time.Hour}))
	}

	if sel("fig13") {
		cfg := bench.DefaultRepeatabilityConfig()
		cfg.Runs = *repeats
		cfg.Hours = *repeatHours
		cfg.Seeds = seeds
		show(bench.RunFig13(cfg))
	}

	if jw != nil {
		if sess.Obs != nil {
			jw.Snapshot(sess.Obs.Registry().Snapshot(), core.ScenarioEpoch)
		}
		if err := jw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "totobench:", err)
			os.Exit(1)
		}
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "totobench:", err)
		os.Exit(1)
	}
}
