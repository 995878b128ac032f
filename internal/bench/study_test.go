package bench

import (
	"fmt"
	"testing"
	"time"

	"toto/internal/core"
	"toto/internal/fleet"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/obs/timeseries"
)

// studyFingerprints digests every run of a study, in density order.
func studyFingerprints(t *testing.T, results []*core.Result) []string {
	t.Helper()
	fps := make([]string, len(results))
	for i, r := range results {
		fp, err := fleet.Fingerprint(r)
		if err != nil {
			t.Fatalf("density %.0f%%: %v", r.Density*100, err)
		}
		fps[i] = fp
	}
	return fps
}

// TestStudyMatchesSerialDensityStudy: the study's parallel runs are the
// same runs core.DensityStudy makes one after another with the PLB seed
// varied per density — the whole result of each, not just its rows.
func TestStudyMatchesSerialDensityStudy(t *testing.T) {
	cfg := DefaultStudyConfig()
	cfg.Days = 1
	study, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := core.DefaultModels().Set
	serial, err := core.DensityStudy(func(d float64, seeds core.Seeds) *core.Scenario {
		sc := core.DefaultScenario(fmt.Sprintf("density-%.0f%%", d*100), d, set, seeds)
		sc.Duration = 24 * time.Hour
		return sc
	}, cfg.Densities, cfg.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	got, want := studyFingerprints(t, study.Results), studyFingerprints(t, serial)
	for i, d := range cfg.Densities {
		if got[i] != want[i] {
			t.Errorf("density %.0f%%: study fingerprint %s, serial DensityStudy %s", d*100, got[i], want[i])
		}
	}
}

// TestStudyForksObsAndAlertsPerRun: with an Obs, every density run
// records onto its own span track of the shared tracer; with an alert
// spec, every run gets its own engine, so a rule that holds only above
// 100% density fires in those runs alone. Neither layer moves a result.
func TestStudyForksObsAndAlertsPerRun(t *testing.T) {
	cfg := DefaultStudyConfig()
	cfg.Days = 1
	cfg.Alerts = &alert.Spec{Rules: []alert.ThresholdRule{
		{Name: "dense", Series: timeseries.SeriesDensity, Op: alert.OpGT, Threshold: 1.05},
	}}
	plain, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{})
	cfg.Obs = o
	traced, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tracks := map[string]int64{}
	runs := map[int64]int{}
	for _, ev := range o.Tracer().TraceEvents() {
		if ev.PID != obs.SimPID {
			continue
		}
		if ev.Name == "thread_name" {
			tracks[ev.Args["name"].(string)] = ev.TID
		}
		if ev.Name == "core.run" {
			runs[ev.TID]++
		}
	}
	if len(tracks) != len(cfg.Densities)+1 {
		t.Errorf("trace has tracks %v, want main plus one per density", tracks)
	}
	for _, d := range cfg.Densities {
		name := fmt.Sprintf("density-%.0f%%", d*100)
		tid, ok := tracks[name]
		if !ok {
			t.Errorf("no trace track %q", name)
		} else if runs[tid] != 1 {
			t.Errorf("track %q holds %d core.run spans, want 1", name, runs[tid])
		}
	}

	for i, r := range traced.Results {
		want := 0
		if cfg.Densities[i] > 1.05 {
			want = 1
		}
		if r.Alerts == nil || r.Alerts.Fired != want || len(r.AlertHistory) != want {
			t.Errorf("density %.0f%%: alerts %+v with %d transitions, want %d firing of its own",
				cfg.Densities[i]*100, r.Alerts, len(r.AlertHistory), want)
		}
	}

	got, want := studyFingerprints(t, traced.Results), studyFingerprints(t, plain.Results)
	for i, d := range cfg.Densities {
		if got[i] != want[i] {
			t.Errorf("density %.0f%%: instrumented fingerprint %s, plain %s", d*100, got[i], want[i])
		}
	}
}

// TestRunStudyRejectsEmptyStudy: the fleet would quietly run a zero
// length as 24 h and no densities as {1.0}, so the study refuses both.
func TestRunStudyRejectsEmptyStudy(t *testing.T) {
	noDays := DefaultStudyConfig()
	noDays.Days = 0
	noDensities := DefaultStudyConfig()
	noDensities.Days = 1
	noDensities.Densities = nil
	for name, cfg := range map[string]StudyConfig{"zero days": noDays, "no densities": noDensities} {
		if _, err := RunStudy(cfg); err == nil {
			t.Errorf("%s: RunStudy returned no error", name)
		}
	}
}
