// Package bench implements the paper's full evaluation harness: one
// function per table and figure of the SIGMOD 2021 paper, each
// regenerating the artifact's rows/series from a fresh (seeded) run of
// the reproduction. cmd/totobench prints them; bench_test.go wraps each
// in a testing.B benchmark; EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"fmt"
	"io"
	"time"

	"toto/internal/asciichart"
	"toto/internal/core"
	"toto/internal/fleet"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/slo"
	"toto/internal/stats"
)

// Densities are the paper's four density levels (§5.2).
var Densities = []float64{1.0, 1.1, 1.2, 1.4}

// DefaultSeeds are the fixed experiment seeds (§5.2: all random objects
// are explicitly seeded).
var DefaultSeeds = core.Seeds{Population: 101, Models: 202, PLB: 303, Bootstrap: 404}

// StudyConfig parameterizes the density study runs.
type StudyConfig struct {
	// Seeds are the study's base seeds; the zero value takes the fleet's
	// defaults.
	Seeds core.Seeds
	// Days is the measured window length (6 in the paper).
	Days int
	// Densities are the levels to run.
	Densities []float64
	// Obs, when set, instruments every run of the study. Each density
	// run gets its own span track (forked from this handle) while all
	// runs aggregate into the same metrics registry and trace buffer.
	Obs *obs.Obs
	// Alerts, when set, attaches the watch layer to every density run;
	// each run gets its own engine so alert state never crosses runs.
	Alerts *alert.Spec
}

// DefaultStudyConfig returns the paper's §5.2 setup.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{Seeds: DefaultSeeds, Days: 6, Densities: Densities}
}

// Study is a completed density study: one Result per density, in the
// order of Config.Densities.
type Study struct {
	Config  StudyConfig
	Results []*core.Result
}

// RunStudy executes the density study. Identical scenarios differ only in
// density; the PLB seed varies per run (core.Seeds.DensityRun), mirroring
// the paper's §5.2 caveat that the PLB's annealing seed cannot be pinned
// across runs.
//
// The experiments are independent simulations (the paper ran them
// back-to-back only because it had one physical cluster), so they run as
// a one-repeat fleet on the fleet's worker pool; results keep the
// configured density order and are identical to a sequential run.
func RunStudy(cfg StudyConfig) (*Study, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("bench: study has non-positive duration (%d days)", cfg.Days)
	}
	if len(cfg.Densities) == 0 {
		return nil, fmt.Errorf("bench: study has no densities")
	}
	fr, err := fleet.Run(fleet.Config{
		Densities: cfg.Densities,
		Duration:  time.Duration(cfg.Days) * 24 * time.Hour,
		Seeds:     cfg.Seeds,
		Models:    core.DefaultModels().Set,
		Configure: func(spec fleet.RunSpec, sc *core.Scenario) {
			sc.Name = fmt.Sprintf("density-%.0f%%", spec.Density*100)
			sc.Seeds = spec.Seeds.DensityRun(spec.Index)
			// Each run records onto its own span track; the registry and
			// trace buffer are shared.
			sc.Obs = cfg.Obs.Fork(sc.Name)
			sc.Alerts = cfg.Alerts
		},
	})
	if err != nil {
		return nil, err
	}
	results := make([]*core.Result, len(fr.Runs))
	for i, rr := range fr.Runs {
		if rr.Err != nil {
			return nil, fmt.Errorf("bench: density %.0f%%: %w", rr.Spec.Density*100, rr.Err)
		}
		results[i] = rr.Result
	}
	return &Study{Config: cfg, Results: results}, nil
}

// baseline returns the study's 100% density run.
func (s *Study) baseline() *core.Result {
	for i, d := range s.Config.Densities {
		if d == 1.0 {
			return s.Results[i]
		}
	}
	return s.Results[0]
}

// Fig2Row is one circle of Figure 2: a density level's final CPU
// reservation, failover-moved capacity, and adjusted revenue — all
// relative to the 100% density run.
type Fig2Row struct {
	Density            float64
	RelCPUReservation  float64
	RelCapacityMoved   float64
	RelAdjustedRevenue float64
}

// Fig2 computes the density/QoS/revenue trade-off rows of Figure 2.
// Relative capacity moved is reported against max(base, 1) cores so a
// zero-failover baseline still yields finite ratios.
func (s *Study) Fig2() []Fig2Row {
	base := s.baseline()
	baseMoved := base.TotalFailedOverCores()
	if baseMoved < 1 {
		baseMoved = 1
	}
	var rows []Fig2Row
	for _, r := range s.Results {
		rows = append(rows, Fig2Row{
			Density:            r.Density,
			RelCPUReservation:  r.FinalReservedCores / base.FinalReservedCores,
			RelCapacityMoved:   r.TotalFailedOverCores() / baseMoved,
			RelAdjustedRevenue: r.Revenue.Adjusted / base.Revenue.Adjusted,
		})
	}
	return rows
}

// PrintFig2 writes the Figure 2 rows as a table.
func (s *Study) PrintFig2(w io.Writer) {
	fmt.Fprintln(w, "Figure 2: density vs failover capacity moved vs adjusted revenue (relative to 100%)")
	fmt.Fprintf(w, "%-9s %-22s %-24s %-22s\n", "density", "rel CPU reservation", "rel capacity moved", "rel adjusted revenue")
	for _, row := range s.Fig2() {
		fmt.Fprintf(w, "%-9.0f %-22.3f %-24.3f %-22.3f\n",
			row.Density*100, row.RelCPUReservation, row.RelCapacityMoved, row.RelAdjustedRevenue)
	}
}

// Tab2 returns Table 2: the initial population per edition.
func (s *Study) Tab2() map[slo.Edition]int { return s.baseline().InitialCounts }

// PrintTab2 writes Table 2.
func (s *Study) PrintTab2(w io.Writer) {
	counts := s.Tab2()
	total := 0
	for _, c := range counts {
		total += c
	}
	fmt.Fprintln(w, "Table 2: initial population")
	fmt.Fprintf(w, "%-22s %-24s %s\n", "Premium/BC databases", "Standard/GP databases", "Total")
	fmt.Fprintf(w, "%-22d %-24d %d\n", counts[slo.PremiumBC], counts[slo.StandardGP], total)
}

// Tab3Row is one row of Table 3: a density level's bootstrap state.
type Tab3Row struct {
	Density            float64
	FreeRemainingCores float64
	DiskUsagePercent   float64
}

// Tab3 returns the experiment parameters table.
func (s *Study) Tab3() []Tab3Row {
	var rows []Tab3Row
	for _, r := range s.Results {
		rows = append(rows, Tab3Row{
			Density:            r.Density,
			FreeRemainingCores: r.BootstrapFreeCores,
			DiskUsagePercent:   r.BootstrapDiskUtil * 100,
		})
	}
	return rows
}

// PrintTab3 writes Table 3.
func (s *Study) PrintTab3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: experiment parameters")
	fmt.Fprintf(w, "%-16s %-28s %s\n", "Density Level %", "Free Remaining Logical Cores", "Disk Usage %")
	for _, row := range s.Tab3() {
		fmt.Fprintf(w, "%-16.0f %-28.0f %.0f\n", row.Density*100, row.FreeRemainingCores, row.DiskUsagePercent)
	}
}

// PrintFig10 writes the redirect series, sampled every sampleEvery hours.
// A sampleEvery below 1 is clamped to 1 (print every hour); without the
// clamp a zero or negative stride would loop forever on the first row.
func (s *Study) PrintFig10(w io.Writer, sampleEvery int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	fmt.Fprintln(w, "Figure 10: cumulative creation redirects per hour")
	fmt.Fprintf(w, "%-6s", "hour")
	for _, r := range s.Results {
		fmt.Fprintf(w, " %8.0f%%", r.Density*100)
	}
	fmt.Fprintln(w)
	hours := len(s.Results[0].RedirectsByHour)
	for h := 0; h < hours; h += sampleEvery {
		fmt.Fprintf(w, "%-6d", h)
		for _, r := range s.Results {
			fmt.Fprintf(w, " %9d", r.RedirectsByHour[h])
		}
		fmt.Fprintln(w)
	}
	for _, r := range s.Results {
		series := make([]float64, len(r.RedirectsByHour))
		for i, v := range r.RedirectsByHour {
			series[i] = float64(v)
		}
		fmt.Fprintf(w, "%4.0f%%  %s  first redirect: hour %d\n",
			r.Density*100, asciichart.SparklineN(series, 48), r.FirstRedirectHour)
	}
}

// PrintFig11 writes a per-density summary of the cores-vs-disk trajectory
// (first, median, final points) rather than all ~144 points per series.
func (s *Study) PrintFig11(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: reserved cores vs disk usage (hourly trajectory summary)")
	fmt.Fprintf(w, "%-9s %-12s %-14s %-12s %-14s %-12s %-14s\n",
		"density", "cores(h0)", "disk(h0)GB", "cores(mid)", "disk(mid)GB", "cores(end)", "disk(end)GB")
	for _, r := range s.Results {
		n := len(r.Samples)
		if n == 0 {
			continue
		}
		first, mid, last := r.Samples[0], r.Samples[n/2], r.Samples[n-1]
		fmt.Fprintf(w, "%-9.0f %-12.0f %-14.0f %-12.0f %-14.0f %-12.0f %-14.0f\n",
			r.Density*100, first.ReservedCores, first.DiskUsageGB,
			mid.ReservedCores, mid.DiskUsageGB, last.ReservedCores, last.DiskUsageGB)
	}
	// The scatter the paper plots: one point per hour per density level,
	// glyph keyed to the density.
	var pts []asciichart.Point
	glyphs := map[float64]rune{1.0: '1', 1.1: '2', 1.2: '3', 1.4: '4'}
	// Draw the highest density first so lower densities' plateaus stay
	// visible where trajectories share cells.
	for i := len(s.Results) - 1; i >= 0; i-- {
		r := s.Results[i]
		g, ok := glyphs[r.Density]
		if !ok {
			g = '*'
		}
		for _, sm := range r.Samples {
			pts = append(pts, asciichart.Point{X: sm.ReservedCores, Y: sm.DiskUsageGB, Glyph: g})
		}
	}
	fmt.Fprintln(w, "scatter (1=100% 2=110% 3=120% 4=140%):")
	fmt.Fprint(w, asciichart.Scatter(pts, 64, 12))
}

// Fig12aRow is one density's end-of-run utilization relative to 100%.
type Fig12aRow struct {
	Density          float64
	RelDiskUtil      float64
	RelReservedCores float64
}

// Fig12a returns the relative utilization rows.
func (s *Study) Fig12a() []Fig12aRow {
	base := s.baseline()
	var rows []Fig12aRow
	for _, r := range s.Results {
		rows = append(rows, Fig12aRow{
			Density:          r.Density,
			RelDiskUtil:      r.FinalDiskUtil / base.FinalDiskUtil,
			RelReservedCores: r.FinalReservedCores / base.FinalReservedCores,
		})
	}
	return rows
}

// PrintFig12a writes the relative utilization table.
func (s *Study) PrintFig12a(w io.Writer) {
	fmt.Fprintln(w, "Figure 12(a): relative disk and reserved-core utilization at end of run (vs 100%)")
	fmt.Fprintf(w, "%-9s %-16s %-20s %s\n", "density", "rel disk util", "rel reserved cores", "abs disk util")
	for i, row := range s.Fig12a() {
		fmt.Fprintf(w, "%-9.0f %-16.3f %-20.3f %.1f%%\n", row.Density*100, row.RelDiskUtil, row.RelReservedCores, 100*s.Results[i].FinalDiskUtil)
	}
}

// Fig12bRow is one density's failed-over cores split by edition, with
// the movement count broken down into planned moves (balancing,
// maintenance drains) and unplanned failovers (violations, crashes) —
// only the latter carry SLA exposure.
type Fig12bRow struct {
	Density   float64
	BCCores   float64
	GPCores   float64
	Total     float64
	Failovers int
	Planned   int
	Unplanned int
}

// Fig12b returns the failed-over core accounting.
func (s *Study) Fig12b() []Fig12bRow {
	var rows []Fig12bRow
	for _, r := range s.Results {
		row := Fig12bRow{
			Density:   r.Density,
			BCCores:   r.FailedOverCores[slo.PremiumBC],
			GPCores:   r.FailedOverCores[slo.StandardGP],
			Failovers: len(r.Failovers),
			Planned:   r.PlannedMoves,
			Unplanned: r.UnplannedFailovers,
		}
		row.Total = row.BCCores + row.GPCores
		rows = append(rows, row)
	}
	return rows
}

// PrintFig12b writes the failed-over cores table.
func (s *Study) PrintFig12b(w io.Writer) {
	fmt.Fprintln(w, "Figure 12(b): total failed-over CPU cores over the run")
	fmt.Fprintf(w, "%-9s %-14s %-14s %-12s %-11s %-9s %-11s %-12s %-12s %s\n",
		"density", "BC cores", "GP cores", "total", "failovers", "planned", "unplanned", "BC creates", "GP creates", "peak node disk")
	for i, row := range s.Fig12b() {
		r := s.Results[i]
		fmt.Fprintf(w, "%-9.0f %-14.0f %-14.0f %-12.0f %-11d %-9d %-11d %-12d %-12d %.1f%%\n",
			row.Density*100, row.BCCores, row.GPCores, row.Total, row.Failovers,
			row.Planned, row.Unplanned,
			r.CreatesByEdition[slo.PremiumBC], r.CreatesByEdition[slo.StandardGP], 100*r.PeakNodeDiskUtil)
	}
}

// Fig14Row is one density's modeled adjusted revenue decomposition.
type Fig14Row struct {
	Density  float64
	Gross    float64
	Penalty  float64
	Adjusted float64
	Breached int
}

// Fig14 returns the adjusted revenue rows.
func (s *Study) Fig14() []Fig14Row {
	var rows []Fig14Row
	for _, r := range s.Results {
		rows = append(rows, Fig14Row{
			Density:  r.Density,
			Gross:    r.Revenue.Gross,
			Penalty:  r.Revenue.Penalty,
			Adjusted: r.Revenue.Adjusted,
			Breached: r.Revenue.Breached,
		})
	}
	return rows
}

// PrintFig14 writes the adjusted revenue table.
func (s *Study) PrintFig14(w io.Writer) {
	fmt.Fprintln(w, "Figure 14: total modeled adjusted revenue over the run")
	fmt.Fprintf(w, "%-9s %-14s %-14s %-14s %s\n", "density", "gross $", "penalty $", "adjusted $", "breached DBs")
	for _, row := range s.Fig14() {
		fmt.Fprintf(w, "%-9.0f %-14.0f %-14.0f %-14.0f %d\n",
			row.Density*100, row.Gross, row.Penalty, row.Adjusted, row.Breached)
	}
}

// NodeDispersion summarizes node-level samples for one run as box plots —
// Figure 13's per-experiment dispersion of disk usage and reserved cores.
type NodeDispersion struct {
	Disk  stats.BoxPlot
	Cores stats.BoxPlot
}

// NodeDispersionOf computes the node-sample dispersion of one result.
func NodeDispersionOf(r *core.Result) NodeDispersion {
	var disk, cores []float64
	for _, ns := range r.NodeSamples {
		disk = append(disk, ns.DiskUsageGB)
		cores = append(cores, ns.ReservedCores)
	}
	return NodeDispersion{Disk: stats.NewBoxPlot(disk), Cores: stats.NewBoxPlot(cores)}
}
