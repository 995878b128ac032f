package bench

import (
	"fmt"
	"io"

	"toto/internal/core"
	"toto/internal/models"
	"toto/internal/slo"
	"toto/internal/stats"
	"toto/internal/trace"
	"toto/internal/trainer"
)

// Fig3a reproduces Figure 3(a): dispersion of the daily per-cluster
// local-store database fraction for two regions over a week. Region 2 has
// a significantly larger local-store proportion than Region 1.
type Fig3a struct {
	Region1 []stats.BoxPlot // one per day
	Region2 []stats.BoxPlot
	Mean1   float64
	Mean2   float64
}

// RunFig3a generates the two regions and summarizes them.
func RunFig3a(seed uint64) Fig3a {
	const clusters, days = 60, 7
	r1 := trace.LocalStoreFractions(seed, clusters, days, 0.10, 0.04)
	r2 := trace.LocalStoreFractions(seed+1, clusters, days, 0.28, 0.07)
	out := Fig3a{}
	var all1, all2 []float64
	for d := 0; d < days; d++ {
		out.Region1 = append(out.Region1, stats.NewBoxPlot(r1[d]))
		out.Region2 = append(out.Region2, stats.NewBoxPlot(r2[d]))
		all1 = append(all1, r1[d]...)
		all2 = append(all2, r2[d]...)
	}
	out.Mean1 = stats.Mean(all1)
	out.Mean2 = stats.Mean(all2)
	return out
}

// Print writes the Figure 3(a) summary.
func (f Fig3a) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 3(a): daily % of DBs that are local-store, per cluster (box plots)")
	fmt.Fprintf(w, "%-6s %-34s %s\n", "day", "Region 1 (Q1/med/Q3)", "Region 2 (Q1/med/Q3)")
	for d := range f.Region1 {
		b1, b2 := f.Region1[d], f.Region2[d]
		fmt.Fprintf(w, "%-6d %6.1f%% /%6.1f%% /%6.1f%%        %6.1f%% /%6.1f%% /%6.1f%%\n",
			d+1, 100*b1.Q1, 100*b1.Median, 100*b1.Q3, 100*b2.Q1, 100*b2.Median, 100*b2.Q3)
	}
	fmt.Fprintf(w, "region averages (the X marks): Region 1 = %.1f%%, Region 2 = %.1f%%\n",
		100*f.Mean1, 100*f.Mean2)
}

// Fig3b reproduces Figure 3(b): the CPU-vs-memory utilization scatter of
// non-idle databases in one region over a 12-hour daytime window,
// summarized as quartiles and the fraction of low-utilization databases.
type Fig3b struct {
	N            int
	CPU          stats.BoxPlot
	Memory       stats.BoxPlot
	LowCPUFrac   float64 // CPU < 20%
	LowBothFrac  float64 // CPU < 20% and memory < 50%
	Points       []trace.UtilizationPoint
	CPUMemCorrel float64
}

// RunFig3b generates the utilization population.
func RunFig3b(seed uint64, n int) Fig3b {
	pts := trace.GenerateUtilization(seed, n)
	cpu := make([]float64, n)
	mem := make([]float64, n)
	lowCPU, lowBoth := 0, 0
	for i, p := range pts {
		cpu[i], mem[i] = p.CPUPercent, p.MemoryPercent
		if p.CPUPercent < 20 {
			lowCPU++
			if p.MemoryPercent < 50 {
				lowBoth++
			}
		}
	}
	correl, _ := stats.Correlation(cpu, mem)
	return Fig3b{
		N:            n,
		CPU:          stats.NewBoxPlot(cpu),
		Memory:       stats.NewBoxPlot(mem),
		LowCPUFrac:   float64(lowCPU) / float64(n),
		LowBothFrac:  float64(lowBoth) / float64(n),
		Points:       pts,
		CPUMemCorrel: correl,
	}
}

// Print writes the Figure 3(b) summary.
func (f Fig3b) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 3(b): average CPU and memory utilization of non-idle DBs (12h daytime)")
	fmt.Fprintf(w, "databases: %d\n", f.N)
	fmt.Fprintf(w, "CPU%%    Q1=%5.1f med=%5.1f Q3=%5.1f mean=%5.1f\n", f.CPU.Q1, f.CPU.Median, f.CPU.Q3, f.CPU.Mean)
	fmt.Fprintf(w, "Mem%%    Q1=%5.1f med=%5.1f Q3=%5.1f mean=%5.1f\n", f.Memory.Q1, f.Memory.Median, f.Memory.Q3, f.Memory.Mean)
	fmt.Fprintf(w, "share with CPU < 20%%: %.0f%%;  CPU < 20%% and Mem < 50%%: %.0f%%;  corr(CPU,Mem)=%.2f\n",
		100*f.LowCPUFrac, 100*f.LowBothFrac, f.CPUMemCorrel)
}

// Fig6 reproduces Figure 6: dispersion box plots of creates per hour of
// day, split by edition and weekday/weekend.
type Fig6 struct {
	// Boxes[edition][weekend][hour]
	Boxes map[slo.Edition][2][24]stats.BoxPlot
}

// RunFig6 aggregates the default region trace's create events by hour.
// It reads the count trainings, so tm must be a run from
// core.TrainDefaultModels.
func RunFig6(tm *core.TrainedModels) (Fig6, error) {
	out := Fig6{Boxes: make(map[slo.Edition][2][24]stats.BoxPlot)}
	for _, e := range slo.Editions() {
		ct := tm.Counts[e][trainer.KindCreate]
		if ct == nil {
			return Fig6{}, errNoTraining("fig6", "count trainings (TrainedModels.Counts)")
		}
		var boxes [2][24]stats.BoxPlot
		for w := 0; w < 2; w++ {
			for h := 0; h < 24; h++ {
				xs := ct.Samples[bucketOf(w == 1, h)]
				if len(xs) > 0 {
					boxes[w][h] = stats.NewBoxPlot(xs)
				}
			}
		}
		out.Boxes[e] = boxes
	}
	return out, nil
}

// Print writes the Figure 6 hourly dispersion tables.
func (f Fig6) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: dispersion of creates per hour of day")
	for _, e := range slo.Editions() {
		boxes := f.Boxes[e]
		for wkd := 0; wkd < 2; wkd++ {
			label := "weekday"
			if wkd == 1 {
				label = "weekend"
			}
			fmt.Fprintf(w, "-- %s, %s (median creates/hour; Q1..Q3) --\n", e, label)
			for h := 0; h < 24; h++ {
				b := boxes[wkd][h]
				fmt.Fprintf(w, "h%02d: %6.1f (%5.1f..%5.1f)", h, b.Median, b.Q1, b.Q3)
				if (h+1)%4 == 0 {
					fmt.Fprintln(w)
				} else {
					fmt.Fprint(w, "  ")
				}
			}
		}
	}
}

// Fig7 reproduces Figure 7: the dispersion of K-S normality p-values
// across the 24 hourly training sets, for each edition × weekday/weekend
// × create/drop, plus the count of cells rejected at alpha=0.05.
type Fig7 struct {
	// Entries keyed by "<edition>/<kind>/<wd|we>".
	Boxes    map[string]stats.BoxPlot
	Rejected map[string]int
}

// RunFig7 computes the p-value dispersions from the default training. It
// reads the count trainings, so tm must be a run from
// core.TrainDefaultModels.
func RunFig7(tm *core.TrainedModels) (Fig7, error) {
	out := Fig7{Boxes: make(map[string]stats.BoxPlot), Rejected: make(map[string]int)}
	for _, e := range slo.Editions() {
		for _, kind := range []trainer.CountKind{trainer.KindCreate, trainer.KindDrop} {
			ct := tm.Counts[e][kind]
			if ct == nil {
				return Fig7{}, errNoTraining("fig7", "count trainings (TrainedModels.Counts)")
			}
			for _, weekend := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/%s", e, kind, wdLabel(weekend))
				ps := ct.PValues(weekend)
				if len(ps) == 0 {
					continue
				}
				out.Boxes[key] = stats.NewBoxPlot(ps)
				rej := 0
				for _, p := range ps {
					if p < 0.05 {
						rej++
					}
				}
				out.Rejected[key] = rej
			}
		}
	}
	return out, nil
}

// Print writes the Figure 7 table.
func (f Fig7) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: K-S test p-values per hourly training set (alpha=0.05)")
	fmt.Fprintf(w, "%-36s %-8s %-8s %-8s %-8s %s\n", "model", "min", "Q1", "median", "Q3", "rejected/24")
	for _, e := range slo.Editions() {
		for _, kind := range []trainer.CountKind{trainer.KindCreate, trainer.KindDrop} {
			for _, weekend := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/%s", e, kind, wdLabel(weekend))
				b, ok := f.Boxes[key]
				if !ok {
					continue
				}
				fmt.Fprintf(w, "%-36s %-8.3f %-8.3f %-8.3f %-8.3f %d\n",
					key, b.LowWhisk, b.Q1, b.Median, b.Q3, f.Rejected[key])
			}
		}
	}
}

// Fig8 reproduces Figure 8: 100 simulations of the trained create/drop
// models against the production region trace — net creates, creates, and
// drops.
type Fig8 struct {
	NetProduction []float64
	NetModelMean  []float64
	Creates       map[slo.Edition]trainer.Validation
	Drops         map[slo.Edition]trainer.Validation
	NetRMSE       float64
}

// RunFig8 validates the trained models with a 100-run ensemble. It reads
// the region trace and the count trainings, so tm must be a run from
// core.TrainDefaultModels.
func RunFig8(tm *core.TrainedModels, runs int, seed uint64) (Fig8, error) {
	out := Fig8{
		Creates: make(map[slo.Edition]trainer.Validation),
		Drops:   make(map[slo.Edition]trainer.Validation),
	}
	if tm.Region == nil {
		return out, errNoTraining("fig8", "region trace (TrainedModels.Region)")
	}
	days := tm.Region.Config.Days
	hours := days * 24
	netModel := make([]float64, hours)
	for _, e := range slo.Editions() {
		create, drop := tm.Counts[e][trainer.KindCreate], tm.Counts[e][trainer.KindDrop]
		if create == nil || drop == nil {
			return out, errNoTraining("fig8", "count trainings (TrainedModels.Counts)")
		}
		_, cMean := trainer.SimulationEnsemble(create.Model, days, runs, 1, seed)
		_, dMean := trainer.SimulationEnsemble(drop.Model, days, runs, 1, seed+7)
		cv, err := trainer.Validate(tm.Region.Creates[e], cMean)
		if err != nil {
			return out, err
		}
		dv, err := trainer.Validate(tm.Region.Drops[e], dMean)
		if err != nil {
			return out, err
		}
		out.Creates[e] = cv
		out.Drops[e] = dv
		for h := 0; h < hours; h++ {
			netModel[h] += cMean[h] - dMean[h]
		}
	}
	net := tm.Region.NetCreates()
	netProd := make([]float64, hours)
	for h, v := range net {
		netProd[h] = float64(v)
	}
	out.NetProduction = netProd
	out.NetModelMean = netModel
	rmse, err := stats.RMSE(netProd, netModel)
	if err != nil {
		return out, err
	}
	out.NetRMSE = rmse
	return out, nil
}

// Print writes the Figure 8 validation summary.
func (f Fig8) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: Create/Drop model validation (100-simulation ensemble vs production)")
	for _, e := range slo.Editions() {
		cv, dv := f.Creates[e], f.Drops[e]
		fmt.Fprintf(w, "%-12s creates: prod total=%6.0f model total=%6.0f RMSE=%5.2f DTW=%7.1f\n",
			e, cv.ProductionTotal, cv.ModelTotal, cv.RMSE, cv.DTW)
		fmt.Fprintf(w, "%-12s drops:   prod total=%6.0f model total=%6.0f RMSE=%5.2f DTW=%7.1f\n",
			e, dv.ProductionTotal, dv.ModelTotal, dv.RMSE, dv.DTW)
	}
	fmt.Fprintf(w, "net creates: RMSE(prod, ensemble mean) = %.2f per hour\n", f.NetRMSE)
}

// Fig9 reproduces Figure 9: the steady-state disk model's cumulative
// usage against the production average over the two-week training window,
// plus the §4.2.2 candidate comparison (hourly normal vs KDE vs binning).
type Fig9 struct {
	Edition        slo.Edition
	SteadyFraction float64
	ProdFinalGB    float64
	ModelFinalGB   float64
	RMSE           float64
	DTW            float64
	Candidates     []trainer.CandidateScore
}

// RunFig9 validates the disk model for one edition. It reads the disk
// training and its raw inputs, so tm must be a run from
// core.TrainDefaultModels.
func RunFig9(tm *core.TrainedModels, e slo.Edition, seed uint64) (Fig9, error) {
	fig := fmt.Sprintf("fig9 %s", e)
	dt := tm.Disk[e]
	if dt == nil {
		return Fig9{}, errNoTraining(fig, "disk training of this edition (TrainedModels.Disk)")
	}
	prod := trainer.AverageUsageCurve(tm.DiskTraces, e, dt.Opts.DeltaPeriod)
	switch {
	case len(prod) == 0:
		return Fig9{}, errNoTraining(fig, "disk traces of this edition (TrainedModels.DiskTraces)")
	case len(dt.SteadyDeltas) == 0:
		return Fig9{}, errNoTraining(fig, "steady deltas (DiskTraining.SteadyDeltas)")
	}
	sim := trainer.SimulateAverageUsage(dt, len(prod), prod[0], seed)
	rmse, err := stats.RMSE(prod, sim)
	if err != nil {
		return Fig9{}, err
	}
	dtw, err := stats.DTWWindow(prod, sim, 36)
	if err != nil {
		return Fig9{}, err
	}
	cands, err := trainer.CompareDiskCandidates(dt, tm.DiskTraces, seed)
	if err != nil {
		return Fig9{}, err
	}
	return Fig9{
		Edition:        e,
		SteadyFraction: dt.SteadyFraction,
		ProdFinalGB:    prod[len(prod)-1],
		ModelFinalGB:   sim[len(sim)-1],
		RMSE:           rmse,
		DTW:            dtw,
		Candidates:     cands,
	}, nil
}

// errNoTraining is a §4 figure's error for a training run that lacks an
// input the figure reads, such as the one core.DefaultModels returns.
func errNoTraining(fig, input string) error {
	return fmt.Errorf("bench: %s: the training run holds no %s; core.DefaultModels carries only the model set, so train with core.TrainDefaultModels", fig, input)
}

// Print writes the Figure 9 summary.
func (f Fig9) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 9: steady-state disk model validation (%s)\n", f.Edition)
	fmt.Fprintf(w, "steady-state share of deltas: %.2f%% (paper: ~99.8%%)\n", 100*f.SteadyFraction)
	fmt.Fprintf(w, "avg DB cumulative usage after 2 weeks: production=%.1fGB model=%.1fGB\n",
		f.ProdFinalGB, f.ModelFinalGB)
	fmt.Fprintf(w, "hourly-normal fit: RMSE=%.2fGB DTW=%.1f\n", f.RMSE, f.DTW)
	fmt.Fprintln(w, "candidate comparison (§4.2.2):")
	for _, c := range f.Candidates {
		fmt.Fprintf(w, "  %-16s DTW=%8.1f RMSE=%6.2f\n", c.Candidate, c.DTW, c.RMSE)
	}
}

// Tab1 reproduces Table 1: the features the create/drop models use. It is
// verified programmatically: the trained model cells must actually differ
// across each feature dimension.
type Tab1 struct {
	Features []string
	// Distinguishes[i] reports whether the trained models differ along
	// feature i (hour, weekend, edition).
	Distinguishes []bool
}

// RunTab1 checks the trained models vary along each Table 1 feature. It
// reads only the deployed create models, so tm may come from either
// core.TrainDefaultModels or core.DefaultModels.
func RunTab1(tm *core.TrainedModels) Tab1 {
	gp := tm.Set.Create[slo.StandardGP]
	bc := tm.Set.Create[slo.PremiumBC]

	hourVaries := false
	for h := 1; h < 24; h++ {
		if gp.Cell(bucketOf(false, h)) != gp.Cell(bucketOf(false, 0)) {
			hourVaries = true
			break
		}
	}
	weekendVaries := false
	for h := 0; h < 24; h++ {
		if gp.Cell(bucketOf(false, h)) != gp.Cell(bucketOf(true, h)) {
			weekendVaries = true
			break
		}
	}
	editionVaries := false
	for h := 0; h < 24; h++ {
		if gp.Cell(bucketOf(false, h)) != bc.Cell(bucketOf(false, h)) {
			editionVaries = true
			break
		}
	}
	return Tab1{
		Features:      []string{"Temporal: weekend vs weekday", "Temporal: hour of day", "Database edition"},
		Distinguishes: []bool{weekendVaries, hourVaries, editionVaries},
	}
}

// Print writes the Table 1 feature list.
func (t Tab1) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 1: features used for create and drop models")
	for i, f := range t.Features {
		fmt.Fprintf(w, "%-34s model distinguishes: %v\n", f, t.Distinguishes[i])
	}
}

func wdLabel(weekend bool) string {
	if weekend {
		return "WE"
	}
	return "WD"
}

func bucketOf(weekend bool, hour int) models.HourBucket {
	return models.HourBucket{Weekend: weekend, Hour: hour}
}
