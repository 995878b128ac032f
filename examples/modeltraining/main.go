// Model training: the paper's §4 pipeline step by step — aggregate
// production telemetry into hourly training sets, test them for
// normality (Figure 7), fit the hourly-normal create/drop models,
// validate with a simulation ensemble (Figure 8), partition Delta Disk
// Usage into steady/initial/rapid subsets (§4.2), and emit the
// declarative model XML that drives a benchmark.
//
//	go run ./examples/modeltraining
package main

import (
	"fmt"
	"log"

	"toto/internal/models"
	"toto/internal/slo"
	"toto/internal/trace"
	"toto/internal/trainer"
)

func main() {
	// --- Step 1: "production" telemetry. The synthetic region generator
	// stands in for Azure telemetry (see DESIGN.md's substitution table):
	// 28 days of hourly create/drop events with diurnal and weekday
	// structure, and 14 days of per-database disk usage at 5-minute
	// granularity.
	region := trace.GenerateRegion(trace.DefaultRegionConfig(7))
	diskTraces := trace.GenerateDiskTraces(trace.DefaultDiskTraceConfig(8))
	fmt.Printf("telemetry: %d hours of region events, %d database disk traces\n\n",
		region.Config.Days*24, len(diskTraces))

	set := models.NewModelSet(7)
	set.RingShare = 1 / float64(region.Config.Rings)

	// --- Step 2: Create DB / Drop DB models (§4.1). One normal
	// distribution per (weekday/weekend, hour, edition) — 96 create and
	// 96 drop models — accepted only because the K-S test does not
	// reject normality for (almost) every hourly training set.
	for _, e := range slo.Editions() {
		ct := trainer.TrainCounts(region.Creates[e], e, trainer.KindCreate)
		dt := trainer.TrainCounts(region.Drops[e], e, trainer.KindDrop)
		fmt.Printf("%-12s creates: %2d of 48 cells reject normality at 0.05; drops: %2d\n",
			e, ct.RejectedCells(0.05), dt.RejectedCells(0.05))
		set.Create[e] = ct.Model
		set.Drop[e] = dt.Model

		// The §4.1.3 candidate comparison for one representative cell.
		cell := models.HourBucket{Weekend: false, Hour: 13}
		fmt.Printf("             weekday 13:00 candidates:")
		for _, fit := range ct.CompareCellDistributions(cell) {
			if fit.Err != nil {
				fmt.Printf("  %s: n/a", fit.Name)
				continue
			}
			fmt.Printf("  %s p=%.2f", fit.Name, fit.KS.P)
		}
		fmt.Println()

		// Figure 8 validation: 100 simulations against production.
		_, mean := trainer.SimulationEnsemble(ct.Model, region.Config.Days, 100, 1, 99)
		v, err := trainer.Validate(region.Creates[e], mean)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("             100-run ensemble: production %.0f vs model %.0f creates (RMSE %.2f/hour)\n\n",
			v.ProductionTotal, v.ModelTotal, v.RMSE)
	}

	// --- Step 3: disk usage models (§4.2). Partition Delta Disk Usage,
	// fit the steady hourly normal, and bin the special growth patterns.
	for _, e := range slo.Editions() {
		dt := trainer.TrainDisk(diskTraces, e, trainer.DefaultDiskTrainingOptions())
		set.Disk[e] = dt.Model
		fmt.Printf("%-12s disk: %.2f%% steady-state deltas; %d high-initial-growth DBs; %d rapid-growth DBs\n",
			e, 100*dt.SteadyFraction, len(dt.InitialDBs), len(dt.RapidDBs))
		if dt.Model.Rapid != nil {
			fmt.Printf("             rapid-growth state machine: steady %v -> increase %v -> between %v -> decrease %v\n",
				dt.Model.Rapid.SteadyDur, dt.Model.Rapid.IncreaseDur,
				dt.Model.Rapid.SteadyBetweenDur, dt.Model.Rapid.DecreaseDur)
		}

		// §4.2.2's reason for choosing the hourly normal: DTW/RMSE
		// comparable to KDE, better than naive binning, and trivially
		// implementable inside RgManager.
		scores, err := trainer.CompareDiskCandidates(dt, diskTraces, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("             candidates:")
		for _, s := range scores {
			fmt.Printf("  %s RMSE=%.2f", s.Candidate, s.RMSE)
		}
		fmt.Println()
	}

	// --- Step 4: serialize. This XML is the file format a benchmark
	// reads its models from; Toto writes the validated set into the
	// Naming Service, and every node's RgManager re-reads it every 15
	// minutes, so rewriting it reconfigures the benchmark live.
	data, err := set.EncodeXML()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel XML: %d bytes; first lines:\n", len(data))
	for i, line := 0, 0; i < len(data) && line < 6; i++ {
		fmt.Print(string(data[i]))
		if data[i] == '\n' {
			line++
		}
	}
	fmt.Println("...")
}
