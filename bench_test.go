// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one Benchmark per artifact, DESIGN.md §4), plus ablation
// benches for the design choices DESIGN.md §5 calls out.
//
// The four 6-day density-study runs behind Figures 2, 10, 11, 12, 14 and
// Tables 2-3 are executed once per process (sharedStudy) and shared
// across those benchmarks, exactly as the paper derives all of §5.3 from
// one experiment campaign; BenchmarkStudyCampaign measures the full
// campaign itself. Custom metrics surface the headline numbers in the
// bench output so `go test -bench . -benchmem` doubles as a results
// report.
package toto_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"toto/internal/bench"
	"toto/internal/core"
	"toto/internal/slo"
)

// BenchmarkStudyCampaign measures one full density-study campaign: four
// 6-day experiments (100/110/120/140%) including bootstrap, churn,
// reporting, PLB scans, and revenue scoring.
func BenchmarkStudyCampaign(b *testing.B) {
	core.DefaultModels() // decode the deployed model set outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultStudyConfig()
		cfg.Seeds.PLB += uint64(i) // vary like repeated campaigns would
		if _, err := bench.RunStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	studyOnce sync.Once
	studyVal  *bench.Study
	studyErr  error
)

// sharedStudy returns the default density study, run once per process.
func sharedStudy(b *testing.B) *bench.Study {
	b.Helper()
	studyOnce.Do(func() {
		studyVal, studyErr = bench.RunStudy(bench.DefaultStudyConfig())
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyVal
}

func BenchmarkFig2DensityStudy(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintFig2(io.Discard)
	}
	rows := study.Fig2()
	b.ReportMetric(rows[len(rows)-1].RelCPUReservation, "relCPU@140%")
	b.ReportMetric(rows[len(rows)-1].RelAdjustedRevenue, "relAdjRev@140%")
}

func BenchmarkTab2InitialPopulation(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintTab2(io.Discard)
	}
	counts := study.Tab2()
	b.ReportMetric(float64(counts[slo.PremiumBC]), "BC-dbs")
	b.ReportMetric(float64(counts[slo.StandardGP]), "GP-dbs")
}

func BenchmarkTab3ExperimentParameters(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintTab3(io.Discard)
	}
	rows := study.Tab3()
	b.ReportMetric(rows[0].FreeRemainingCores, "freeCores@100%")
	b.ReportMetric(rows[0].DiskUsagePercent, "diskUtil%")
}

func BenchmarkFig10CreationRedirects(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintFig10(io.Discard, 6)
	}
	first := make(map[float64]int)
	for _, r := range study.Results {
		first[r.Density] = r.FirstRedirectHour
	}
	b.ReportMetric(float64(first[1.0]), "firstRedirectHour@100%")
	b.ReportMetric(float64(first[1.4]), "firstRedirectHour@140%")
}

func BenchmarkFig11CoresVsDisk(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintFig11(io.Discard)
	}
	points := 0
	for _, r := range study.Results {
		points += len(r.Samples)
	}
	b.ReportMetric(float64(points), "hourly-points")
}

func BenchmarkFig12aRelativeUtilization(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintFig12a(io.Discard)
	}
	rows := study.Fig12a()
	b.ReportMetric(rows[len(rows)-1].RelReservedCores, "relCores@140%")
}

func BenchmarkFig12bFailedOverCores(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintFig12b(io.Discard)
	}
	rows := study.Fig12b()
	b.ReportMetric(rows[len(rows)-1].Total, "movedCores@140%")
	b.ReportMetric(rows[0].Total, "movedCores@100%")
}

func BenchmarkFig14AdjustedRevenue(b *testing.B) {
	study := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		study.PrintFig14(io.Discard)
	}
	rows := study.Fig14()
	b.ReportMetric(rows[2].Adjusted, "adjusted@120%")
	b.ReportMetric(rows[3].Adjusted, "adjusted@140%")
}

func BenchmarkFig3aLocalStoreFraction(b *testing.B) {
	var f bench.Fig3a
	for i := 0; i < b.N; i++ {
		f = bench.RunFig3a(uint64(202 + i))
	}
	b.ReportMetric(100*f.Mean1, "region1-localstore-%")
	b.ReportMetric(100*f.Mean2, "region2-localstore-%")
}

func BenchmarkFig3bUtilizationScatter(b *testing.B) {
	var f bench.Fig3b
	for i := 0; i < b.N; i++ {
		f = bench.RunFig3b(uint64(202+i), 4000)
	}
	b.ReportMetric(f.CPU.Median, "median-CPU-%")
	b.ReportMetric(100*f.LowCPUFrac, "lowCPU-share-%")
}

func BenchmarkFig6CreateDispersion(b *testing.B) {
	tm := core.TrainDefaultModels(42) // Fig. 6 reads the count trainings DefaultModels does not carry
	b.ResetTimer()
	var f bench.Fig6
	for i := 0; i < b.N; i++ {
		var err error
		f, err = bench.RunFig6(tm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.Boxes[slo.StandardGP][0][13].Median, "GP-WD-13h-median")
}

func BenchmarkFig7KSTest(b *testing.B) {
	tm := core.TrainDefaultModels(42) // Fig. 7 reads the count trainings DefaultModels does not carry
	b.ResetTimer()
	var f bench.Fig7
	for i := 0; i < b.N; i++ {
		var err error
		f, err = bench.RunFig7(tm)
		if err != nil {
			b.Fatal(err)
		}
	}
	rejected := 0
	for _, r := range f.Rejected {
		rejected += r
	}
	b.ReportMetric(float64(rejected), "rejected-cells")
}

func BenchmarkFig8CreateDropValidation(b *testing.B) {
	tm := core.TrainDefaultModels(42) // Fig. 8 reads the region trace and count trainings DefaultModels does not carry
	b.ResetTimer()
	var f bench.Fig8
	for i := 0; i < b.N; i++ {
		var err error
		f, err = bench.RunFig8(tm, 100, uint64(202+i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.NetRMSE, "net-creates-RMSE")
}

func BenchmarkFig9SteadyStateDisk(b *testing.B) {
	tm := core.TrainDefaultModels(42) // Fig. 9 reads the disk training DefaultModels does not carry
	b.ResetTimer()
	var f bench.Fig9
	for i := 0; i < b.N; i++ {
		var err error
		f, err = bench.RunFig9(tm, slo.PremiumBC, uint64(202+i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*f.SteadyFraction, "steady-share-%")
	b.ReportMetric(f.RMSE, "cumulative-RMSE-GB")
}

func BenchmarkTab1Features(b *testing.B) {
	tm := core.DefaultModels()
	b.ResetTimer()
	var tab bench.Tab1
	for i := 0; i < b.N; i++ {
		tab = bench.RunTab1(tm)
	}
	ok := 0.0
	for _, d := range tab.Distinguishes {
		if d {
			ok++
		}
	}
	b.ReportMetric(ok, "features-distinguished")
}

func BenchmarkFig13Repeatability(b *testing.B) {
	cfg := bench.DefaultRepeatabilityConfig()
	var f *bench.Fig13
	for i := 0; i < b.N; i++ {
		var err error
		cfg.Seeds.PLB = bench.DefaultSeeds.PLB + uint64(i)
		f, err = bench.RunFig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	ins, tot := f.InsignificantPairs(0.05)
	b.ReportMetric(float64(ins), "insignificant-pairs")
	b.ReportMetric(float64(tot), "total-pairs")
}

func BenchmarkAblationPlacementPolicy(b *testing.B) {
	var a bench.PlacementAblation
	for i := 0; i < b.N; i++ {
		var err error
		seeds := bench.DefaultSeeds
		seeds.PLB += uint64(i)
		a, err = bench.RunPlacementAblation(seeds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.Annealing.DiskImbalance, "sa-disk-imbalance")
	b.ReportMetric(a.Greedy.DiskImbalance, "greedy-disk-imbalance")
}

func BenchmarkAblationDiskPersistence(b *testing.B) {
	var a bench.PersistenceAblation
	for i := 0; i < b.N; i++ {
		var err error
		seeds := bench.DefaultSeeds
		seeds.PLB += uint64(i)
		a, err = bench.RunPersistenceAblation(seeds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.PersistedFinalDiskGB, "persisted-final-GB")
	b.ReportMetric(a.NonPersistedFinalDiskGB, "nonpersisted-final-GB")
}

func BenchmarkAblationModelRefresh(b *testing.B) {
	var a bench.RefreshAblation
	for i := 0; i < b.N; i++ {
		var err error
		seeds := bench.DefaultSeeds
		seeds.PLB += uint64(i)
		a, err = bench.RunRefreshAblation(seeds, []time.Duration{5 * time.Minute, 15 * time.Minute, time.Hour})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Rows[0].NamingReads), "reads@5m")
	b.ReportMetric(float64(a.Rows[2].NamingReads), "reads@1h")
}

// BenchmarkAblationDiskModelChoice re-scores the §4.2.2 candidate
// comparison (hourly normal vs KDE vs custom binning).
func BenchmarkAblationDiskModelChoice(b *testing.B) {
	tm := core.TrainDefaultModels(42) // Fig. 9 reads the disk training DefaultModels does not carry
	f9, err := bench.RunFig9(tm, slo.StandardGP, 202)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		f9, err = bench.RunFig9(tm, slo.StandardGP, uint64(202+i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range f9.Candidates {
		b.ReportMetric(c.RMSE, string(c.Candidate)+"-RMSE")
	}
}
