package trainer

import (
	"math"
	"sort"
	"testing"
	"time"

	"toto/internal/models"
	"toto/internal/slo"
	"toto/internal/stats"
	"toto/internal/trace"
)

func region(t *testing.T, seed uint64) *trace.Region {
	t.Helper()
	return trace.GenerateRegion(trace.DefaultRegionConfig(seed))
}

func TestTrainCountsBuildsAllCells(t *testing.T) {
	r := region(t, 1)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	if len(ct.Samples) != 48 {
		t.Errorf("buckets = %d, want 48", len(ct.Samples))
	}
	// 28 days: 20 weekday and 8 weekend observations per hour.
	wd := ct.Samples[models.HourBucket{Weekend: false, Hour: 12}]
	we := ct.Samples[models.HourBucket{Weekend: true, Hour: 12}]
	if len(wd) != 20 || len(we) != 8 {
		t.Errorf("samples per cell = %d/%d, want 20/8", len(wd), len(we))
	}
	// The trained model distinguishes weekday from weekend.
	pWD := ct.Model.Cell(models.HourBucket{Weekend: false, Hour: 12})
	pWE := ct.Model.Cell(models.HourBucket{Weekend: true, Hour: 12})
	if pWD.Mean <= pWE.Mean {
		t.Errorf("weekday mean %v not above weekend %v", pWD.Mean, pWE.Mean)
	}
}

func TestKSValidationMostlyPasses(t *testing.T) {
	// §4.1.3: all p-values (except a few) exceed 0.05.
	r := region(t, 2)
	for _, e := range slo.Editions() {
		for _, kind := range []CountKind{KindCreate, KindDrop} {
			counts := r.Creates[e]
			if kind == KindDrop {
				counts = r.Drops[e]
			}
			ct := TrainCounts(counts, e, kind)
			if rej := ct.RejectedCells(0.05); rej > 6 {
				t.Errorf("%s %s: %d of 48 cells rejected", e, kind, rej)
			}
		}
	}
}

func TestPValuesPerHalf(t *testing.T) {
	r := region(t, 3)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	if got := len(ct.PValues(false)); got != 24 {
		t.Errorf("weekday p-values = %d", got)
	}
	if got := len(ct.PValues(true)); got != 24 {
		t.Errorf("weekend p-values = %d", got)
	}
}

func TestCompareCellDistributions(t *testing.T) {
	r := region(t, 4)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	fits := ct.CompareCellDistributions(models.HourBucket{Weekend: false, Hour: 13})
	if len(fits) != 4 {
		t.Fatalf("candidates = %d", len(fits))
	}
	if fits := ct.CompareCellDistributions(models.HourBucket{Weekend: false, Hour: 13}); fits == nil {
		t.Fatal("no fits for populated bucket")
	}
}

func TestSimulationEnsembleTracksProduction(t *testing.T) {
	r := region(t, 5)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	runs, mean := SimulationEnsemble(ct.Model, r.Config.Days, 100, 1, 99)
	if len(runs) != 100 || len(mean) != r.Config.Days*24 {
		t.Fatalf("ensemble shape: %d runs x %d hours", len(runs), len(mean))
	}
	v, err := Validate(r.Creates[slo.StandardGP], mean)
	if err != nil {
		t.Fatal(err)
	}
	// Totals within a few percent (Figure 8: the ensemble mean "nearly
	// overlapped with the production curve").
	if math.Abs(v.ModelTotal-v.ProductionTotal)/v.ProductionTotal > 0.05 {
		t.Errorf("totals: model %v vs production %v", v.ModelTotal, v.ProductionTotal)
	}
	// RMSE of the mean should be well below the typical hourly level.
	if v.RMSE > 15 {
		t.Errorf("ensemble RMSE = %v", v.RMSE)
	}
}

func TestValidateLengthMismatch(t *testing.T) {
	if _, err := Validate([]trace.HourCount{{}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func diskTraces(t *testing.T, seed uint64) []trace.DBTrace {
	t.Helper()
	return trace.GenerateDiskTraces(trace.DefaultDiskTraceConfig(seed))
}

func TestTrainDiskRecoversLabels(t *testing.T) {
	traces := diskTraces(t, 10)
	for _, e := range slo.Editions() {
		dt := TrainDisk(traces, e, DefaultDiskTrainingOptions())

		// Ground truth from the generator.
		truthInitial := map[string]bool{}
		truthRapid := map[string]bool{}
		total := 0
		for _, tr := range traces {
			if tr.Edition != e {
				continue
			}
			total++
			switch tr.Class {
			case trace.ClassInitialGrowth:
				truthInitial[tr.DB] = true
			case trace.ClassRapidGrowth:
				truthRapid[tr.DB] = true
			}
		}
		if dt.TotalDBs != total {
			t.Errorf("%s: trained over %d, want %d", e, dt.TotalDBs, total)
		}

		// Initial-growth recall/precision: the paper's 12GB-in-5-minutes
		// rule is exactly how the traces were generated, so labels should
		// match almost perfectly.
		match := 0
		for _, db := range dt.InitialDBs {
			if truthInitial[db] {
				match++
			}
		}
		if len(truthInitial) > 0 && (match < len(truthInitial)*8/10 || match < len(dt.InitialDBs)*8/10) {
			t.Errorf("%s initial labels: %d found, %d true, %d match", e, len(dt.InitialDBs), len(truthInitial), match)
		}

		// Rapid-growth detection.
		match = 0
		for _, db := range dt.RapidDBs {
			if truthRapid[db] {
				match++
			}
		}
		if len(truthRapid) > 0 && match < len(truthRapid)*7/10 {
			t.Errorf("%s rapid labels: %d found of %d true (%d match)", e, len(dt.RapidDBs), len(truthRapid), match)
		}

		// Steady fraction ~99.8% (§4.2.1).
		if dt.SteadyFraction < 0.985 || dt.SteadyFraction > 0.9999 {
			t.Errorf("%s steady fraction = %v", e, dt.SteadyFraction)
		}
	}
}

func TestTrainedDiskModelShape(t *testing.T) {
	traces := diskTraces(t, 11)
	dt := TrainDisk(traces, slo.PremiumBC, DefaultDiskTrainingOptions())
	m := dt.Model
	if !m.Persisted {
		t.Error("BC disk model must be persisted")
	}
	if m.ReportInterval != 20*time.Minute {
		t.Errorf("interval = %v", m.ReportInterval)
	}
	if m.Initial == nil || len(m.Initial.Bins) == 0 {
		t.Fatal("no initial growth model")
	}
	if m.Initial.Probability <= 0 || m.Initial.Probability > 0.2 {
		t.Errorf("initial probability = %v", m.Initial.Probability)
	}
	// Bins are sorted and contiguous (equi-probable partition).
	for i := 1; i < len(m.Initial.Bins); i++ {
		if m.Initial.Bins[i].LoGB != m.Initial.Bins[i-1].HiGB {
			t.Errorf("bins not contiguous: %+v", m.Initial.Bins)
		}
	}
	if m.Rapid == nil || len(m.Rapid.IncreaseBins) == 0 {
		t.Fatal("no rapid growth model")
	}
	// The generator's cycle is daily: detected cycle should be ~24h.
	cycle := m.Rapid.CycleDuration()
	if cycle < 20*time.Hour || cycle > 28*time.Hour {
		t.Errorf("cycle = %v, want ~24h", cycle)
	}
	// Spike duration ~1h as generated.
	if m.Rapid.IncreaseDur < 40*time.Minute || m.Rapid.IncreaseDur > 2*time.Hour {
		t.Errorf("increase duration = %v", m.Rapid.IncreaseDur)
	}
	gp := TrainDisk(traces, slo.StandardGP, DefaultDiskTrainingOptions())
	if gp.Model.Persisted {
		t.Error("GP disk model must be non-persisted")
	}
}

// TestTrainDiskBucketsOffEpoch trains on traces created away from
// trace.Epoch (Saturday 23:40 in UTC and in a half-hour zone, a
// Wednesday afternoon) and of mixed lengths, and checks the fitted
// steady cells against a reference that buckets each delta with
// models.BucketOf and fits each cell with stats.FitNormal.
func TestTrainDiskBucketsOffEpoch(t *testing.T) {
	cfg := trace.DefaultDiskTraceConfig(12)
	cfg.Databases = map[slo.Edition]int{slo.StandardGP: 24, slo.PremiumBC: 6}
	cfg.Days = 9
	cfg.InitialGrowthFrac = 0.25
	traces := trace.GenerateDiskTraces(cfg)
	saturday := time.Date(2020, time.June, 6, 23, 40, 0, 0, time.UTC)
	created := []time.Time{
		saturday,
		saturday.In(time.FixedZone("UTC+5:30", 5*3600+1800)),
		time.Date(2020, time.June, 10, 13, 7, 0, 0, time.UTC),
		trace.Epoch,
	}
	for i := range traces {
		tr := &traces[i]
		tr.Created = created[i%len(created)]
		// Traces sharing a creation time differ in length, so its cell
		// table is both reused as a prefix and extended.
		tr.UsageGB = tr.UsageGB[:len(tr.UsageGB)-(i%5)*37]
	}

	opts := DefaultDiskTrainingOptions()
	for _, e := range slo.Editions() {
		got := TrainDisk(traces, e, opts)

		byBucket := map[models.HourBucket][]float64{}
		var pooled []float64
		for _, tr := range traces {
			if tr.Edition != e {
				continue
			}
			skip := 0
			if tr.UsageGB[1]-tr.UsageGB[0] > opts.InitialGrowthLabelGB { // 5-minute samples
				skip = int(opts.InitialWindow / opts.DeltaPeriod)
			}
			for i, d := range tr.AppendDeltas(nil, opts.DeltaPeriod) {
				if i < skip || math.Abs(d) > opts.SpikeThresholdGB {
					continue
				}
				b := models.BucketOf(tr.Created.Add(time.Duration(i+1) * opts.DeltaPeriod))
				byBucket[b] = append(byBucket[b], d)
				pooled = append(pooled, d)
			}
		}
		if len(got.InitialDBs) == 0 {
			t.Fatalf("%s: no high-initial-growth database, so the initial-window skip goes untested", e)
		}
		if len(byBucket) != 48 {
			t.Fatalf("%s: reference fills %d of 48 cells", e, len(byBucket))
		}
		if len(got.SteadyDeltas) != len(pooled) {
			t.Fatalf("%s: %d steady deltas, reference has %d", e, len(got.SteadyDeltas), len(pooled))
		}
		for i := range pooled {
			if math.Float64bits(got.SteadyDeltas[i]) != math.Float64bits(pooled[i]) {
				t.Fatalf("%s: steady delta %d = %v, reference %v", e, i, got.SteadyDeltas[i], pooled[i])
			}
		}
		for b, xs := range byBucket {
			want, err := stats.FitNormal(xs)
			if err != nil {
				t.Fatal(err)
			}
			cell := got.Model.Steady.Cell(b)
			if math.Float64bits(cell.Mean) != math.Float64bits(want.Mean) ||
				math.Float64bits(cell.Sigma) != math.Float64bits(want.Sigma) {
				t.Errorf("%s %+v: fitted %+v, reference %+v", e, b, cell, want)
			}
		}
	}
}

func TestDetectCycles(t *testing.T) {
	period := 20 * time.Minute
	// Two clean cycles: spike of 3 deltas, gap of 2, drop of 3.
	deltas := []float64{
		0, 0, 10, 10, 10, 0, 0, -10, -10, -10, 0,
		0, 20, 20, 0, -20, -20, 0,
	}
	mags, inc, between, dec := detectCycles(deltas, period, 5)
	if len(mags) != 2 {
		t.Fatalf("cycles = %d (%v)", len(mags), mags)
	}
	if mags[0] != 30 || mags[1] != 40 {
		t.Errorf("magnitudes = %v", mags)
	}
	if inc[0] != 3*period || between[0] != 2*period || dec[0] != 3*period {
		t.Errorf("durations = %v %v %v", inc[0], between[0], dec[0])
	}
	// A spike with no drop is not a cycle.
	mags, _, _, _ = detectCycles([]float64{0, 10, 10, 0, 0, 0}, period, 5)
	if len(mags) != 0 {
		t.Errorf("spike-only series produced cycles: %v", mags)
	}
}

func TestCompareDiskCandidatesOrdering(t *testing.T) {
	traces := diskTraces(t, 12)
	dt := TrainDisk(traces, slo.StandardGP, DefaultDiskTrainingOptions())
	scores, err := CompareDiskCandidates(dt, traces, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("candidates = %d", len(scores))
	}
	byName := map[DiskCandidate]CandidateScore{}
	for _, s := range scores {
		byName[s.Candidate] = s
	}
	// §4.2.2: the hourly normal has comparable-or-smaller DTW and RMSE
	// than the custom binning model; allow a small tolerance for noise.
	hn, bin := byName[CandidateHourlyNormal], byName[CandidateBinning]
	if hn.RMSE > bin.RMSE*1.2 {
		t.Errorf("hourly normal RMSE %v not comparable-or-better than binning %v", hn.RMSE, bin.RMSE)
	}
}

func TestSimulateAverageUsageTracksProduction(t *testing.T) {
	traces := diskTraces(t, 13)
	dt := TrainDisk(traces, slo.PremiumBC, DefaultDiskTrainingOptions())
	prod := AverageUsageCurve(traces, slo.PremiumBC, dt.Opts.DeltaPeriod)
	sim := SimulateAverageUsage(dt, len(prod), prod[0], 7)
	if len(sim) != len(prod) {
		t.Fatalf("lengths differ")
	}
	// Cumulative final levels within ~10% (Figure 9's goal: "the
	// resulting cumulative disk usage from our models to be as close to
	// production as possible over the two week training period").
	pf, sf := prod[len(prod)-1], sim[len(sim)-1]
	if math.Abs(pf-sf)/pf > 0.10 {
		t.Errorf("final usage: production %v vs model %v", pf, sf)
	}
}

func TestAverageUsageCurveEmpty(t *testing.T) {
	if got := AverageUsageCurve(nil, slo.StandardGP, 20*time.Minute); got != nil {
		t.Errorf("empty traces gave %v", got)
	}
}

func TestEquiProbableBinsSortedInModel(t *testing.T) {
	traces := diskTraces(t, 14)
	dt := TrainDisk(traces, slo.PremiumBC, DefaultDiskTrainingOptions())
	if dt.Model.Initial == nil {
		t.Skip("no initial model in this sample")
	}
	bins := dt.Model.Initial.Bins
	sorted := sort.SliceIsSorted(bins, func(i, j int) bool { return bins[i].LoGB < bins[j].LoGB })
	if !sorted {
		t.Errorf("bins not sorted: %+v", bins)
	}
}
