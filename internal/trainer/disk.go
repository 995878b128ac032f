package trainer

import (
	"math"
	"slices"
	"time"

	"toto/internal/models"
	"toto/internal/rng"
	"toto/internal/slo"
	"toto/internal/stats"
	"toto/internal/trace"
)

// DiskTrainingOptions tunes the Delta Disk Usage partitioning (§4.2).
type DiskTrainingOptions struct {
	// DeltaPeriod is the discretization of Delta Disk Usage (the paper
	// uses 20 minutes).
	DeltaPeriod time.Duration
	// InitialGrowthLabelGB labels a database "High Initial Growth" when
	// it grew more than this within the first five minutes of its life
	// (the paper uses 12 GB).
	InitialGrowthLabelGB float64
	// InitialWindow is the assumed high-growth window (the paper fixes
	// 30 minutes).
	InitialWindow time.Duration
	// SpikeThresholdGB classifies a single delta as a rapid event rather
	// than steady state.
	SpikeThresholdGB float64
	// RapidMinCycles is the minimum number of spike/drop cycles a
	// database must show to be labeled predictable rapid growth.
	RapidMinCycles int
	// Bins is the number of equi-probable magnitude buckets (the paper
	// uses five).
	Bins int
}

// DefaultDiskTrainingOptions returns the paper's settings.
func DefaultDiskTrainingOptions() DiskTrainingOptions {
	return DiskTrainingOptions{
		DeltaPeriod:          20 * time.Minute,
		InitialGrowthLabelGB: 12,
		InitialWindow:        30 * time.Minute,
		SpikeThresholdGB:     5,
		RapidMinCycles:       3,
		Bins:                 5,
	}
}

// DiskTraining is the outcome of training one edition's disk usage model.
type DiskTraining struct {
	Edition slo.Edition
	Opts    DiskTrainingOptions

	// SteadyFraction is the share of all deltas classified steady-state
	// (the paper observes ~99.8%).
	SteadyFraction float64
	// SteadyDeltas is the pooled steady-state training set (per
	// DeltaPeriod, all hours).
	SteadyDeltas []float64
	// Model is the deployable composed disk model.
	Model *models.DiskUsageModel
	// InitialDBs and RapidDBs are the databases labeled into each
	// special class.
	InitialDBs []string
	RapidDBs   []string
	// TotalDBs is the number of databases trained over.
	TotalDBs int
}

// TrainDisk builds the disk usage model for one edition from per-database
// traces, following §4.2: compute Delta Disk Usage, label the
// high-initial-growth subset from the first five minutes, detect the
// predictable-rapid-growth subset from repeating spike/drop cycles, fit
// an hourly normal to the steady remainder, and bin the special-growth
// magnitudes into equi-probable uniform buckets.
//
// The pass over the traces records each steady delta's (weekend, hour)
// cell beside it and counts the cells; the steady deltas are then
// scattered, in trace order, into exactly sized windows of one array.
func TrainDisk(traces []trace.DBTrace, edition slo.Edition, opts DiskTrainingOptions) *DiskTraining {
	dt := &DiskTraining{Edition: edition, Opts: opts}

	var initialTotals []float64
	var spikeMagnitudes []float64
	var increaseDurs, betweenDurs, decreaseDurs []time.Duration

	tables := make(cellTables)
	var deltas []float64
	var steadyCells []hourCell // steadyCells[j] is SteadyDeltas[j]'s cell
	var perCell [2][24]int

	totalDeltas := 0

	for _, tr := range traces {
		if tr.Edition != edition {
			continue
		}
		dt.TotalDBs++

		// --- Initial-creation labeling: growth in the first 5 minutes.
		fiveMinGrowth := growthWithin(tr, 5*time.Minute)
		isInitial := fiveMinGrowth > opts.InitialGrowthLabelGB
		if isInitial {
			dt.InitialDBs = append(dt.InitialDBs, tr.DB)
			initialTotals = append(initialTotals, growthWithin(tr, opts.InitialWindow))
		}

		// --- Delta Disk Usage at the paper's discretization.
		deltas = tr.AppendDeltas(deltas[:0], opts.DeltaPeriod)

		// --- Rapid-growth labeling: repeated spike/drop cycles.
		cycles, inc, between, dec := detectCycles(deltas, opts.DeltaPeriod, opts.SpikeThresholdGB)
		isRapid := !isInitial && len(cycles) >= opts.RapidMinCycles
		if isRapid {
			dt.RapidDBs = append(dt.RapidDBs, tr.DB)
			spikeMagnitudes = append(spikeMagnitudes, cycles...)
			increaseDurs = append(increaseDurs, inc...)
			betweenDurs = append(betweenDurs, between...)
			decreaseDurs = append(decreaseDurs, dec...)
		}

		// --- Steady training set: deltas below the spike threshold,
		// excluding the initial window of high-initial-growth databases.
		skipInitial := 0
		if isInitial {
			skipInitial = int(opts.InitialWindow / opts.DeltaPeriod)
		}
		cells := tables.cells(tr.Created, opts.DeltaPeriod, len(deltas))
		totalDeltas += len(deltas)
		for i, d := range deltas {
			if i < skipInitial || math.Abs(d) > opts.SpikeThresholdGB {
				continue
			}
			c := cells[i]
			perCell[c.w][c.h]++
			steadyCells = append(steadyCells, c)
			dt.SteadyDeltas = append(dt.SteadyDeltas, d)
		}
	}

	if totalDeltas > 0 {
		dt.SteadyFraction = float64(len(dt.SteadyDeltas)) / float64(totalDeltas)
	}

	// --- Group the steady deltas: each cell is an exactly sized window
	// of one backing array, filled in trace order.
	grouped := make([]float64, len(dt.SteadyDeltas))
	var byCell [2][24][]float64
	off := 0
	for w := range byCell {
		for h := range byCell[w] {
			end := off + perCell[w][h]
			byCell[w][h] = grouped[off:off:end]
			off = end
		}
	}
	for j, d := range dt.SteadyDeltas {
		c := steadyCells[j]
		byCell[c.w][c.h] = append(byCell[c.w][c.h], d)
	}

	// --- Fit the hourly normal steady model, cell by cell in the
	// HourlyNormal layout. A cell without deltas stays zero.
	steady := models.NewHourlyNormal()
	for w := range byCell {
		for h, xs := range byCell[w] {
			np, err := stats.FitNormal(xs)
			if err != nil {
				continue
			}
			steady.Set(models.HourBucket{Weekend: w == 1, Hour: h}, models.NormalParam{Mean: np.Mean, Sigma: np.Sigma})
		}
	}

	model := &models.DiskUsageModel{
		Steady:         steady,
		ReportInterval: opts.DeltaPeriod,
		Persisted:      edition.LocalStore(),
	}
	if dt.TotalDBs > 0 && len(initialTotals) > 0 {
		model.Initial = &models.InitialGrowthModel{
			Probability: float64(len(dt.InitialDBs)) / float64(dt.TotalDBs),
			Duration:    opts.InitialWindow,
			Bins:        toGrowthBins(stats.EquiProbableBins(initialTotals, minInt(opts.Bins, len(initialTotals)))),
		}
	}
	if dt.TotalDBs > 0 && len(spikeMagnitudes) > 0 {
		model.Rapid = &models.RapidGrowthModel{
			Probability:      float64(len(dt.RapidDBs)) / float64(dt.TotalDBs),
			IncreaseDur:      avgDuration(increaseDurs, time.Hour),
			SteadyBetweenDur: avgDuration(betweenDurs, 2*time.Hour),
			DecreaseDur:      avgDuration(decreaseDurs, time.Hour),
			IncreaseBins:     toGrowthBins(stats.EquiProbableBins(spikeMagnitudes, minInt(opts.Bins, len(spikeMagnitudes)))),
		}
		// The steady phase fills the remainder of a daily cycle.
		other := model.Rapid.IncreaseDur + model.Rapid.SteadyBetweenDur + model.Rapid.DecreaseDur
		if other < 24*time.Hour {
			model.Rapid.SteadyDur = 24*time.Hour - other
		} else {
			model.Rapid.SteadyDur = 20 * time.Hour
		}
	}
	dt.Model = model
	return dt
}

// hourCell addresses one (weekend, hour) cell of an hourly normal model
// by its array indices.
type hourCell struct{ w, h uint8 }

// cellTables holds, per distinct trace creation time, the steady-model
// cell of each delta: delta i of a trace created at c is stamped
// c + (i+1)·DeltaPeriod and bucketed by models.BucketOf, so traces
// sharing a creation time share one table. Keys compare with ==, which
// also compares the Location and any monotonic reading: equal keys
// always bucket alike, and one instant seen under two keys merely gets
// two tables.
type cellTables map[time.Time][]hourCell

// cells returns the cells of the first n deltas of a trace created at
// created, extending that creation time's table as needed.
func (ct cellTables) cells(created time.Time, period time.Duration, n int) []hourCell {
	tab := ct[created]
	if n > len(tab) {
		tab = slices.Grow(tab, n-len(tab))
		for i := len(tab); i < n; i++ {
			b := models.BucketOf(created.Add(time.Duration(i+1) * period))
			c := hourCell{h: uint8(b.Hour)}
			if b.Weekend {
				c.w = 1
			}
			tab = append(tab, c)
		}
		ct[created] = tab
	}
	return tab[:n]
}

// growthWithin returns the usage growth of a trace within d of creation.
func growthWithin(tr trace.DBTrace, d time.Duration) float64 {
	idx := int(d / tr.Interval)
	if idx <= 0 || idx >= len(tr.UsageGB) {
		return 0
	}
	return tr.UsageGB[idx] - tr.UsageGB[0]
}

// detectCycles finds spike→drop cycles in a delta series: a run of
// deltas above +threshold followed (after a gap) by a run below
// -threshold. It returns the spike magnitudes and per-phase durations.
func detectCycles(deltas []float64, period time.Duration, threshold float64) (magnitudes []float64, incDurs, betweenDurs, decDurs []time.Duration) {
	i := 0
	n := len(deltas)
	for i < n {
		// Find the start of a positive spike.
		for i < n && deltas[i] <= threshold {
			i++
		}
		if i >= n {
			break
		}
		spikeStart := i
		mag := 0.0
		for i < n && deltas[i] > threshold {
			mag += deltas[i]
			i++
		}
		spikeEnd := i
		// Find the following drop, skipping steady-between deltas.
		j := i
		for j < n && deltas[j] >= -threshold {
			// A new spike before any drop: not a spike/drop cycle; rewind
			// so the outer loop treats it as the next candidate spike.
			if deltas[j] > threshold {
				break
			}
			j++
		}
		if j >= n || deltas[j] > threshold {
			i = j
			continue
		}
		dropStart := j
		for j < n && deltas[j] < -threshold {
			j++
		}
		dropEnd := j
		magnitudes = append(magnitudes, mag)
		incDurs = append(incDurs, time.Duration(spikeEnd-spikeStart)*period)
		betweenDurs = append(betweenDurs, time.Duration(dropStart-spikeEnd)*period)
		decDurs = append(decDurs, time.Duration(dropEnd-dropStart)*period)
		i = dropEnd
	}
	return magnitudes, incDurs, betweenDurs, decDurs
}

func toGrowthBins(edges []float64) []models.GrowthBin {
	var bins []models.GrowthBin
	for i := 0; i+1 < len(edges); i++ {
		bins = append(bins, models.GrowthBin{LoGB: edges[i], HiGB: edges[i+1]})
	}
	return bins
}

func avgDuration(ds []time.Duration, fallback time.Duration) time.Duration {
	if len(ds) == 0 {
		return fallback
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DiskCandidate names one §4.2.2 steady-model candidate.
type DiskCandidate string

// The three candidates the paper compared for the steady-state model.
const (
	CandidateHourlyNormal DiskCandidate = "hourly-normal"
	CandidateKDE          DiskCandidate = "kde"
	CandidateBinning      DiskCandidate = "custom-binning"
)

// CandidateScore is a DTW/RMSE comparison of one candidate's simulated
// cumulative disk series against the production average.
type CandidateScore struct {
	Candidate DiskCandidate
	DTW       float64
	RMSE      float64
}

// CompareDiskCandidates reproduces the paper's model-selection study
// (§4.2.2): simulate an average database's cumulative disk usage under
// each candidate sampler and score it against the production average
// curve with DTW and RMSE. The hourly normal should be competitive with
// KDE and beat naive binning on temporal fidelity, which is why the paper
// adopts it (together with implementation-cost arguments).
func CompareDiskCandidates(dt *DiskTraining, traces []trace.DBTrace, seed uint64) ([]CandidateScore, error) {
	prod := AverageUsageCurve(traces, dt.Edition, dt.Opts.DeltaPeriod)
	if len(prod) == 0 {
		return nil, stats.ErrEmpty
	}

	kde := stats.NewKDE(dt.SteadyDeltas)
	hist := stats.NewHistogram(dt.SteadyDeltas, dt.Opts.Bins)
	probs := hist.Probabilities()
	edges := hist.BinEdges()

	samplers := []struct {
		name   DiskCandidate
		sample func(src *rng.Source, t time.Time) float64
	}{
		{CandidateHourlyNormal, func(src *rng.Source, t time.Time) float64 {
			return dt.Model.Steady.Sample(src, t)
		}},
		{CandidateKDE, func(src *rng.Source, t time.Time) float64 {
			return kde.Sample(src.Float64, func() float64 { return src.Normal(0, 1) })
		}},
		{CandidateBinning, func(src *rng.Source, t time.Time) float64 {
			i := src.Choice(probs)
			return src.UniformRange(edges[i], edges[i+1])
		}},
	}

	// Score each candidate's ensemble-mean curve: a single simulated walk
	// is dominated by sampling noise (sigma * sqrt(n)); the ensemble mean
	// reveals each model's systematic bias, which is what distinguishes
	// the candidates.
	const ensemble = 15
	var out []CandidateScore
	for _, cand := range samplers {
		sim := make([]float64, len(prod))
		for k := 0; k < ensemble; k++ {
			src := rng.New(seed + uint64(k)*2654435761).Split(string(cand.name))
			level := prod[0]
			sim[0] += level
			for i := 1; i < len(prod); i++ {
				t := trace.Epoch.Add(time.Duration(i) * dt.Opts.DeltaPeriod)
				level += cand.sample(src, t)
				sim[i] += level
			}
		}
		for i := range sim {
			sim[i] /= ensemble
		}
		dtw, err := stats.DTWWindow(prod, sim, 36)
		if err != nil {
			return nil, err
		}
		rmse, err := stats.RMSE(prod, sim)
		if err != nil {
			return nil, err
		}
		out = append(out, CandidateScore{Candidate: cand.name, DTW: dtw, RMSE: rmse})
	}
	return out, nil
}

// AverageUsageCurve returns the across-database mean usage series of one
// edition at the given discretization — the production curve of Figure 9.
func AverageUsageCurve(traces []trace.DBTrace, edition slo.Edition, period time.Duration) []float64 {
	var sum []float64
	n := 0
	for _, tr := range traces {
		if tr.Edition != edition {
			continue
		}
		step := int(period / tr.Interval)
		if step < 1 {
			step = 1
		}
		var series []float64
		for i := 0; i < len(tr.UsageGB); i += step {
			series = append(series, tr.UsageGB[i])
		}
		if sum == nil {
			sum = make([]float64, len(series))
		}
		for i := 0; i < len(sum) && i < len(series); i++ {
			sum[i] += series[i]
		}
		n++
	}
	if n == 0 {
		return nil
	}
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum
}

// SimulateAverageUsage generates the modeled cumulative usage curve of an
// average database over the given number of periods (Figure 9's gray
// curves), starting from startGB.
func SimulateAverageUsage(dt *DiskTraining, periods int, startGB float64, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, periods)
	out[0] = startGB
	for i := 1; i < periods; i++ {
		t := trace.Epoch.Add(time.Duration(i) * dt.Opts.DeltaPeriod)
		out[i] = out[i-1] + dt.Model.Steady.Sample(src, t)
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}
