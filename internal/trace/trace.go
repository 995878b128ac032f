// Package trace generates synthetic production telemetry with the
// qualitative structure the paper reports for Azure SQL DB (§2, §4):
// hourly create/drop event streams with diurnal and weekday/weekend
// patterns where Premium/BC events are far rarer than Standard/GP ones;
// per-database disk-usage series that are steady-state ~99.8% of the
// time with high-initial-growth and ETL-spike subpopulations; a
// low-utilization CPU/memory population; and per-cluster local-store
// fractions that differ by region.
//
// This is the repository's substitution for the proprietary Azure
// telemetry the paper trains on (see DESIGN.md §2): the model-training
// pipeline in internal/trainer consumes these traces exactly as it would
// consume production data.
package trace

import (
	"fmt"
	"math"
	"time"

	"toto/internal/rng"
	"toto/internal/slo"
)

// Epoch is the fixed start of all synthetic traces: a Monday, so weekday
// and weekend cells fill predictably.
var Epoch = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

// HourCount is one hour's event count in a region-level trace.
type HourCount struct {
	Time  time.Time
	Count int
}

// RegionConfig parameterizes a synthetic region's create/drop streams.
type RegionConfig struct {
	// Seed drives all sampling.
	Seed uint64
	// Days is the trace length (the paper trains on multi-week windows).
	Days int
	// Rings is the number of tenant rings in the region; the trainer
	// divides region-level rates by it (§4.1.1).
	Rings int
	// CreateBase is the region-level weekday-peak mean creates/hour per
	// edition.
	CreateBase map[slo.Edition]float64
	// DropFactor scales drop rates relative to create rates (<1 means
	// the population grows).
	DropFactor float64
	// WeekendFactor scales weekend rates relative to weekdays (<1: the
	// paper observes fewer events on weekends).
	WeekendFactor float64
	// NoiseFrac is the relative sigma of the hourly counts.
	NoiseFrac float64
}

// DefaultRegionConfig mirrors the paper's qualitative findings: GP
// creates an order of magnitude more frequent than BC, weekends at ~55%
// of weekday load, and mild hourly noise.
func DefaultRegionConfig(seed uint64) RegionConfig {
	return RegionConfig{
		Seed:  seed,
		Days:  28,
		Rings: 25,
		CreateBase: map[slo.Edition]float64{
			slo.StandardGP: 90,
			slo.PremiumBC:  13,
		},
		DropFactor:    0.90,
		WeekendFactor: 0.55,
		NoiseFrac:     0.15,
	}
}

// Region is a generated region-level trace.
type Region struct {
	Config  RegionConfig
	Creates map[slo.Edition][]HourCount
	Drops   map[slo.Edition][]HourCount
}

// diurnal returns the within-day activity shape in (0, 1]: a business-
// hours bump peaking at 13:00 on a 0.35 baseline.
func diurnal(hour int) float64 {
	d := float64(hour) - 13
	return 0.35 + 0.65*math.Exp(-d*d/(2*16))
}

// DiurnalShape exposes the within-day activity shape in (0, 1] so other
// load generators (the request-level traffic plane) share the same curve
// the churn traces are trained on.
func DiurnalShape(hour int) float64 { return diurnal(hour) }

// hourMean returns the modeled mean events/hour for an edition at t.
func (cfg RegionConfig) hourMean(e slo.Edition, t time.Time, base float64) float64 {
	m := base * diurnal(t.Hour())
	wd := t.Weekday()
	if wd == time.Saturday || wd == time.Sunday {
		m *= cfg.WeekendFactor
	}
	return m
}

// CreateMean returns the modeled mean creates/hour for an edition at t
// (exposed for validation plots).
func (cfg RegionConfig) CreateMean(e slo.Edition, t time.Time) float64 {
	return cfg.hourMean(e, t, cfg.CreateBase[e])
}

// DropMean returns the modeled mean drops/hour for an edition at t.
func (cfg RegionConfig) DropMean(e slo.Edition, t time.Time) float64 {
	return cfg.hourMean(e, t, cfg.CreateBase[e]*cfg.DropFactor)
}

// GenerateRegion samples a full region trace.
func GenerateRegion(cfg RegionConfig) *Region {
	if cfg.Days <= 0 {
		panic("trace: non-positive trace length")
	}
	r := &Region{
		Config:  cfg,
		Creates: make(map[slo.Edition][]HourCount),
		Drops:   make(map[slo.Edition][]HourCount),
	}
	root := rng.New(cfg.Seed)
	for _, e := range slo.Editions() {
		cSrc := root.Split("creates/" + e.String())
		dSrc := root.Split("drops/" + e.String())
		hours := cfg.Days * 24
		creates := make([]HourCount, hours)
		drops := make([]HourCount, hours)
		for h := 0; h < hours; h++ {
			t := Epoch.Add(time.Duration(h) * time.Hour)
			cm := cfg.CreateMean(e, t)
			dm := cfg.DropMean(e, t)
			creates[h] = HourCount{Time: t, Count: clampCount(cSrc.Normal(cm, cfg.NoiseFrac*cm+0.8))}
			drops[h] = HourCount{Time: t, Count: clampCount(dSrc.Normal(dm, cfg.NoiseFrac*dm+0.8))}
		}
		r.Creates[e] = creates
		r.Drops[e] = drops
	}
	return r
}

func clampCount(v float64) int {
	if v <= 0 {
		return 0
	}
	return int(v + 0.5)
}

// NetCreates returns the hourly net creates (creates minus drops) summed
// over editions — the quantity Figure 8(a) validates.
func (r *Region) NetCreates() []int {
	hours := r.Config.Days * 24
	out := make([]int, hours)
	for _, e := range slo.Editions() {
		for h := 0; h < hours; h++ {
			out[h] += r.Creates[e][h].Count - r.Drops[e][h].Count
		}
	}
	return out
}

// DiskTraceConfig parameterizes per-database disk-usage traces.
type DiskTraceConfig struct {
	Seed uint64
	// Databases per edition.
	Databases map[slo.Edition]int
	// Days of trace at Interval granularity.
	Days int
	// Interval is the sampling granularity. The generator emits 5-minute
	// samples by default so the trainer can both apply the paper's
	// "first five minutes" initial-growth label and re-discretize to the
	// paper's 20-minute Delta Disk Usage.
	Interval time.Duration
	// SteadyMeanGBPerHour is the weekday-peak steady growth per edition.
	SteadyMeanGBPerHour map[slo.Edition]float64
	// SteadyNoiseGB is the per-sample sigma per edition.
	SteadyNoiseGB map[slo.Edition]float64
	// InitialGrowthFrac is the fraction of databases that bulk-load right
	// after creation (§4.2.3).
	InitialGrowthFrac float64
	// InitialGrowthRangeGB is the total initial-growth range per edition.
	// Premium/BC restores can be TB-scale (§5.3.2 describes a 6-core BC
	// database growing ~1.3 TB in its first 30 minutes).
	InitialGrowthRangeGB map[slo.Edition][2]float64
	// RapidGrowthFrac is the fraction of databases with the daily
	// ETL spike/drop pattern (§4.2.4).
	RapidGrowthFrac float64
	// RapidSpikeRangeGB is the spike magnitude range per edition.
	RapidSpikeRangeGB map[slo.Edition][2]float64
	// StartDiskGB is the initial stored size range per edition.
	StartDiskGB map[slo.Edition][2]float64
}

// DefaultDiskTraceConfig mirrors the paper's disk findings: ~99.8% of
// 20-minute deltas are steady-state; the rest belong to initial-creation
// or predictable-rapid-growth events.
func DefaultDiskTraceConfig(seed uint64) DiskTraceConfig {
	return DiskTraceConfig{
		Seed: seed,
		Databases: map[slo.Edition]int{
			slo.StandardGP: 340,
			slo.PremiumBC:  60,
		},
		Days:     14,
		Interval: 5 * time.Minute,
		SteadyMeanGBPerHour: map[slo.Edition]float64{
			slo.StandardGP: 0.010,
			slo.PremiumBC:  0.100,
		},
		SteadyNoiseGB: map[slo.Edition]float64{
			slo.StandardGP: 0.004,
			slo.PremiumBC:  0.02,
		},
		InitialGrowthFrac: 0.08,
		InitialGrowthRangeGB: map[slo.Edition][2]float64{
			slo.StandardGP: {12, 60},
			slo.PremiumBC:  {12, 1400},
		},
		RapidGrowthFrac: 0.03,
		RapidSpikeRangeGB: map[slo.Edition][2]float64{
			slo.StandardGP: {25, 120},
			slo.PremiumBC:  {50, 400},
		},
		StartDiskGB: map[slo.Edition][2]float64{
			slo.StandardGP: {1, 120},
			slo.PremiumBC:  {50, 1200},
		},
	}
}

// GrowthClass labels the ground-truth behaviour of one traced database.
// The trainer must rediscover these labels from the data alone; the
// ground truth exists so tests can score the labeling.
type GrowthClass int

const (
	// ClassSteady databases only exhibit steady-state growth.
	ClassSteady GrowthClass = iota
	// ClassInitialGrowth databases bulk-load within the first 30 minutes.
	ClassInitialGrowth
	// ClassRapidGrowth databases follow the daily spike/drop pattern.
	ClassRapidGrowth
)

// String names the class.
func (c GrowthClass) String() string {
	switch c {
	case ClassSteady:
		return "steady"
	case ClassInitialGrowth:
		return "initial-growth"
	case ClassRapidGrowth:
		return "rapid-growth"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// DBTrace is one database's disk-usage series.
type DBTrace struct {
	DB      string
	Edition slo.Edition
	Created time.Time
	// Interval is the sample spacing.
	Interval time.Duration
	// UsageGB[i] is the stored size at Created + i*Interval.
	UsageGB []float64
	// Class is the generator's ground-truth behaviour label.
	Class GrowthClass
}

// AppendDeltas appends the per-interval usage differences to dst and
// returns the extended slice, so a caller walking many traces can reuse
// one buffer. The differences are optionally re-discretized to a coarser
// period (which must be a multiple of the trace interval). This
// reproduces the paper's 20-minute Delta Disk Usage from finer samples.
func (t *DBTrace) AppendDeltas(dst []float64, period time.Duration) []float64 {
	step := 1
	if period > t.Interval {
		step = int(period / t.Interval)
	}
	for i := step; i < len(t.UsageGB); i += step {
		dst = append(dst, t.UsageGB[i]-t.UsageGB[i-step])
	}
	return dst
}

// GenerateDiskTraces samples per-database disk traces.
func GenerateDiskTraces(cfg DiskTraceConfig) []DBTrace {
	if cfg.Days <= 0 {
		panic("trace: non-positive trace length")
	}
	if cfg.Interval <= 0 {
		panic("trace: non-positive interval")
	}
	root := rng.New(cfg.Seed)
	samples := int(time.Duration(cfg.Days) * 24 * time.Hour / cfg.Interval)
	perHour := float64(time.Hour / cfg.Interval)

	// Every trace starts at Epoch on the same sampling grid, so each
	// sample's hour of day is computed once here rather than per trace.
	hourOf := make([]uint8, samples)
	for s := range hourOf {
		hourOf[s] = uint8(Epoch.Add(time.Duration(s) * cfg.Interval).Hour())
	}

	var out []DBTrace
	for _, e := range slo.Editions() {
		// The steady mean growth per sample in each hour of the day, and
		// the per-sample sigma, are the same for every database of e, so
		// the diurnal curve is evaluated once per hour here.
		var meanPerSample [24]float64
		for h := range meanPerSample {
			meanPerSample[h] = cfg.SteadyMeanGBPerHour[e] * diurnal(h) / perHour
		}
		noise := cfg.SteadyNoiseGB[e]
		n := cfg.Databases[e]
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("trace-%s-%04d", e.String(), i)
			src := root.Split(name)

			class := ClassSteady
			switch {
			case src.Bernoulli(cfg.InitialGrowthFrac):
				class = ClassInitialGrowth
			case src.Bernoulli(cfg.RapidGrowthFrac / (1 - cfg.InitialGrowthFrac)):
				class = ClassRapidGrowth
			}

			start := src.UniformRange(cfg.StartDiskGB[e][0], cfg.StartDiskGB[e][1])
			usage := make([]float64, samples)
			usage[0] = start

			// Initial growth lands in the very first 5-minute sample so
			// the paper's ">12GB within the first five minutes" label
			// fires; the remainder spreads over the first 30 minutes.
			var initialTotal float64
			if class == ClassInitialGrowth {
				rg := cfg.InitialGrowthRangeGB[e]
				initialTotal = src.UniformRange(rg[0]+1, rg[1])
			}
			var spike float64
			spikeHour := 0
			if class == ClassRapidGrowth {
				rg := cfg.RapidSpikeRangeGB[e]
				spike = src.UniformRange(rg[0], rg[1])
				// Each ETL pipeline runs at its own hour; starting all
				// spikes at hour 0 would collide with the creation
				// instant and masquerade as initial-creation growth.
				spikeHour = 1 + src.Intn(23)
			}

			for s := 1; s < samples; s++ {
				hour := int(hourOf[s])
				delta := src.Normal(meanPerSample[hour], noise)

				if class == ClassInitialGrowth {
					elapsed := time.Duration(s) * cfg.Interval
					if elapsed <= 5*time.Minute {
						delta += initialTotal * 0.7 // bulk of the restore hits immediately
					} else if elapsed <= 30*time.Minute {
						remaining := initialTotal * 0.3
						steps := float64((30*time.Minute - 5*time.Minute) / cfg.Interval)
						delta += remaining / steps
					}
				}
				if class == ClassRapidGrowth {
					// Daily cycle: load new data for an hour, age out old
					// data three hours later.
					switch hour {
					case spikeHour:
						delta += spike / perHour
					case (spikeHour + 3) % 24:
						delta -= spike / perHour
					}
				}

				usage[s] = usage[s-1] + delta
				if usage[s] < 0 {
					usage[s] = 0
				}
			}
			out = append(out, DBTrace{
				DB:       name,
				Edition:  e,
				Created:  Epoch,
				Interval: cfg.Interval,
				UsageGB:  usage,
				Class:    class,
			})
		}
	}
	return out
}

// UtilizationPoint is one database's average CPU and memory utilization
// (Figure 3b).
type UtilizationPoint struct {
	CPUPercent    float64
	MemoryPercent float64
}

// GenerateUtilization samples n non-idle databases' average utilization
// over a 12-hour daytime window. The population is heavily skewed toward
// low CPU utilization (most cloud databases are lightly used, §2) while
// memory sits on a floor — buffer pools hold pages even when CPU is idle.
func GenerateUtilization(seed uint64, n int) []UtilizationPoint {
	src := rng.New(seed)
	out := make([]UtilizationPoint, n)
	for i := range out {
		u := src.Float64()
		cpu := 100 * u * u * u // cubic skew: median ~12%, long right tail
		memFloor := src.UniformRange(5, 30)
		mem := memFloor + 0.55*cpu + src.Normal(0, 6)
		if mem < 0 {
			mem = 0
		}
		if mem > 100 {
			mem = 100
		}
		if cpu > 100 {
			cpu = 100
		}
		out[i] = UtilizationPoint{CPUPercent: cpu, MemoryPercent: mem}
	}
	return out
}

// LocalStoreFractions returns, for each of days days, the per-cluster
// fraction of databases that are local-store in a region whose clusters
// average mean with the given spread (Figure 3a). Each inner slice holds
// one value per cluster.
func LocalStoreFractions(seed uint64, clusters, days int, mean, spread float64) [][]float64 {
	src := rng.New(seed)
	// Per-cluster demographics are sticky: each cluster has its own base
	// fraction that wiggles slightly day to day.
	base := make([]float64, clusters)
	for i := range base {
		base[i] = clampFrac(src.Normal(mean, spread))
	}
	out := make([][]float64, days)
	for d := range out {
		day := make([]float64, clusters)
		for i := range day {
			day[i] = clampFrac(base[i] + src.Normal(0, spread*0.15))
		}
		out[d] = day
	}
	return out
}

func clampFrac(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
