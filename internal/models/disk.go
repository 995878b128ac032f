package models

import (
	"fmt"
	"strconv"
	"time"

	"toto/internal/rng"
)

// GrowthBin is one of the equi-probable buckets of the Initial Creation
// and Predictable Rapid Growth models: the paper partitions the observed
// Delta Disk Usage values "into five buckets of equal probability" and
// samples uniformly within the chosen bucket (§4.2.3, §4.2.4).
type GrowthBin struct {
	LoGB float64
	HiGB float64
}

// SampleBins picks one bin uniformly and then a value uniformly within
// it.
func SampleBins(src *rng.Source, bins []GrowthBin) float64 {
	if len(bins) == 0 {
		return 0
	}
	b := bins[src.Intn(len(bins))]
	return src.UniformRange(b.LoGB, b.HiGB)
}

// InitialGrowthModel captures the common customer behaviour of restoring
// a database from an existing mdf file or bulk-loading right after
// creation (§4.2.3): with probability Probability a new database grows by
// a bin-sampled amount spread over the first Duration of its life.
type InitialGrowthModel struct {
	// Probability that a new database exhibits high initial growth.
	Probability float64
	// Duration of the high-growth window (the paper fixes 30 minutes).
	Duration time.Duration
	// Bins are the equi-probable total-growth buckets in GB.
	Bins []GrowthBin
}

// RapidGrowthState identifies a phase of the Predictable Rapid Growth
// state machine (§4.2.4).
type RapidGrowthState int

const (
	// StateSteady is ordinary steady-state growth.
	StateSteady RapidGrowthState = iota
	// StateRapidIncrease is the large disk-usage spike (e.g. ETL load).
	StateRapidIncrease
	// StateSteadyBetween is steady growth between the spike and the drop.
	StateSteadyBetween
	// StateRapidDecrease is the rapid usage drop (old data aged out).
	StateRapidDecrease
)

// String names the state.
func (s RapidGrowthState) String() string {
	switch s {
	case StateSteady:
		return "steady"
	case StateRapidIncrease:
		return "rapid-increase"
	case StateSteadyBetween:
		return "steady-between"
	case StateRapidDecrease:
		return "rapid-decrease"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// RapidGrowthModel is the four-state machine of §4.2.4. Each state has a
// fixed duration (the average time observed in training); spike and drop
// magnitudes are bin-sampled. The machine is evaluated statelessly: the
// phase is a pure function of time since creation, so any RgManager
// instance computes the same state for the same database at the same
// time.
type RapidGrowthModel struct {
	// Probability that a database exhibits the pattern at all.
	Probability float64
	// Durations of the four states, in machine order.
	SteadyDur        time.Duration
	IncreaseDur      time.Duration
	SteadyBetweenDur time.Duration
	DecreaseDur      time.Duration
	// IncreaseBins are equi-probable spike magnitudes in GB (total over
	// the increase phase).
	IncreaseBins []GrowthBin
}

// CycleDuration returns the length of one full state-machine cycle.
func (m *RapidGrowthModel) CycleDuration() time.Duration {
	return m.SteadyDur + m.IncreaseDur + m.SteadyBetweenDur + m.DecreaseDur
}

// StateAt returns the machine state and the time already spent in it for
// a database created at created, evaluated at now.
func (m *RapidGrowthModel) StateAt(created, now time.Time) (RapidGrowthState, time.Duration) {
	cycle := m.CycleDuration()
	if cycle <= 0 || now.Before(created) {
		return StateSteady, 0
	}
	offset := now.Sub(created) % cycle
	switch {
	case offset < m.SteadyDur:
		return StateSteady, offset
	case offset < m.SteadyDur+m.IncreaseDur:
		return StateRapidIncrease, offset - m.SteadyDur
	case offset < m.SteadyDur+m.IncreaseDur+m.SteadyBetweenDur:
		return StateSteadyBetween, offset - m.SteadyDur - m.IncreaseDur
	default:
		return StateRapidDecrease, offset - m.SteadyDur - m.IncreaseDur - m.SteadyBetweenDur
	}
}

// cycleIndex returns which cycle now falls in.
func (m *RapidGrowthModel) cycleIndex(created, now time.Time) int64 {
	cycle := m.CycleDuration()
	if cycle <= 0 || now.Before(created) {
		return 0
	}
	return int64(now.Sub(created) / cycle)
}

// DiskUsageModel composes the three growth patterns of §4.2 for one
// database subset (edition): steady-state growth applies to every
// database; a hash-selected subset additionally exhibits initial-creation
// growth; another subset follows the rapid-growth state machine.
type DiskUsageModel struct {
	// Steady is the hourly-normal Delta Disk Usage model applied per
	// report interval (§4.2.2). The cell parameters are in GB per report
	// interval.
	Steady *HourlyNormal
	// Initial is the optional initial-creation growth model.
	Initial *InitialGrowthModel
	// Rapid is the optional predictable-rapid-growth model.
	Rapid *RapidGrowthModel
	// ReportInterval is the disk-report spacing (the paper discretizes
	// disk usage into 20-minute periods, §4.2.1).
	ReportInterval time.Duration
	// Persisted controls whether the previously reported value survives
	// failovers via the Naming Service (§3.3.2): true for local-store
	// databases, false for remote-store ones whose tempDB resets.
	Persisted bool
}

// EvalContext carries everything a stateless model evaluation needs.
type EvalContext struct {
	// DB is the database name; it seeds per-database randomness.
	DB string
	// Created is the database's creation time.
	Created time.Time
	// Now is the evaluation time.
	Now time.Time
	// Prev is the previously reported value (0 for a fresh replica).
	Prev float64
	// MaxGB caps the value at the SLO's maximum allowable disk.
	MaxGB float64
	// Seed is the model seed from the XML (§5.2: seeds are specified
	// through the XML and fixed per experiment).
	Seed uint64
}

// FNV-1a (64-bit) parameters. The per-database hashes below run the
// hash/fnv algorithm inline over strconv digits in a stack buffer, so a
// model evaluation formats and allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime64
	}
	return h
}

// dbKey is the FNV-1a state after hashing "seed/db/", the prefix every
// per-database draw shares. Completing it with a decimal bucket gives the
// hash of "seed/db/bucket" that seeds a random stream; completing it with
// a salt gives "seed/db/salt" for stable subset selection. The streams
// depend only on (seed, db, bucket), so replays and cross-node evaluations
// agree.
type dbKey uint64

func newDBKey(seed uint64, db string) dbKey {
	var buf [20]byte
	h := fnv1a(fnvOffset64, strconv.AppendUint(buf[:0], seed, 10))
	h = fnv1a(h, "/")
	h = fnv1a(h, db)
	return dbKey(fnv1a(h, "/"))
}

// bucketSeed returns the seed of the database's random stream at one
// report bucket: the hash of "seed/db/bucket".
func (k dbKey) bucketSeed(bucket int64) uint64 {
	var buf [20]byte
	return fnv1a(uint64(k), strconv.AppendInt(buf[:0], bucket, 10))
}

// hash01 maps the key and a salt to a uniform value in [0,1) used for
// stable subset selection (does this database exhibit high initial
// growth? rapid growth?).
func (k dbKey) hash01(salt string) float64 {
	return float64(fnv1a(uint64(k), salt)>>11) / (1 << 53)
}

// hasInitialGrowth reports whether the database keyed by k belongs to the
// high-initial-growth subset under this model.
func (m *DiskUsageModel) hasInitialGrowth(k dbKey) bool {
	return m.Initial != nil && m.Initial.Probability > 0 && k.hash01("initial") < m.Initial.Probability
}

// hasRapidGrowth reports whether the database keyed by k follows the
// rapid-growth state machine under this model.
func (m *DiskUsageModel) hasRapidGrowth(k dbKey) bool {
	return m.Rapid != nil && m.Rapid.Probability > 0 && k.hash01("rapid") < m.Rapid.Probability
}

// Next computes the value to report for this interval: the previous value
// plus the sampled Delta Disk Usage from whichever growth pattern is
// active, clamped to [0, MaxGB].
func (m *DiskUsageModel) Next(ctx EvalContext) float64 {
	if m.ReportInterval <= 0 {
		panic("models: DiskUsageModel without report interval")
	}
	bucket := int64(0)
	if ctx.Now.After(ctx.Created) {
		bucket = int64(ctx.Now.Sub(ctx.Created) / m.ReportInterval)
	}
	key := newDBKey(ctx.Seed, ctx.DB)
	src := rng.New(key.bucketSeed(bucket))

	delta := m.Steady.Sample(src, ctx.Now)

	// Initial creation growth: total bin-sampled growth spread uniformly
	// over the reports inside the initial window.
	if m.hasInitialGrowth(key) {
		elapsed := ctx.Now.Sub(ctx.Created)
		if elapsed >= 0 && elapsed < m.Initial.Duration {
			total := SampleBins(rng.New(key.bucketSeed(-1)), m.Initial.Bins)
			reports := float64(m.Initial.Duration / m.ReportInterval)
			if reports < 1 {
				reports = 1
			}
			delta += total / reports
		}
	}

	// Predictable rapid growth: spike/drop magnitudes are sampled once
	// per cycle (stream keyed by cycle index) and spread uniformly over
	// the phase's reports; the drop returns what the spike added.
	if m.hasRapidGrowth(key) {
		state, _ := m.Rapid.StateAt(ctx.Created, ctx.Now)
		cycle := m.Rapid.cycleIndex(ctx.Created, ctx.Now)
		magnitude := SampleBins(rng.New(key.bucketSeed(-1000-cycle)), m.Rapid.IncreaseBins)
		switch state {
		case StateRapidIncrease:
			reports := float64(m.Rapid.IncreaseDur / m.ReportInterval)
			if reports < 1 {
				reports = 1
			}
			delta += magnitude / reports
		case StateRapidDecrease:
			reports := float64(m.Rapid.DecreaseDur / m.ReportInterval)
			if reports < 1 {
				reports = 1
			}
			delta -= magnitude / reports
		}
	}

	next := ctx.Prev + delta
	if next < 0 {
		next = 0
	}
	if ctx.MaxGB > 0 && next > ctx.MaxGB {
		next = ctx.MaxGB
	}
	return next
}

// MemoryModel reports memory load levels. Memory is non-persisted: after
// a failover the buffer pool is cold and the load resets (§3.3.2). The
// model warms the reported value toward an hourly-normal target level.
// CPU/memory modeling is listed as future work in the paper (§5.5); this
// implementation follows the cold-buffer-default description given for
// memory in §3.3.2.
type MemoryModel struct {
	// Target is the hourly-normal utilization target in GB.
	Target *HourlyNormal
	// WarmRate is the per-report fraction of the gap to the target that
	// is closed (buffer pool warming).
	WarmRate float64
	// ColdStartGB is the reported value right after a (re)start.
	ColdStartGB float64
	// SecondaryFactor scales the target for secondary replicas of
	// local-store databases, which hold smaller buffer pools than the
	// primary serving the queries (§3.3.2: "models for resources like
	// CPU and memory need to be distinct for the primary and secondary
	// replicas"). 0 means "same as primary" for backward compatibility.
	SecondaryFactor float64
	// ReportInterval spaces memory reports.
	ReportInterval time.Duration
}

// Next computes the next memory load report for a primary replica.
func (m *MemoryModel) Next(ctx EvalContext) float64 { return m.next(ctx, false) }

// NextSecondary computes the next memory load report for a secondary
// replica, whose target is scaled by SecondaryFactor.
func (m *MemoryModel) NextSecondary(ctx EvalContext) float64 { return m.next(ctx, true) }

func (m *MemoryModel) next(ctx EvalContext, secondary bool) float64 {
	bucket := int64(0)
	if m.ReportInterval > 0 && ctx.Now.After(ctx.Created) {
		bucket = int64(ctx.Now.Sub(ctx.Created) / m.ReportInterval)
	}
	src := rng.New(newDBKey(ctx.Seed, ctx.DB).bucketSeed(bucket + 1_000_000))
	target := m.Target.Sample(src, ctx.Now)
	if secondary && m.SecondaryFactor > 0 {
		target *= m.SecondaryFactor
	}
	if target < 0 {
		target = 0
	}
	prev := ctx.Prev
	if prev <= 0 {
		prev = m.ColdStartGB
	}
	next := prev + (target-prev)*m.WarmRate
	if next < 0 {
		next = 0
	}
	if ctx.MaxGB > 0 && next > ctx.MaxGB {
		next = ctx.MaxGB
	}
	return next
}

// CPUModel reports a database's actual CPU consumption in cores — the
// §5.5 future-work resource model, implemented observationally (the PLB
// does not enforce a CPU-usage capacity; the paper's density lever is
// the core *reservation*). Utilization follows an hourly-normal target
// fraction of the SLO's cores with an idle subpopulation, reproducing
// the low-utilization population of Figure 3(b).
type CPUModel struct {
	// TargetFraction is the hourly-normal utilization fraction of the
	// SLO's reserved cores (values are clamped to [0, 1]).
	TargetFraction *HourlyNormal
	// IdleFraction of databases report (near) zero CPU regardless of
	// hour — the completely idle databases §2 removes from Figure 3(b).
	IdleFraction float64
	// SecondaryFactor scales secondaries' usage (they serve no queries).
	SecondaryFactor float64
	// ReportInterval spaces CPU reports.
	ReportInterval time.Duration
}

// isIdle reports whether the database keyed by k belongs to the stable
// idle subpopulation.
func (m *CPUModel) isIdle(k dbKey) bool {
	return m.IdleFraction > 0 && k.hash01("cpu-idle") < m.IdleFraction
}

// Next computes the cores a primary replica currently consumes, given
// the replica's reserved cores in ctx.MaxGB (reused as the core cap).
func (m *CPUModel) Next(ctx EvalContext) float64 { return m.next(ctx, false) }

// NextSecondary computes a secondary replica's CPU consumption.
func (m *CPUModel) NextSecondary(ctx EvalContext) float64 { return m.next(ctx, true) }

func (m *CPUModel) next(ctx EvalContext, secondary bool) float64 {
	key := newDBKey(ctx.Seed, ctx.DB)
	if m.isIdle(key) {
		return 0
	}
	bucket := int64(0)
	if m.ReportInterval > 0 && ctx.Now.After(ctx.Created) {
		bucket = int64(ctx.Now.Sub(ctx.Created) / m.ReportInterval)
	}
	src := rng.New(key.bucketSeed(bucket + 2_000_000))
	frac := m.TargetFraction.Sample(src, ctx.Now)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if secondary && m.SecondaryFactor > 0 {
		frac *= m.SecondaryFactor
	}
	return frac * ctx.MaxGB
}

// SampleLifetime draws one database's scheduled lifetime. ok is false for
// long-lived databases, which never receive a scheduled drop. Bins hold
// lifetimes in hours; the draw is uniform within an equi-probable bin,
// mirroring the paper's other bucketed models.
func (m *LifetimeModel) SampleLifetime(src *rng.Source) (lifetime time.Duration, ok bool) {
	if m == nil || src.Bernoulli(m.LongLivedFraction) {
		return 0, false
	}
	hours := SampleBins(src, m.Bins)
	if hours <= 0 {
		return 0, false
	}
	return time.Duration(hours * float64(time.Hour)), true
}
