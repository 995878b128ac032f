package models

import (
	"math"
	"testing"
	"time"

	"toto/internal/rng"
)

// Monday.
var monday = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

// Saturday.
var saturday = time.Date(2020, time.June, 6, 0, 0, 0, 0, time.UTC)

func TestBucketOf(t *testing.T) {
	b := BucketOf(monday.Add(13 * time.Hour))
	if b.Weekend || b.Hour != 13 {
		t.Errorf("bucket = %+v", b)
	}
	b = BucketOf(saturday.Add(2 * time.Hour))
	if !b.Weekend || b.Hour != 2 {
		t.Errorf("bucket = %+v", b)
	}
	// Sunday is weekend; Friday is not.
	if !BucketOf(saturday.Add(24 * time.Hour)).Weekend {
		t.Error("Sunday not weekend")
	}
	if BucketOf(saturday.Add(-24 * time.Hour)).Weekend {
		t.Error("Friday is weekend")
	}
}

func TestHourlyNormalSetAt(t *testing.T) {
	h := NewHourlyNormal()
	h.Set(HourBucket{Weekend: false, Hour: 9}, NormalParam{Mean: 10, Sigma: 2})
	h.Set(HourBucket{Weekend: true, Hour: 9}, NormalParam{Mean: 4, Sigma: 1})
	if p := h.At(monday.Add(9 * time.Hour)); p.Mean != 10 {
		t.Errorf("weekday cell = %+v", p)
	}
	if p := h.At(saturday.Add(9 * time.Hour)); p.Mean != 4 {
		t.Errorf("weekend cell = %+v", p)
	}
	if p := h.At(monday.Add(10 * time.Hour)); p.Mean != 0 {
		t.Errorf("unset cell = %+v", p)
	}
}

func TestHourlyNormalPanics(t *testing.T) {
	h := NewHourlyNormal()
	for _, bad := range []HourBucket{{Hour: -1}, {Hour: 24}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("hour %d not rejected", bad.Hour)
				}
			}()
			h.Set(bad, NormalParam{})
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("negative sigma not rejected")
		}
	}()
	h.Set(HourBucket{Hour: 0}, NormalParam{Sigma: -1})
}

func TestHourlyNormalSampleCount(t *testing.T) {
	h := NewHourlyNormal()
	h.Set(HourBucket{Hour: 0}, NormalParam{Mean: 5, Sigma: 1})
	src := rng.New(1)
	sum := 0
	const n = 10000
	for i := 0; i < n; i++ {
		c := h.SampleCount(src, monday)
		if c < 0 {
			t.Fatal("negative count")
		}
		sum += c
	}
	if m := float64(sum) / n; math.Abs(m-5) > 0.1 {
		t.Errorf("mean count = %v", m)
	}
	// A strongly negative cell clamps to zero.
	h.Set(HourBucket{Hour: 1}, NormalParam{Mean: -10, Sigma: 0.1})
	if c := h.SampleCount(src, monday.Add(time.Hour)); c != 0 {
		t.Errorf("negative-mean count = %d", c)
	}
}

func TestHourlyNormalBucketsIteratesAll48(t *testing.T) {
	h := NewHourlyNormal()
	count := 0
	h.Buckets(func(HourBucket, NormalParam) { count++ })
	if count != 48 {
		t.Errorf("iterated %d cells", count)
	}
}

func TestSampleBins(t *testing.T) {
	src := rng.New(2)
	bins := []GrowthBin{{LoGB: 0, HiGB: 10}, {LoGB: 100, HiGB: 110}}
	low, high := 0, 0
	for i := 0; i < 10000; i++ {
		v := SampleBins(src, bins)
		switch {
		case v >= 0 && v < 10:
			low++
		case v >= 100 && v < 110:
			high++
		default:
			t.Fatalf("sample %v outside both bins", v)
		}
	}
	if math.Abs(float64(low-high)) > 600 {
		t.Errorf("bins not equi-probable: %d vs %d", low, high)
	}
	if SampleBins(src, nil) != 0 {
		t.Error("empty bins should sample 0")
	}
}

func TestRapidGrowthStateMachine(t *testing.T) {
	m := &RapidGrowthModel{
		SteadyDur:        20 * time.Hour,
		IncreaseDur:      time.Hour,
		SteadyBetweenDur: 2 * time.Hour,
		DecreaseDur:      time.Hour,
	}
	if m.CycleDuration() != 24*time.Hour {
		t.Fatalf("cycle = %v", m.CycleDuration())
	}
	cases := []struct {
		offset time.Duration
		want   RapidGrowthState
	}{
		{0, StateSteady},
		{19*time.Hour + 59*time.Minute, StateSteady},
		{20*time.Hour + 30*time.Minute, StateRapidIncrease},
		{22 * time.Hour, StateSteadyBetween},
		{23*time.Hour + 30*time.Minute, StateRapidDecrease},
		{24 * time.Hour, StateSteady},                       // next cycle
		{44*time.Hour + 30*time.Minute, StateRapidIncrease}, // cycle 1
	}
	for _, c := range cases {
		got, _ := m.StateAt(monday, monday.Add(c.offset))
		if got != c.want {
			t.Errorf("state at +%v = %v, want %v", c.offset, got, c.want)
		}
	}
	// Before creation: steady.
	if got, _ := m.StateAt(monday, monday.Add(-time.Hour)); got != StateSteady {
		t.Error("pre-creation state not steady")
	}
}

func testDiskModel(persisted bool) *DiskUsageModel {
	steady := NewHourlyNormal()
	for w := 0; w < 2; w++ {
		for h := 0; h < 24; h++ {
			steady.Set(HourBucket{Weekend: w == 1, Hour: h}, NormalParam{Mean: 0.05, Sigma: 0.01})
		}
	}
	return &DiskUsageModel{
		Steady:         steady,
		ReportInterval: 20 * time.Minute,
		Persisted:      persisted,
	}
}

func TestDiskModelStatelessDeterminism(t *testing.T) {
	m := testDiskModel(true)
	ctx := EvalContext{
		DB:      "db-1",
		Created: monday,
		Now:     monday.Add(40 * time.Minute),
		Prev:    100,
		MaxGB:   1000,
		Seed:    7,
	}
	a := m.Next(ctx)
	b := m.Next(ctx) // same inputs, same output: the model is stateless
	if a != b {
		t.Fatalf("stateless model returned %v then %v", a, b)
	}
	// A different database diverges.
	ctx2 := ctx
	ctx2.DB = "db-2"
	if m.Next(ctx2) == a {
		t.Error("different databases produced identical deltas")
	}
	// A different seed diverges.
	ctx3 := ctx
	ctx3.Seed = 8
	if m.Next(ctx3) == a {
		t.Error("different seeds produced identical deltas")
	}
}

func TestDiskModelGrowsFromPrev(t *testing.T) {
	m := testDiskModel(false)
	v := 50.0
	for i := 1; i <= 100; i++ {
		v = m.Next(EvalContext{
			DB:      "x",
			Created: monday,
			Now:     monday.Add(time.Duration(i) * 20 * time.Minute),
			Prev:    v,
			MaxGB:   1000,
			Seed:    1,
		})
	}
	// 100 steps at ~0.05GB each: roughly +5GB.
	if v < 52 || v > 58 {
		t.Errorf("usage after 100 steps = %v, want ~55", v)
	}
}

func TestDiskModelClamps(t *testing.T) {
	m := testDiskModel(false)
	if v := m.Next(EvalContext{DB: "x", Created: monday, Now: monday.Add(time.Hour), Prev: 999.99, MaxGB: 1000, Seed: 1}); v > 1000 {
		t.Errorf("exceeded max: %v", v)
	}
	// Strong negative cell never drives below zero.
	neg := NewHourlyNormal()
	neg.Set(HourBucket{Hour: 1}, NormalParam{Mean: -50, Sigma: 1})
	m2 := &DiskUsageModel{Steady: neg, ReportInterval: 20 * time.Minute}
	if v := m2.Next(EvalContext{DB: "x", Created: monday, Now: monday.Add(time.Hour), Prev: 10, Seed: 1}); v < 0 {
		t.Errorf("negative usage: %v", v)
	}
}

func TestInitialGrowthSubsetSelection(t *testing.T) {
	m := testDiskModel(true)
	m.Initial = &InitialGrowthModel{
		Probability: 0.3,
		Duration:    30 * time.Minute,
		Bins:        []GrowthBin{{LoGB: 100, HiGB: 200}},
	}
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if m.hasInitialGrowth(newDBKey(1, dbName(i))) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.04 {
		t.Errorf("initial-growth fraction = %v, want ~0.3", frac)
	}
	// Selection is stable per database.
	for i := 0; i < 50; i++ {
		if m.hasInitialGrowth(newDBKey(1, "db-7")) != m.hasInitialGrowth(newDBKey(1, "db-7")) {
			t.Fatal("selection not stable")
		}
	}
}

func dbName(i int) string {
	return "db-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))
}

func TestInitialGrowthAddsLoad(t *testing.T) {
	m := testDiskModel(true)
	m.Initial = &InitialGrowthModel{
		Probability: 1, // every database
		Duration:    30 * time.Minute,
		Bins:        []GrowthBin{{LoGB: 300, HiGB: 300}},
	}
	// First report at +20min is inside the window; growth should include
	// a share of the 300GB.
	v := m.Next(EvalContext{DB: "x", Created: monday, Now: monday.Add(20 * time.Minute), Prev: 0, MaxGB: 5000, Seed: 1})
	if v < 100 {
		t.Errorf("initial growth share = %v, want >= 100 (300GB over <=2 reports)", v)
	}
	// After the window the steady rate resumes.
	d := m.Next(EvalContext{DB: "x", Created: monday, Now: monday.Add(2 * time.Hour), Prev: 300, MaxGB: 5000, Seed: 1}) - 300
	if d > 1 {
		t.Errorf("post-window delta = %v, want steady-scale", d)
	}
}

func TestRapidGrowthSpikeAndDrop(t *testing.T) {
	m := testDiskModel(true)
	m.Rapid = &RapidGrowthModel{
		Probability:      1,
		SteadyDur:        20 * time.Hour,
		IncreaseDur:      time.Hour,
		SteadyBetweenDur: 2 * time.Hour,
		DecreaseDur:      time.Hour,
		IncreaseBins:     []GrowthBin{{LoGB: 90, HiGB: 90}},
	}
	// Walk a full cycle and check the spike comes and goes.
	v := 100.0
	peak, final := v, v
	for i := 1; i <= 72; i++ { // 24h at 20-min steps
		v = m.Next(EvalContext{
			DB:      "etl",
			Created: monday,
			Now:     monday.Add(time.Duration(i) * 20 * time.Minute),
			Prev:    v,
			MaxGB:   5000,
			Seed:    3,
		})
		if v > peak {
			peak = v
		}
	}
	final = v
	if peak < 180 {
		t.Errorf("peak = %v, want >= 180 (90GB spike on 100GB base)", peak)
	}
	// After the decrease the spike should be mostly returned (steady
	// growth continues, so allow drift).
	if final > 130 {
		t.Errorf("final = %v, spike not returned", final)
	}
}

func TestMemoryModelWarmsTowardTarget(t *testing.T) {
	target := NewHourlyNormal()
	for w := 0; w < 2; w++ {
		for h := 0; h < 24; h++ {
			target.Set(HourBucket{Weekend: w == 1, Hour: h}, NormalParam{Mean: 10, Sigma: 0})
		}
	}
	m := &MemoryModel{Target: target, WarmRate: 0.5, ColdStartGB: 1, ReportInterval: 20 * time.Minute}
	v := 0.0 // cold
	for i := 1; i <= 20; i++ {
		v = m.Next(EvalContext{DB: "x", Created: monday, Now: monday.Add(time.Duration(i) * 20 * time.Minute), Prev: v, MaxGB: 100, Seed: 1})
	}
	if math.Abs(v-10) > 0.5 {
		t.Errorf("warmed value = %v, want ~10", v)
	}
}
