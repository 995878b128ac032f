package trace

import (
	"math"
	"testing"
	"time"

	"toto/internal/slo"
	"toto/internal/stats"
)

func TestRegionTraceShape(t *testing.T) {
	r := GenerateRegion(DefaultRegionConfig(1))
	for _, e := range slo.Editions() {
		if len(r.Creates[e]) != 28*24 {
			t.Fatalf("%s creates length = %d", e, len(r.Creates[e]))
		}
	}

	// Paper finding 3 (§4.1.2): BC has significantly fewer creates and
	// drops than GP across all hours.
	gpTotal, bcTotal := 0, 0
	for h := range r.Creates[slo.StandardGP] {
		gpTotal += r.Creates[slo.StandardGP][h].Count
		bcTotal += r.Creates[slo.PremiumBC][h].Count
	}
	if bcTotal*5 > gpTotal {
		t.Errorf("BC creates (%d) not far below GP (%d)", bcTotal, gpTotal)
	}

	// Paper finding 2: more events on weekdays than weekends.
	var wd, we, wdN, weN float64
	for _, hc := range r.Creates[slo.StandardGP] {
		d := hc.Time.Weekday()
		if d == time.Saturday || d == time.Sunday {
			we += float64(hc.Count)
			weN++
		} else {
			wd += float64(hc.Count)
			wdN++
		}
	}
	if wd/wdN <= we/weN {
		t.Errorf("weekday mean %.1f not above weekend mean %.1f", wd/wdN, we/weN)
	}

	// Paper finding 1: hourly patterns — business hours above night.
	var day, night, dayN, nightN float64
	for _, hc := range r.Creates[slo.StandardGP] {
		h := hc.Time.Hour()
		switch {
		case h >= 10 && h <= 16:
			day += float64(hc.Count)
			dayN++
		case h <= 4:
			night += float64(hc.Count)
			nightN++
		}
	}
	if day/dayN <= night/nightN*1.3 {
		t.Errorf("business hours mean %.1f not clearly above night %.1f", day/dayN, night/nightN)
	}
}

func TestRegionDeterminism(t *testing.T) {
	a := GenerateRegion(DefaultRegionConfig(7))
	b := GenerateRegion(DefaultRegionConfig(7))
	for h := range a.Creates[slo.StandardGP] {
		if a.Creates[slo.StandardGP][h].Count != b.Creates[slo.StandardGP][h].Count {
			t.Fatal("same seed produced different traces")
		}
	}
	c := GenerateRegion(DefaultRegionConfig(8))
	same := 0
	for h := range a.Creates[slo.StandardGP] {
		if a.Creates[slo.StandardGP][h].Count == c.Creates[slo.StandardGP][h].Count {
			same++
		}
	}
	if same == len(a.Creates[slo.StandardGP]) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestNetCreatesPositiveOnGrowth(t *testing.T) {
	cfg := DefaultRegionConfig(2)
	cfg.DropFactor = 0.5
	r := GenerateRegion(cfg)
	total := 0
	for _, n := range r.NetCreates() {
		total += n
	}
	if total <= 0 {
		t.Errorf("net creates = %d with drop factor 0.5", total)
	}
}

func TestDiskTraceSteadyFraction(t *testing.T) {
	traces := GenerateDiskTraces(DefaultDiskTraceConfig(3))
	// ~99.8% of 20-minute deltas are steady-state (|delta| small).
	total, steady := 0, 0
	for _, tr := range traces {
		for _, d := range tr.AppendDeltas(nil, 20*time.Minute) {
			total++
			if math.Abs(d) <= 5 {
				steady++
			}
		}
	}
	frac := float64(steady) / float64(total)
	if frac < 0.99 || frac > 0.9999 {
		t.Errorf("steady fraction = %v, want ~0.998", frac)
	}
}

func TestDiskTraceClasses(t *testing.T) {
	cfg := DefaultDiskTraceConfig(4)
	traces := GenerateDiskTraces(cfg)
	counts := map[GrowthClass]int{}
	for _, tr := range traces {
		counts[tr.Class]++
		if len(tr.UsageGB) == 0 || tr.UsageGB[0] < 0 {
			t.Fatal("bad usage series")
		}
		for _, v := range tr.UsageGB {
			if v < 0 {
				t.Fatal("negative usage")
			}
		}
	}
	n := len(traces)
	if counts[ClassSteady] < n*8/10 {
		t.Errorf("steady class = %d of %d", counts[ClassSteady], n)
	}
	if counts[ClassInitialGrowth] == 0 || counts[ClassRapidGrowth] == 0 {
		t.Errorf("special classes missing: %v", counts)
	}
}

func TestInitialGrowthVisibleInFirstFiveMinutes(t *testing.T) {
	traces := GenerateDiskTraces(DefaultDiskTraceConfig(5))
	for _, tr := range traces {
		fiveMin := tr.UsageGB[1] - tr.UsageGB[0] // 5-minute interval
		if tr.Class == ClassInitialGrowth && fiveMin <= 8 {
			t.Errorf("%s labeled initial-growth but first 5min delta = %v", tr.DB, fiveMin)
		}
		if tr.Class == ClassSteady && fiveMin > 12 {
			t.Errorf("%s labeled steady but first 5min delta = %v", tr.DB, fiveMin)
		}
	}
}

func TestRapidGrowthCycles(t *testing.T) {
	traces := GenerateDiskTraces(DefaultDiskTraceConfig(6))
	for _, tr := range traces {
		if tr.Class != ClassRapidGrowth {
			continue
		}
		// A daily spike at midnight must be visible: the max hourly gain
		// around hour 0 should far exceed the steady rate.
		deltas := tr.AppendDeltas(nil, time.Hour)
		maxGain := stats.Max(deltas)
		if maxGain < 10 {
			t.Errorf("%s rapid-growth trace has max hourly delta %v", tr.DB, maxGain)
		}
		// And a matching loss.
		if stats.Min(deltas) > -10 {
			t.Errorf("%s rapid-growth trace has no drop (min %v)", tr.DB, stats.Min(deltas))
		}
		return // checking one is enough
	}
}

func TestDeltasRediscretization(t *testing.T) {
	tr := DBTrace{
		Interval: 5 * time.Minute,
		UsageGB:  []float64{0, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	d5 := tr.AppendDeltas(nil, 5*time.Minute)
	if len(d5) != 8 || d5[0] != 1 {
		t.Errorf("5-minute deltas = %v", d5)
	}
	d20 := tr.AppendDeltas(nil, 20*time.Minute)
	if len(d20) != 2 || d20[0] != 4 || d20[1] != 4 {
		t.Errorf("20-minute deltas = %v", d20)
	}
}

func TestDiskTracesRejectNonPositiveLength(t *testing.T) {
	for _, days := range []int{0, -1} {
		cfg := DefaultDiskTraceConfig(1)
		cfg.Days = days
		func() {
			defer func() {
				if r := recover(); r != "trace: non-positive trace length" {
					t.Errorf("Days %d: panic %v, want the non-positive trace length check", days, r)
				}
			}()
			GenerateDiskTraces(cfg)
		}()
	}
}

func TestUtilizationPopulationSkew(t *testing.T) {
	pts := GenerateUtilization(7, 5000)
	lowCPU := 0
	for _, p := range pts {
		if p.CPUPercent < 0 || p.CPUPercent > 100 || p.MemoryPercent < 0 || p.MemoryPercent > 100 {
			t.Fatalf("utilization out of range: %+v", p)
		}
		if p.CPUPercent < 20 {
			lowCPU++
		}
	}
	// §2: "a large proportion of databases have low CPU and memory
	// utilization".
	if frac := float64(lowCPU) / float64(len(pts)); frac < 0.45 {
		t.Errorf("low-CPU fraction = %v", frac)
	}
}

func TestLocalStoreFractions(t *testing.T) {
	days := LocalStoreFractions(1, 40, 7, 0.25, 0.05)
	if len(days) != 7 || len(days[0]) != 40 {
		t.Fatalf("shape = %dx%d", len(days), len(days[0]))
	}
	var all []float64
	for _, d := range days {
		for _, v := range d {
			if v < 0 || v > 1 {
				t.Fatalf("fraction %v out of [0,1]", v)
			}
			all = append(all, v)
		}
	}
	if m := stats.Mean(all); math.Abs(m-0.25) > 0.03 {
		t.Errorf("mean fraction = %v, want ~0.25", m)
	}
	// Per-cluster demographics are sticky day to day.
	if corr, err := stats.Correlation(days[0], days[1]); err != nil || corr < 0.7 {
		t.Errorf("day-to-day correlation = %v, %v", corr, err)
	}
}
