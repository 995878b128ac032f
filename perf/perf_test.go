package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"toto/internal/core"
)

// TestMain lets measure re-execute the test binary as a child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestShortWorkloadsRepeat(t *testing.T) {
	set := core.DefaultModels().Set
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				rep, err := w.prepare(set, 0, true, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				out, err := rep()
				if err != nil {
					t.Fatal(err)
				}
				if err := out.check(); err != nil {
					t.Fatal(err)
				}
				d, _, err := out.digest()
				if err != nil {
					t.Fatal(err)
				}
				digests = append(digests, d)
			}
			if digests[0] != digests[1] {
				t.Fatalf("two runs of the short workload digest %s and %s", digests[0], digests[1])
			}
		})
	}
}

// TestEveryBenchmarkMetricIsProduced runs one short workload through
// child processes, traced and untraced, and checks that the metrics it
// reports are exactly the ones BENCHMARK.json names.
func TestEveryBenchmarkMetricIsProduced(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var named, defined []string
	for _, m := range spec.EndToEnd {
		named = append(named, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range spec.PerLayer {
		named = append(named, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defined = append(defined, m.Name+" "+m.Unit+" "+m.Better)
	}
	slices.Sort(named)
	slices.Sort(defined)
	if !slices.Equal(named, defined) {
		t.Fatalf("BENCHMARK.json names\n%v\nthe benchmark defines\n%v", named, defined)
	}

	w, err := findWorkload("grayfail-journaled")
	if err != nil {
		t.Fatal(err)
	}
	res := measure(plan{w: w, short: true, measured: 1, endToEnd: true, traced: true})
	if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
		t.Fatalf("short run: correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Errors)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		s, ok := res.Metrics[m.Name]
		if !ok || s.N == 0 {
			t.Errorf("metric %s not produced", m.Name)
		}
		if s.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, s.Unit, m.Unit)
		}
	}
	cpuTotal := 0.0
	for _, l := range cpuLayers {
		cpuTotal += res.Metrics["cpu."+l].Median
	}
	if math.Abs(cpuTotal-100) > 1e-6 {
		t.Errorf("cpu.* shares sum to %v, want 100", cpuTotal)
	}
	for _, name := range []string{"count.traffic_arrivals", "count.journal_events", "count.traces_kept", "journal.close_s", "sim_days_per_s"} {
		if res.Metrics[name].Median <= 0 {
			t.Errorf("%s = %v, want > 0 on a journaled traffic run", name, res.Metrics[name].Median)
		}
	}

	data, err := resultLine([]*workloadResult{res})
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 2 || len(line.Metrics) != len(defined) {
		t.Fatalf("result line: %s", data)
	}
}

// TestPeakRSSIsTheRepetitions checks that peak_rss_mb measures the
// repetition rather than the whole child process, whose high-water mark
// the reference kernel sets: two simulations at once (the short fleet)
// must peak well above one (the short campaign).
func TestPeakRSSIsTheRepetitions(t *testing.T) {
	peak := map[string]float64{}
	for _, name := range []string{"campaign", "fleet"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		res := measure(plan{w: w, short: true, measured: 1, endToEnd: true})
		if !res.Correct {
			t.Fatalf("short %s: %v", name, res.Errors)
		}
		peak[name] = res.Metrics["peak_rss_mb"].Median
	}
	if peak["fleet"] < peak["campaign"]+5 {
		t.Fatalf("peak_rss_mb: short fleet %.1f MB, short campaign %.1f MB; want the fleet's two simulations at least 5 MB above one",
			peak["fleet"], peak["campaign"])
	}
}

// rawProfile is `go tool pprof -raw` output in miniature: samples list
// location IDs leaf first, and a location's extra lines are the callers
// its first function was inlined into.
const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 3 4
          1   10000000: 5 6
          2   20000000: 7 3 4
          1   10000000: 8 9 10
          1   10000000: 11
Locations
     1: 0x4f7ab9 M=1 encoding/xml.(*Decoder).unmarshal /go/src/encoding/xml/read.go:470:0 s=321
     2: 0x505ef3 M=1 toto/internal/models.UnmarshalModelSetXML /src/internal/models/xml.go:357:0 s=355
             toto/internal/rgmanager.(*Manager).Refresh /src/internal/rgmanager/rgmanager.go:125:0 s=114
     3: 0x5c7ed9 M=1 toto/internal/core.(*Orchestrator).Start.func1 /src/internal/core/orchestrator.go:270:0 s=266
     4: 0x5c2caf M=1 toto/internal/simclock.(*Clock).RunUntil /src/internal/simclock/simclock.go:200:0 s=190
             toto/internal/core.Run /src/internal/core/experiment.go:161:0 s=132
     5: 0x4a0000 M=1 runtime.scanobject /go/src/runtime/mgcmark.go:1400:0 s=1300
     6: 0x4a1000 M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1300:0 s=1290
     7: 0x5d0000 M=1 slices.SortFunc[go.shape.[]*toto/internal/fabric.Service,go.shape.struct { x int }] /go/src/slices/sort.go:20:0 s=10
     8: 0x5e0000 M=1 toto/internal/fabric.(*plb).placeReplica /src/internal/fabric/plb.go:320:0 s=250
     9: 0x5e1000 M=1 toto/internal/controlplane.(*ControlPlane).CreateDatabaseSeeded /src/internal/controlplane/controlplane.go:100:0 s=90
    10: 0x5e2000 M=1 toto/internal/core.(*Orchestrator).BootstrapPopulation /src/internal/core/orchestrator.go:467:0 s=427
             toto/internal/core.Run /src/internal/core/experiment.go:157:0 s=132
    11: 0x7fc16d6cb000 M=2
Mappings
1: 0x400000/0x607000/0x0 /tmp/exe [FN]
`

func TestAttributeCannedProfile(t *testing.T) {
	got, err := attribute(rawProfile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		// xml parsing charges to models, its innermost toto caller.
		"cpu.models": 37.5,
		// the sort's type arguments name fabric, but the sort runs for core.
		"cpu.core":       25,
		"cpu.fabric":     12.5,
		"cpu.fabric.plb": 12.5,
		"cpu.gc":         12.5,
		"cpu.other":      12.5,
		// the refresh tick owns the parse and the sort; the bootstrap
		// create runs outside any clock callback.
		"owner.core":     62.5,
		"owner.protocol": 12.5,
		"owner.other":    25,
	}
	for _, m := range perLayer {
		if m.Unit != "%" {
			continue
		}
		if v, ok := got[m.Name]; !ok || math.Abs(v-want[m.Name]) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", m.Name, v, ok, want[m.Name])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"toto/internal/obs/journal.(*Writer).Append":             "journal",
		"toto/internal/obs.(*Obs).Span":                          "obs",
		"toto/internal/fabric.sortBy[go.shape.*toto/internal/x]": "fabric",
		"runtime.mallocgc":                                       "",
		"main.main":                                              "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestNormalization(t *testing.T) {
	// A set whose kernel took R0 leaves times as measured.
	c := &childReport{Ref1S: 0.9 * R0, Ref2S: 1.3 * R0, SetupS: 0.4, WallS: 3, CPUS: 5, SimDays: 6,
		AllocBytes: 600e6, PeakRSSKB: 2048, TrainS: 0.2, CellS: []float64{1, 2, 4}, Speedup: 1.5}
	e := endToEndValues(c, R0)
	for name, want := range map[string]float64{
		"setup_s":              0.4,
		"sim_days_per_s":       2,
		"cpu_s_per_sim_day":    5.0 / 6,
		"alloc_mb_per_sim_day": 100,
		"peak_rss_mb":          2.097152,
	} {
		if math.Abs(e[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, e[name], want)
		}
	}
	// A kernel at twice R0 means a machine half as fast as the reference:
	// normalized times halve, raw ones do not.
	l := layerValues(c, 2*R0)
	for name, want := range map[string]float64{
		"setup.train_s":      0.1,
		"fleet.cell_s_p50":   1,
		"fleet.cell_s_max":   2,
		"fleet.speedup":      1.5,
		"bench.ref_s":        1.1 * R0,
		"raw.sim_days_per_s": 2,
	} {
		if math.Abs(l[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, l[name], want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and (…, [5, 1, 3], n=4)
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := func(xs ...float64) summary { return summarize("s", xs) }
	for _, c := range []struct {
		name   string
		a, b   summary
		better string
		want   string
	}{
		{"within bound", s(10, 10.1, 10.2), s(10.3, 10.4, 10.5), "lower", "unchanged"},
		{"slower beyond bound", s(10, 10.1, 10.2), s(12, 12.1, 12.2), "lower", "regressed"},
		{"faster beyond bound", s(10, 10.1, 10.2), s(8, 8.1, 8.2), "lower", "improved"},
		{"higher is better", s(10, 10.1, 10.2), s(8, 8.1, 8.2), "higher", "regressed"},
		{"spread wider than bound", s(8, 10, 12), s(8.5, 10.5, 12.5), "lower", "unresolved"},
		{"wide but every run better", s(10, 11, 12), s(7, 8, 9.9), "lower", "improved"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
