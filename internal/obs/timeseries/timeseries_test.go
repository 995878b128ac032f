package timeseries

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/simclock"
)

func TestSeriesRingAndSummary(t *testing.T) {
	s := NewStore(time.Minute, 4).Series("x")
	for i := 1; i <= 6; i++ {
		s.Push(float64(i))
	}
	// Capacity 4, six pushes: the ring keeps 3..6 and reports 2 dropped.
	got := s.Values()
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	if s.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", s.Dropped())
	}
	sum := s.Summary()
	if sum.Count != 4 || sum.Min != 3 || sum.Max != 6 {
		t.Errorf("summary = %+v", sum)
	}
	if math.Abs(sum.Mean-4.5) > 1e-12 {
		t.Errorf("mean = %g, want 4.5", sum.Mean)
	}
	if sum.P50 < 4 || sum.P50 > 5 {
		t.Errorf("p50 = %g, want within [4,5]", sum.P50)
	}
}

func TestStoreFileRoundTrip(t *testing.T) {
	st := NewStore(10*time.Minute, 16)
	st.SetStart(time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC))
	a := st.Series("util.cores/node-0")
	for i := 0; i < 5; i++ {
		a.Push(0.1 * float64(i))
	}
	st.Series("cluster.services").Push(42)

	path := filepath.Join(t.TempDir(), "run.series.json")
	if err := st.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if back.Resolution() != 10*time.Minute {
		t.Errorf("resolution = %v", back.Resolution())
	}
	names := back.Names()
	if len(names) != 2 || names[0] != "cluster.services" || names[1] != "util.cores/node-0" {
		t.Errorf("names = %v", names)
	}
	vals := back.Series("util.cores/node-0").Values()
	if len(vals) != 5 || vals[4] != 0.4 {
		t.Errorf("values = %v", vals)
	}
}

func TestPathFor(t *testing.T) {
	cases := map[string]string{
		"run.jsonl.gz": "run.series.json",
		"run.jsonl":    "run.series.json",
		"/tmp/x.jsonl": "/tmp/x.series.json",
		"bare":         "bare.series.json",
	}
	for in, want := range cases {
		if got := PathFor(in); got != want {
			t.Errorf("PathFor(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSeriesLastAndTailSum(t *testing.T) {
	s := NewStore(time.Minute, 4).Series("x")
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series reported a value")
	}
	if sum, n := s.TailSum(3); sum != 0 || n != 0 {
		t.Fatalf("TailSum on empty = (%v, %d)", sum, n)
	}
	for i := 1; i <= 6; i++ {
		s.Push(float64(i))
	}
	if v, ok := s.Last(); !ok || v != 6 {
		t.Fatalf("Last = (%v, %v), want (6, true)", v, ok)
	}
	// Ring holds 3..6 after wrap-around.
	if sum, n := s.TailSum(2); sum != 11 || n != 2 {
		t.Fatalf("TailSum(2) = (%v, %d), want (11, 2)", sum, n)
	}
	if sum, n := s.TailSum(10); sum != 18 || n != 4 {
		t.Fatalf("TailSum(10) = (%v, %d), want (18, 4)", sum, n)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.TailSum(4) }); allocs != 0 {
		t.Fatalf("TailSum allocates: %v allocs/op", allocs)
	}
}

func TestStoreLookup(t *testing.T) {
	st := NewStore(time.Minute, 4)
	if _, ok := st.Lookup("missing"); ok {
		t.Fatal("Lookup created or found a missing series")
	}
	if len(st.Names()) != 0 {
		t.Fatalf("Lookup polluted the store: %v", st.Names())
	}
	st.Series("present").Push(1)
	if s, ok := st.Lookup("present"); !ok || s.Len() != 1 {
		t.Fatal("Lookup missed an existing series")
	}
}

// TestCollectorSampleAllocatesNothing checks that once the first sample
// has resolved every series, sampling pushes through the handles: the
// same series get the same values, with no name formatting or allocation.
func TestCollectorSampleAllocatesNothing(t *testing.T) {
	start := time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)
	cluster := fabric.NewCluster(simclock.New(start), 4, map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}, fabric.DefaultConfig())
	svc, err := cluster.CreateService("db", 2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(10*time.Minute, 4)
	col := NewCollector(cluster, st)
	col.Sample(start)
	if allocs := testing.AllocsPerRun(100, func() { col.Sample(start) }); allocs != 0 {
		t.Fatalf("warmed Sample allocates: %v allocs/op", allocs)
	}

	// 4 nodes x (3 enforced utilizations + replicas) + 5 cluster series.
	if got := len(st.Names()); got != 4*4+5 {
		t.Errorf("series = %d, want %d: %v", got, 4*4+5, st.Names())
	}
	host := svc.Replicas[0].Node.ID
	if v, _ := st.Series(ReplicaSeriesName(host)).Last(); v != 1 {
		t.Errorf("%s = %v, want 1", ReplicaSeriesName(host), v)
	}
	if v, _ := st.Series(UtilSeriesName(fabric.MetricCores.String(), host)).Last(); v != 8/(64*cluster.Density()) {
		t.Errorf("%s = %v", UtilSeriesName(fabric.MetricCores.String(), host), v)
	}
	if v, _ := st.Series(SeriesServices).Last(); v != 1 {
		t.Errorf("%s = %v, want 1", SeriesServices, v)
	}
}
