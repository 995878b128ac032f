package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/simclock"
	"toto/internal/slo"
)

var start = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func editionFromLabel(svc *fabric.Service) slo.Edition {
	if svc.Labels["edition"] == slo.PremiumBC.String() {
		return slo.PremiumBC
	}
	return slo.StandardGP
}

func newEnv(t *testing.T, nodes int) (*fabric.Cluster, *Recorder) {
	t.Helper()
	clock := simclock.New(start)
	cluster := fabric.NewCluster(clock, nodes, map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}, fabric.DefaultConfig())
	rec := NewRecorder(clock, cluster, time.Hour, 10*time.Minute, editionFromLabel)
	return cluster, rec
}

func TestPeriodicSampling(t *testing.T) {
	cluster, rec := newEnv(t, 4)
	cluster.CreateService("a", 1, 4, nil)
	rec.Start(3 * time.Hour)
	rec.clock.RunUntil(start.Add(3 * time.Hour))
	rec.Stop()

	// Immediate sample + one per hour, each series sized exactly by Start.
	if got := len(rec.Samples()); got != 4 {
		t.Errorf("samples = %d, want 4", got)
	}
	if s, ns := rec.Samples(), rec.NodeSamples(); cap(s) != len(s) || cap(ns) != len(ns) {
		t.Errorf("cap/len: samples %d/%d, node samples %d/%d", cap(s), len(s), cap(ns), len(ns))
	}
	if rec.Samples()[0].ReservedCores != 4 {
		t.Errorf("first sample cores = %v", rec.Samples()[0].ReservedCores)
	}
	// Node samples: 4 nodes x (1 + 18 ticks).
	if got := len(rec.NodeSamples()); got != 4*19 {
		t.Errorf("node samples = %d, want %d", got, 4*19)
	}
	// After Stop no more samples accrue.
	n := len(rec.Samples())
	rec.clock.RunUntil(start.Add(6 * time.Hour))
	if len(rec.Samples()) != n {
		t.Error("sampling continued after Stop")
	}
}

func TestFailoverRecording(t *testing.T) {
	cluster, rec := newEnv(t, 5)
	svc, _ := cluster.CreateService("bc", 4, 6, map[string]string{"edition": "Premium/BC"})
	cluster.ReportLoad(svc.Replicas[1], fabric.MetricDiskGB, 123)
	// Move a secondary via the admin API.
	var target string
	hosts := map[string]bool{}
	for _, r := range svc.Replicas {
		hosts[r.Node.ID] = true
	}
	for _, n := range cluster.Nodes() {
		if !hosts[n.ID] {
			target = n.ID
		}
	}
	if err := cluster.ForceMove(svc.Replicas[1].ID, target); err != nil {
		t.Fatal(err)
	}
	if len(rec.Failovers()) != 1 {
		t.Fatalf("failovers = %d", len(rec.Failovers()))
	}
	f := rec.Failovers()[0]
	if f.Edition != slo.PremiumBC || f.MovedCores != 6 || f.MovedDiskGB != 123 || f.To != target {
		t.Errorf("record = %+v", f)
	}
	bc := slo.PremiumBC
	if rec.FailedOverCores(&bc) != 6 {
		t.Errorf("BC failed-over cores = %v", rec.FailedOverCores(&bc))
	}
	gp := slo.StandardGP
	if rec.FailedOverCores(&gp) != 0 {
		t.Errorf("GP failed-over cores = %v", rec.FailedOverCores(&gp))
	}
	if rec.FailedOverCores(nil) != 6 {
		t.Errorf("total failed-over cores = %v", rec.FailedOverCores(nil))
	}
}

func TestRedirectSeriesCumulative(t *testing.T) {
	_, rec := newEnv(t, 4)
	record := func(h int) {
		rec.redirects = append(rec.redirects, RedirectRecord{Time: start.Add(time.Duration(h) * time.Hour)})
	}
	record(1)
	record(1)
	record(3)
	record(99) // beyond the window: dropped
	series := rec.RedirectsByHour(start, 5)
	want := []int{0, 2, 2, 3, 3}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("series = %v, want %v", series, want)
		}
	}
}

func TestRecordRedirect(t *testing.T) {
	_, rec := newEnv(t, 4)
	rec.RecordRedirect("db9", slo.PremiumBC, "BC_Gen5_24", 96)
	if len(rec.Redirects()) != 1 {
		t.Fatal("redirect not recorded")
	}
	r := rec.Redirects()[0]
	if r.DB != "db9" || r.Cores != 96 || r.SLOName != "BC_Gen5_24" {
		t.Errorf("record = %+v", r)
	}
}

func TestChurnCountersResetAtStart(t *testing.T) {
	cluster, rec := newEnv(t, 4)
	cluster.CreateService("boot", 1, 2, map[string]string{"edition": "Standard/GP"})
	rec.Start(0) // resets counters: bootstrap creates excluded
	cluster.CreateService("churn", 1, 2, map[string]string{"edition": "Standard/GP"})
	cluster.DropService("boot")
	if got := rec.CreatesByEdition()[slo.StandardGP]; got != 1 {
		t.Errorf("creates = %d, want 1 (bootstrap excluded)", got)
	}
	if got := rec.DropsByEdition()[slo.StandardGP]; got != 1 {
		t.Errorf("drops = %d", got)
	}
}

func TestCSVExport(t *testing.T) {
	cluster, rec := newEnv(t, 4)
	cluster.CreateService("a", 1, 4, map[string]string{"edition": "Standard/GP"})
	rec.Start(2 * time.Hour)
	rec.clock.RunUntil(start.Add(2 * time.Hour))

	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, rec.Samples()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rec.Samples()) {
		t.Errorf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time,reserved_cores") {
		t.Errorf("header = %q", lines[0])
	}

	buf.Reset()
	if err := WriteFailoversCSV(&buf, rec.Failovers()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "moved_cores") {
		t.Error("failover CSV missing header")
	}
}
