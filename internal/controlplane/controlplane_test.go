package controlplane

import (
	"errors"
	"slices"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/simclock"
	"toto/internal/slo"
)

var start = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func newCP(t *testing.T, nodes int) *ControlPlane {
	t.Helper()
	cfg := fabric.DefaultConfig()
	cluster := fabric.NewCluster(simclock.New(start), nodes, map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}, cfg)
	return New(cluster, slo.Gen5())
}

func TestCreateStampsLabels(t *testing.T) {
	cp := newCP(t, 5)
	svc, err := cp.CreateDatabase("db1", "BC_Gen5_4")
	if err != nil {
		t.Fatal(err)
	}
	if svc.Labels[LabelEdition] != "Premium/BC" || svc.Labels[LabelSLO] != "BC_Gen5_4" {
		t.Errorf("labels = %v", svc.Labels)
	}
	if svc.ReplicaCount != 4 || svc.ReservedCoresPerReplica != 4 {
		t.Errorf("shape = %d x %v", svc.ReplicaCount, svc.ReservedCoresPerReplica)
	}
	e, err := ServiceEdition(svc)
	if err != nil || e != slo.PremiumBC {
		t.Errorf("edition = %v, %v", e, err)
	}
	s, err := cp.ServiceSLO(svc)
	if err != nil || s.Name != "BC_Gen5_4" {
		t.Errorf("slo = %v, %v", s, err)
	}
}

func TestCreateUnknownSLO(t *testing.T) {
	cp := newCP(t, 2)
	if _, err := cp.CreateDatabase("db1", "nope"); err == nil {
		t.Error("unknown SLO accepted")
	}
}

func TestRedirectOnExhaustion(t *testing.T) {
	cp := newCP(t, 1) // 64 cores
	var redirected []string
	cp.OnRedirect(func(db string, s slo.SLO) { redirected = append(redirected, db) })

	if _, err := cp.CreateDatabase("a", "GP_Gen5_40"); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateDatabase("b", "GP_Gen5_40"); !errors.Is(err, ErrRedirected) {
		t.Fatalf("err = %v, want ErrRedirected", err)
	}
	if len(redirected) != 1 || redirected[0] != "b" {
		t.Errorf("redirect observer saw %v", redirected)
	}
	if live := cp.LiveDatabases(nil, nil); len(live) != 1 || live[0] != "a" {
		t.Errorf("live databases = %v, want [a]", live)
	}
}

func TestSeededCreateIsDiskAware(t *testing.T) {
	cp := newCP(t, 2)
	// Fill one node's disk.
	fill, _ := cp.CreateDatabase("fill", "GP_Gen5_2")
	cp.cluster.ReportLoad(fill.Replicas[0], fabric.MetricDiskGB, 8000)
	full := fill.Replicas[0].Node

	// A seeded single-replica GP create with a large known tempDB load
	// must land on the other node.
	svc, err := cp.CreateDatabaseSeeded("big", "GP_Gen5_2", 60)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Replicas[0].Node == full {
		t.Error("seeded create landed on the disk-full node")
	}
	// BC needs 4 distinct nodes; only 2 exist, so it must redirect.
	if _, err := cp.CreateDatabaseSeeded("bc", "BC_Gen5_2", 100); !errors.Is(err, ErrRedirected) {
		t.Errorf("BC on a 2-node ring: err = %v, want ErrRedirected", err)
	}
}

func TestSeededCreateCapsAtSLOMax(t *testing.T) {
	cp := newCP(t, 5)
	svc, err := cp.CreateDatabaseSeeded("db", "GP_Gen5_2", 1e9)
	if err != nil {
		t.Fatal(err)
	}
	gp2, _ := slo.Gen5().Lookup("GP_Gen5_2")
	if got := svc.Replicas[0].Loads[fabric.MetricDiskGB]; got != gp2.MaxDiskGB {
		t.Errorf("seeded load = %v, want SLO max %v", got, gp2.MaxDiskGB)
	}
}

func TestDropDatabase(t *testing.T) {
	cp := newCP(t, 3)
	cp.CreateDatabase("db1", "GP_Gen5_2")
	if err := cp.DropDatabase("db1"); err != nil {
		t.Fatal(err)
	}
	if err := cp.DropDatabase("db1"); err == nil {
		t.Error("double drop accepted")
	}
	if live := cp.LiveDatabases(nil, nil); len(live) != 0 {
		t.Errorf("live databases after drop = %v", live)
	}
}

// TestLiveDatabasesFilter checks that LiveDatabases appends each
// edition's live names, in name order and without dropped databases, to
// the caller's buffer, and that a warm buffer takes them without
// allocating.
func TestLiveDatabasesFilter(t *testing.T) {
	cp := newCP(t, 6)
	for _, c := range [][2]string{{"gp-b", "GP_Gen5_2"}, {"bc-a", "BC_Gen5_2"}, {"gp-d", "GP_Gen5_2"}, {"gp-a", "GP_Gen5_2"}, {"bc-c", "BC_Gen5_2"}, {"gp-c", "GP_Gen5_2"}} {
		if _, err := cp.CreateDatabase(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.DropDatabase("gp-d"); err != nil {
		t.Fatal(err)
	}
	gp, bc := slo.StandardGP, slo.PremiumBC
	cases := []struct {
		edition *slo.Edition
		want    []string
	}{
		{nil, []string{"bc-a", "bc-c", "gp-a", "gp-b", "gp-c"}},
		{&gp, []string{"gp-a", "gp-b", "gp-c"}},
		{&bc, []string{"bc-a", "bc-c"}},
	}
	buf := make([]string, 0, 8)
	for _, c := range cases {
		buf = cp.LiveDatabases(buf[:0], c.edition)
		if !slices.Equal(buf, c.want) {
			t.Errorf("edition %v: live = %v, want %v", c.edition, buf, c.want)
		}
		if allocs := testing.AllocsPerRun(50, func() { buf = cp.LiveDatabases(buf[:0], c.edition) }); allocs != 0 {
			t.Errorf("edition %v: warm buffer allocates %v times", c.edition, allocs)
		}
	}
	if got := cp.LiveDatabases([]string{"kept"}, &bc); !slices.Equal(got, []string{"kept", "bc-a", "bc-c"}) {
		t.Errorf("append to a non-empty buffer = %v", got)
	}
}

func TestServiceEditionUnknownLabel(t *testing.T) {
	svc := &fabric.Service{Name: "x", Labels: map[string]string{LabelEdition: "weird"}}
	if _, err := ServiceEdition(svc); err == nil {
		t.Error("unknown edition label accepted")
	}
}

func TestScaleDatabase(t *testing.T) {
	cp := newCP(t, 5)
	cp.CreateDatabase("db", "GP_Gen5_2")
	out, next, err := cp.ScaleDatabase("db", "GP_Gen5_8")
	if err != nil {
		t.Fatal(err)
	}
	if out.OldCores != 2 || out.NewCores != 8 || next.Name != "GP_Gen5_8" {
		t.Errorf("outcome = %+v, %v", out, next)
	}
	svc, _ := cp.cluster.Service("db")
	if svc.Labels[LabelSLO] != "GP_Gen5_8" {
		t.Errorf("label = %q", svc.Labels[LabelSLO])
	}
	if cp.cluster.ReservedCores() != 8 {
		t.Errorf("reserved = %v", cp.cluster.ReservedCores())
	}
}

func TestScaleDatabaseRejectsCrossEdition(t *testing.T) {
	cp := newCP(t, 5)
	cp.CreateDatabase("db", "GP_Gen5_2")
	if _, _, err := cp.ScaleDatabase("db", "BC_Gen5_4"); err == nil {
		t.Error("cross-edition scale accepted")
	}
	if _, _, err := cp.ScaleDatabase("db", "GPPOOL_Gen5_4"); err == nil {
		t.Error("singleton-to-pool scale accepted")
	}
	if _, _, err := cp.ScaleDatabase("db", "nope"); err == nil {
		t.Error("unknown SLO accepted")
	}
	if _, _, err := cp.ScaleDatabase("ghost", "GP_Gen5_4"); err == nil {
		t.Error("unknown database accepted")
	}
}
