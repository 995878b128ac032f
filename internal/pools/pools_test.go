package pools

import (
	"errors"
	"testing"
	"time"

	"toto/internal/controlplane"
	"toto/internal/fabric"
	"toto/internal/simclock"
	"toto/internal/slo"
)

var start = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func newMgr(t *testing.T, nodes int) (*Manager, *controlplane.ControlPlane) {
	t.Helper()
	cluster := fabric.NewCluster(simclock.New(start), nodes, map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}, fabric.DefaultConfig())
	cp := controlplane.New(cluster, slo.Gen5())
	return NewManager(cp), cp
}

func TestCreatePoolReservesCores(t *testing.T) {
	m, cp := newMgr(t, 5)
	p, err := m.CreatePool("pool-1", "GPPOOL_Gen5_8")
	if err != nil {
		t.Fatal(err)
	}
	if p.SLO.Cores != 8 || !p.SLO.Pool {
		t.Errorf("pool SLO = %+v", p.SLO)
	}
	if cp.Cluster().ReservedCores() != 8 {
		t.Errorf("reserved = %v", cp.Cluster().ReservedCores())
	}
	svc, _ := cp.Cluster().Service("pool-1")
	if !IsPoolService(svc) {
		t.Error("pool service not labeled")
	}
}

func TestCreatePoolRejectsSingletonSLO(t *testing.T) {
	m, _ := newMgr(t, 5)
	if _, err := m.CreatePool("p", "GP_Gen5_8"); err == nil {
		t.Error("singleton SLO accepted as pool")
	}
	if _, err := m.CreatePool("p", "nope"); err == nil {
		t.Error("unknown SLO accepted")
	}
}

func TestDuplicatePool(t *testing.T) {
	m, _ := newMgr(t, 5)
	m.CreatePool("p", "GPPOOL_Gen5_4")
	if _, err := m.CreatePool("p", "GPPOOL_Gen5_4"); err == nil {
		t.Error("duplicate pool accepted")
	}
}

func TestMembershipLifecycle(t *testing.T) {
	m, _ := newMgr(t, 5)
	p, _ := m.CreatePool("p", "GPPOOL_Gen5_4")
	if err := m.AddMember("p", "db1", 32, start); err != nil {
		t.Fatal(err)
	}
	if err := m.AddMember("p", "db2", 32, start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(p.Members()) != 2 || len(m.memberPool) != 2 {
		t.Errorf("members = %d/%d", len(p.Members()), len(m.memberPool))
	}
	if pool, ok := m.memberPool["db1"]; !ok || pool != "p" {
		t.Errorf("db1's pool = %q, %v", pool, ok)
	}
	// A member cannot join twice.
	if err := m.AddMember("p", "db1", 32, start); err == nil {
		t.Error("duplicate member accepted")
	}
	if err := m.RemoveMember("p", "db1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.memberPool["db1"]; ok {
		t.Error("removed member still registered")
	}
	if err := m.RemoveMember("p", "db1"); !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("double remove err = %v", err)
	}
	if err := m.RemoveMember("nope", "db2"); !errors.Is(err, ErrNoSuchPool) {
		t.Errorf("unknown pool err = %v", err)
	}
}

func TestMemberCap(t *testing.T) {
	m, _ := newMgr(t, 5)
	p, _ := m.CreatePool("p", "GPPOOL_Gen5_4") // cap 100
	for i := 0; i < p.SLO.MaxMemberDBs; i++ {
		if err := m.AddMember("p", dbName(i), 32, start); err != nil {
			t.Fatal(err)
		}
	}
	if p.HasRoom() {
		t.Error("full pool reports room")
	}
	if err := m.AddMember("p", "overflow", 32, start); !errors.Is(err, ErrPoolFull) {
		t.Errorf("over-cap add err = %v", err)
	}
}

func dbName(i int) string {
	return "m" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i%10))
}

func TestPoolWithRoomPrefersExisting(t *testing.T) {
	m, _ := newMgr(t, 5)
	m.CreatePool("p-gp", "GPPOOL_Gen5_4")
	m.CreatePool("p-bc", "BCPOOL_Gen5_4")
	if got := m.PoolWithRoom(slo.StandardGP); got != "p-gp" {
		t.Errorf("GP pool = %q", got)
	}
	if got := m.PoolWithRoom(slo.PremiumBC); got != "p-bc" {
		t.Errorf("BC pool = %q", got)
	}
}

func TestMembersByEditionStableOrder(t *testing.T) {
	m, _ := newMgr(t, 6)
	m.CreatePool("p1", "GPPOOL_Gen5_4")
	m.CreatePool("p2", "GPPOOL_Gen5_4")
	m.AddMember("p2", "z", 32, start)
	m.AddMember("p1", "b", 32, start)
	m.AddMember("p1", "a", 32, start)
	refs := m.MembersByEdition(slo.StandardGP)
	if len(refs) != 3 {
		t.Fatalf("refs = %v", refs)
	}
	want := []MemberRef{{"p1", "a"}, {"p1", "b"}, {"p2", "z"}}
	for i, r := range refs {
		if r != want[i] {
			t.Fatalf("order = %v, want %v", refs, want)
		}
	}
	if got := m.MembersByEdition(slo.PremiumBC); len(got) != 0 {
		t.Errorf("BC members = %v", got)
	}
}

func TestPoolCreationRedirects(t *testing.T) {
	m, _ := newMgr(t, 1) // 64 cores on one node
	if _, err := m.CreatePool("big", "BCPOOL_Gen5_40"); err == nil {
		t.Error("4-replica pool on 1 node should redirect")
	}
	if _, ok := m.Pool("big"); ok {
		t.Error("redirected pool registered")
	}
}
