package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"toto/internal/controlplane"
	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/population"
	"toto/internal/slo"
)

// poolScenario returns a short scenario whose model set enables elastic
// pool churn for Standard/GP.
func poolScenario(t *testing.T) *Scenario {
	t.Helper()
	tm := DefaultModels()
	set := *tm.Set
	set.Pools = map[slo.Edition]*models.PoolPolicy{
		slo.StandardGP: {
			MemberFraction:  0.5,
			PoolSLO:         "GPPOOL_Gen5_8",
			MemberMaxDiskGB: 64,
		},
	}
	sc := DefaultScenario("pools", 1.1, &set, testSeeds())
	sc.Duration = 24 * time.Hour
	sc.BootstrapDuration = 2 * time.Hour
	return sc
}

func TestPoolReportingAggregatesMembers(t *testing.T) {
	sc := poolScenario(t)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	o.Start()

	if err := o.CreatePool("pool-x", "GPPOOL_Gen5_8"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPoolMember("pool-x", "m1", 64, 10); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPoolMember("pool-x", "m2", 64, 20); err != nil {
		t.Fatal(err)
	}

	o.Clock.RunUntil(sc.Start.Add(time.Hour))
	svc, _ := o.Cluster.Service("pool-x")
	load := svc.Primary().Loads[fabric.MetricDiskGB]
	// The pool reports the sum of its members (10 + 20 plus an hour of
	// modeled growth).
	if load < 30 || load > 40 {
		t.Errorf("pool disk load = %v, want ~30+", load)
	}

	// Removing a member shrinks the next report.
	if err := o.RemovePoolMember("pool-x", "m2"); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(2 * time.Hour))
	after := svc.Primary().Loads[fabric.MetricDiskGB]
	if after >= load {
		t.Errorf("pool load %v did not shrink after member removal (was %v)", after, load)
	}
}

func TestPoolChurnEndToEnd(t *testing.T) {
	sc := poolScenario(t)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolMemberCreates == 0 {
		t.Fatal("no pool members created despite 50% member fraction")
	}
	if res.PoolsProvisioned == 0 {
		t.Fatal("no pools provisioned")
	}
	// Pools pack databases without reserving per-database cores: total
	// customer databases exceed fabric services.
	t.Logf("pools=%d members created=%d dropped=%d (singleton creates=%d)",
		res.PoolsProvisioned, res.PoolMemberCreates, res.PoolMemberDrops, res.Creates)
	if res.Revenue.Adjusted <= 0 {
		t.Error("no revenue")
	}
}

func TestPoolMemberSurvivesPoolFailover(t *testing.T) {
	// A BC pool's member disk is persisted: after the pool's primary
	// fails over, the newly promoted primary reports the same member sum.
	tm := DefaultModels()
	sc := DefaultScenario("pool-failover", 1.0, tm.Set, testSeeds())
	sc.Duration = 6 * time.Hour
	sc.BootstrapDuration = time.Hour
	sc.Population.Counts = map[slo.Edition]int{} // empty cluster
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	o.Start()

	if err := o.CreatePool("bcpool", "BCPOOL_Gen5_4"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPoolMember("bcpool", "m1", 500, 300); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(time.Hour))
	svc, _ := o.Cluster.Service("bcpool")
	before := svc.Primary().Loads[fabric.MetricDiskGB]
	if before < 300 {
		t.Fatalf("pool load = %v before failover", before)
	}

	// Force the primary to a free node.
	hosts := map[string]bool{}
	for _, r := range svc.Replicas {
		if r.Node != nil {
			hosts[r.Node.ID] = true
		}
	}
	var target string
	for _, n := range o.Cluster.Nodes() {
		if !hosts[n.ID] {
			target = n.ID
			break
		}
	}
	if err := o.Cluster.ForceMove(svc.Primary().ID, target); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(2 * time.Hour))
	after := svc.Primary().Loads[fabric.MetricDiskGB]
	if after < before {
		t.Errorf("pool member disk lost on failover: %v -> %v", before, after)
	}
}

// emptyOrchestrator returns an unstarted orchestrator over an empty
// cluster of the given size, for pool registry tests.
func emptyOrchestrator(t *testing.T, nodes int) *Orchestrator {
	t.Helper()
	sc := DefaultScenario("pools", 1.0, DefaultModels().Set, testSeeds())
	sc.Nodes = nodes
	sc.Population.Counts = map[slo.Edition]int{}
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.WriteModels(sc.Models); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestCreatePoolReservesCores(t *testing.T) {
	o := emptyOrchestrator(t, 5)
	if err := o.CreatePool("pool-1", "GPPOOL_Gen5_8"); err != nil {
		t.Fatal(err)
	}
	if got := o.Cluster.ReservedCores(); got != 8 {
		t.Errorf("reserved = %v, want 8", got)
	}
	svc, _ := o.Cluster.Service("pool-1")
	if svc.Labels[labelPool] != "true" {
		t.Error("pool service not labeled")
	}
	if e := o.poolNamed("pool-1"); e == nil || e.poolCap != 200 {
		t.Errorf("pool entry = %+v, want a cap of 200 members", e)
	}
}

func TestDuplicatePool(t *testing.T) {
	o := emptyOrchestrator(t, 5)
	if err := o.CreatePool("p", "GPPOOL_Gen5_4"); err != nil {
		t.Fatal(err)
	}
	if err := o.CreatePool("p", "GPPOOL_Gen5_4"); err == nil {
		t.Error("a live pool's name was created again")
	}
	if o.poolsCreated != 1 {
		t.Errorf("pools created = %d, want 1", o.poolsCreated)
	}
}

func TestCreatePoolRejectsSingletonSLO(t *testing.T) {
	o := emptyOrchestrator(t, 5)
	for _, name := range []string{"GP_Gen5_8", "nope"} {
		if err := o.CreatePool("p", name); err == nil {
			t.Errorf("%s accepted as a pool SLO", name)
		}
	}
	// Nor is a pool SLO that admits no member.
	empty, _ := o.Control.Catalog().Lookup("GPPOOL_Gen5_4")
	empty.Name, empty.MaxMemberDBs = "GPPOOL_EMPTY", 0
	cat, err := slo.NewCatalog([]slo.SLO{empty})
	if err != nil {
		t.Fatal(err)
	}
	o.Control = controlplane.New(o.Cluster, cat)
	if err := o.CreatePool("p", empty.Name); err == nil {
		t.Error("a pool SLO with no member room accepted")
	}
	if o.poolsCreated != 0 || o.Cluster.LiveServiceCount() != 0 {
		t.Errorf("rejected creates left %d pools, %d services", o.poolsCreated, o.Cluster.LiveServiceCount())
	}
}

func TestPoolCreationRedirects(t *testing.T) {
	o := emptyOrchestrator(t, 1)
	// Four BC replicas cannot land on one node.
	if err := o.CreatePool("big", "BCPOOL_Gen5_40"); !errors.Is(err, controlplane.ErrRedirected) {
		t.Fatalf("err = %v, want the control plane's redirect", err)
	}
	if err := o.AddPoolMember("big", "m1", 32, 0); !errors.Is(err, errNoSuchPool) {
		t.Errorf("member of a redirected pool: err = %v", err)
	}
	// A redirected provisioning attempt still takes its number.
	ops := poolOps{o}
	if name, err := ops.EnsurePoolWithRoom(slo.PremiumBC, "BCPOOL_Gen5_40"); name != "" || !errors.Is(err, controlplane.ErrRedirected) {
		t.Errorf("redirected provisioning = %q, %v", name, err)
	}
	if name, err := ops.EnsurePoolWithRoom(slo.StandardGP, "GPPOOL_Gen5_4"); err != nil || name != "pool-gp-002" {
		t.Errorf("next pool = %q, %v; want pool-gp-002", name, err)
	}
	if o.poolsCreated != 1 {
		t.Errorf("pools created = %d, want 1 (redirects are not counted)", o.poolsCreated)
	}
}

func TestPoolMembershipLifecycle(t *testing.T) {
	o := emptyOrchestrator(t, 5)
	for _, p := range []string{"p1", "p2"} {
		if err := o.CreatePool(p, "GPPOOL_Gen5_4"); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddPoolMember("p1", "a", 32, 1); err != nil {
		t.Fatal(err)
	}
	// A database joins at most one pool.
	for _, p := range []string{"p1", "p2"} {
		if err := o.AddPoolMember(p, "a", 32, 1); err == nil {
			t.Errorf("a joined %s while a member of p1", p)
		}
	}
	if err := o.RemovePoolMember("p1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := o.RemovePoolMember("p1", "a"); !errors.Is(err, errNoSuchMember) {
		t.Errorf("double remove: err = %v", err)
	}
	if err := o.RemovePoolMember("nope", "a"); !errors.Is(err, errNoSuchPool) {
		t.Errorf("unknown pool: err = %v", err)
	}
	if err := o.AddPoolMember("p2", "a", 32, 1); err != nil {
		t.Errorf("a removed member could not join another pool: %v", err)
	}
	// A singleton database is not a pool.
	svc, err := o.Control.CreateDatabase("single", "GP_Gen5_2")
	if err != nil {
		t.Fatal(err)
	}
	sl, _ := o.Control.Catalog().Lookup("GP_Gen5_2")
	o.RegisterDatabase(svc, sl)
	if err := o.AddPoolMember("single", "b", 32, 1); !errors.Is(err, errNoSuchPool) {
		t.Errorf("member of a singleton database: err = %v", err)
	}
}

func TestPoolMembersInNameOrder(t *testing.T) {
	o := emptyOrchestrator(t, 6)
	for _, p := range []string{"p2", "p1"} {
		if err := o.CreatePool(p, "GPPOOL_Gen5_4"); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []struct{ pool, db string }{{"p2", "z"}, {"p1", "b"}, {"p1", "a"}} {
		if err := o.AddPoolMember(m.pool, m.db, 32, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := []population.MemberRef{{Pool: "p1", DB: "a"}, {Pool: "p1", DB: "b"}, {Pool: "p2", DB: "z"}}
	if got := (poolOps{o}).Members(slo.StandardGP); !slices.Equal(got, want) {
		t.Errorf("members = %v, want %v", got, want)
	}
	if got := (poolOps{o}).Members(slo.PremiumBC); len(got) != 0 {
		t.Errorf("BC members = %v", got)
	}
}

func TestPoolMemberCap(t *testing.T) {
	o := emptyOrchestrator(t, 5)
	if err := o.CreatePool("p", "GPPOOL_Gen5_4"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := o.AddPoolMember("p", fmt.Sprintf("m%03d", i), 32, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddPoolMember("p", "overflow", 32, 0); !errors.Is(err, errPoolFull) {
		t.Errorf("member 101 of a 100-member pool: err = %v", err)
	}
	// A full pool is passed over: the next pool gets the next number.
	if name, err := (poolOps{o}).EnsurePoolWithRoom(slo.StandardGP, "GPPOOL_Gen5_4"); err != nil || name != "pool-gp-001" {
		t.Errorf("pool with room = %q, %v; want a new pool-gp-001", name, err)
	}
}

func TestEnsurePoolWithRoomPrefersExisting(t *testing.T) {
	o := emptyOrchestrator(t, 5)
	for name, sloName := range map[string]string{"p-gp": "GPPOOL_Gen5_4", "p-bc": "BCPOOL_Gen5_4"} {
		if err := o.CreatePool(name, sloName); err != nil {
			t.Fatal(err)
		}
	}
	ops := poolOps{o}
	for e, want := range map[slo.Edition]string{slo.StandardGP: "p-gp", slo.PremiumBC: "p-bc"} {
		if got, err := ops.EnsurePoolWithRoom(e, "GPPOOL_Gen5_4"); err != nil || got != want {
			t.Errorf("%s pool = %q, %v; want %q", e, got, err, want)
		}
	}
	if o.poolSeq != 0 || o.poolsCreated != 2 {
		t.Errorf("seq %d, created %d: want 0 and 2", o.poolSeq, o.poolsCreated)
	}
}

// TestDroppedPoolClearsMemberLoads: a BC pool's members persist their
// disk in the Naming Service, and dropping the pool clears those entries
// with the pool's own.
func TestDroppedPoolClearsMemberLoads(t *testing.T) {
	o := emptyOrchestrator(t, 5)
	if err := o.CreatePool("bcpool", "BCPOOL_Gen5_4"); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"m1", "m2"} {
		if err := o.AddPoolMember("bcpool", m, 500, 100); err != nil {
			t.Fatal(err)
		}
	}
	naming := o.Cluster.Naming()
	for _, m := range []string{"m1", "m2"} {
		if _, ok := naming.Float("toto/load/" + m + "/diskGB"); !ok {
			t.Fatalf("no persisted load for member %s", m)
		}
	}
	if err := o.Control.DropDatabase("bcpool"); err != nil {
		t.Fatal(err)
	}
	if n := naming.Len(); n != 1 {
		t.Errorf("%d Naming entries after the pool was dropped, want only the model set", n)
	}
	if err := o.AddPoolMember("bcpool", "m3", 500, 100); !errors.Is(err, errNoSuchPool) {
		t.Errorf("member of a dropped pool: err = %v", err)
	}
}

// TestDroppedPoolTakesItsMembers drops a pool's service through the
// control plane mid-run. Its members go with it: the next member create
// provisions pool-gp-002, no member of the dropped pool is listed again,
// and PoolMemberDrops counts the members that went with the pool as well
// as those dropped by churn, so creates minus drops is what is listed.
func TestDroppedPoolTakesItsMembers(t *testing.T) {
	sc := poolScenario(t)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	ops := poolOps{o}
	dropAt := sc.Start.Add(sc.BootstrapDuration + 6*time.Hour)
	var gone []population.MemberRef
	o.Clock.At(dropAt, func(time.Time) {
		gone = ops.Members(slo.StandardGP)
		if err := o.Control.DropDatabase("pool-gp-001"); err != nil {
			t.Error(err)
		}
		if left := ops.Members(slo.StandardGP); len(left) != 0 {
			t.Errorf("members listed after their pool was dropped: %v", left)
		}
	})
	res, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) == 0 {
		t.Fatal("pool-gp-001 had no members when dropped")
	}
	for _, m := range gone {
		if m.Pool != "pool-gp-001" {
			t.Fatalf("a second pool was live before the drop: %v", m)
		}
	}
	if svc, ok := o.Cluster.Service("pool-gp-002"); !ok || !svc.Created.After(dropAt) || !svc.Alive() {
		t.Fatal("no live pool-gp-002 provisioned after pool-gp-001 was dropped")
	}
	if res.PoolsProvisioned != 2 {
		t.Errorf("pools provisioned = %d, want 2", res.PoolsProvisioned)
	}
	listed := ops.Members(slo.StandardGP)
	for _, m := range listed {
		if m.Pool != "pool-gp-002" {
			t.Errorf("member of a dropped pool listed: %v", m)
		}
	}
	if got, want := res.PoolMemberCreates-res.PoolMemberDrops, len(listed); got != want {
		t.Errorf("member creates %d - drops %d = %d, want the %d listed (%d went with pool-gp-001)",
			res.PoolMemberCreates, res.PoolMemberDrops, got, want, len(gone))
	}
}
