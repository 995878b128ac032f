package rgmanager

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/simclock"
	"toto/internal/slo"
)

var start = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func flatHourly(mean, sigma float64) *models.HourlyNormal {
	h := models.NewHourlyNormal()
	for w := 0; w < 2; w++ {
		for hr := 0; hr < 24; hr++ {
			h.Set(models.HourBucket{Weekend: w == 1, Hour: hr}, models.NormalParam{Mean: mean, Sigma: sigma})
		}
	}
	return h
}

func testModelSet() *models.ModelSet {
	set := models.NewModelSet(7)
	set.Disk[slo.PremiumBC] = &models.DiskUsageModel{
		Steady:         flatHourly(0.1, 0.01),
		ReportInterval: 20 * time.Minute,
		Persisted:      true,
	}
	set.Disk[slo.StandardGP] = &models.DiskUsageModel{
		Steady:         flatHourly(0.02, 0.005),
		ReportInterval: 20 * time.Minute,
		Persisted:      false,
	}
	set.Memory[slo.StandardGP] = &models.MemoryModel{
		Target:         flatHourly(8, 0.5),
		WarmRate:       0.5,
		ColdStartGB:    1,
		ReportInterval: 20 * time.Minute,
	}
	return set
}

// env wires a small cluster with one RgManager per node and the test
// model set written into the Naming Service.
type env struct {
	cluster  *fabric.Cluster
	store    *Store
	managers map[string]*Manager
}

func newEnv(t *testing.T, set *models.ModelSet) *env {
	t.Helper()
	cfg := fabric.DefaultConfig()
	cluster := fabric.NewCluster(simclock.New(start), 5, map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}, cfg)
	e := &env{cluster: cluster, store: NewStore(nil), managers: make(map[string]*Manager)}
	for i, n := range cluster.Nodes() {
		e.managers[n.ID] = New(n, cluster.Naming(), e.store, uint64(1000+i))
	}
	if set != nil {
		cluster.Naming().PutValue(models.NamingKey, set)
		for _, m := range e.managers {
			if err := m.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

func (e *env) managerOf(r *fabric.Replica) *Manager { return e.managers[r.Node.ID] }

func bcInfo(name string, created time.Time) *DBInfo {
	return &DBInfo{Name: name, Edition: slo.PremiumBC, Created: created, MaxDiskGB: 2048, MaxMemoryGB: 20}
}

func gpInfo(name string, created time.Time) *DBInfo {
	return &DBInfo{Name: name, Edition: slo.StandardGP, Created: created, MaxDiskGB: 64, MaxMemoryGB: 10}
}

func TestNoModelMeansActualReporting(t *testing.T) {
	e := newEnv(t, nil) // no XML in the naming service
	svc, _ := e.cluster.CreateService("db", 1, 2, nil)
	rep := svc.Replicas[0]
	if _, ok := e.managerOf(rep).ReportDisk(rep, gpInfo("db", start), start); ok {
		t.Error("model path taken with no models loaded")
	}
}

func TestRefreshVersionShortCircuit(t *testing.T) {
	e := newEnv(t, testModelSet())
	m := e.managers["node-0"]
	first := m.Models()
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if m.Models() != first {
		t.Error("an unchanged entry installed another set")
	}
	// Overwrite: refresh must pick up the new set.
	set2 := testModelSet()
	set2.Frozen = true
	e.cluster.Naming().PutValue(models.NamingKey, set2)
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if m.Models() != set2 {
		t.Error("refresh did not load the overwritten set")
	}
	// Removing the key clears the models.
	e.cluster.Naming().Delete(models.NamingKey)
	m.Refresh()
	if m.Models() != nil {
		t.Error("deleted key did not clear models")
	}
}

func TestRefreshRejectsMalformedXML(t *testing.T) {
	e := newEnv(t, testModelSet())
	e.cluster.Naming().Put(models.NamingKey, []byte("<broken"))
	if err := e.managers["node-0"].Refresh(); err == nil {
		t.Error("an entry holding no model set accepted")
	}
}

func TestPersistedDiskSurvivesFailover(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	primary := svc.Primary()
	e.managerOf(primary).SeedLoad(primary, info, 500)

	// Primary executes the model and persists.
	now := start.Add(20 * time.Minute)
	v1, ok := e.managerOf(primary).ReportDisk(primary, info, now)
	if !ok || v1 <= 500 || v1 > 501 {
		t.Fatalf("primary report = %v, %v", v1, ok)
	}
	// Secondaries read the persisted value without executing the model.
	for _, r := range svc.Replicas {
		if r.Role != fabric.Secondary {
			continue
		}
		v, ok := e.managerOf(r).ReportDisk(r, info, now)
		if !ok || v != v1 {
			t.Fatalf("secondary report = %v, want %v", v, v1)
		}
	}

	// Fail the primary over to a node with a DIFFERENT manager; the newly
	// promoted primary must continue from the persisted value.
	var target *fabric.Node
	for _, n := range e.cluster.Nodes() {
		hosts := false
		for _, r := range svc.Replicas {
			if r.Node == n {
				hosts = true
			}
		}
		if !hosts {
			target = n
		}
	}
	oldPrimary := primary
	if err := e.cluster.ForceMove(oldPrimary.ID, target.ID); err != nil {
		t.Fatal(err)
	}
	newPrimary := svc.Primary()
	if newPrimary == oldPrimary {
		t.Fatal("no promotion happened")
	}
	now2 := now.Add(20 * time.Minute)
	v2, ok := e.managerOf(newPrimary).ReportDisk(newPrimary, info, now2)
	if !ok {
		t.Fatal("model path lost after failover")
	}
	if v2 < v1 || v2 > v1+1 {
		t.Errorf("post-failover disk = %v, want continuation of %v", v2, v1)
	}
}

func TestNonPersistedDiskResetsOnFailover(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	e.managerOf(rep).SeedLoad(rep, info, 30)

	now := start.Add(20 * time.Minute)
	v1, ok := e.managerOf(rep).ReportDisk(rep, info, now)
	if !ok || v1 < 30 {
		t.Fatalf("report = %v", v1)
	}
	// Move to another node: tempDB is lost, the value resets.
	var target *fabric.Node
	for _, n := range e.cluster.Nodes() {
		if n != rep.Node {
			target = n
			break
		}
	}
	if err := e.cluster.ForceMove(rep.ID, target.ID); err != nil {
		t.Fatal(err)
	}
	v2, ok := e.managerOf(rep).ReportDisk(rep, info, now.Add(20*time.Minute))
	if !ok {
		t.Fatal("model path lost")
	}
	if v2 >= v1 {
		t.Errorf("tempDB did not reset: %v >= %v", v2, v1)
	}
	if v2 > 1 {
		t.Errorf("fresh replica reports %v, want near zero", v2)
	}
}

func TestFrozenReturnsPrev(t *testing.T) {
	set := testModelSet()
	set.Frozen = true
	e := newEnv(t, set)
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, 700)
	for i := 1; i <= 5; i++ {
		v, ok := e.managerOf(p).ReportDisk(p, info, start.Add(time.Duration(i)*20*time.Minute))
		if !ok || v != 700 {
			t.Fatalf("frozen report %d = %v", i, v)
		}
	}
}

func TestMemoryColdStartAndWarmup(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	var v float64
	var ok bool
	for i := 1; i <= 20; i++ {
		v, ok = e.managerOf(rep).ReportMemory(rep, info, start.Add(time.Duration(i)*20*time.Minute))
		if !ok {
			t.Fatal("no memory model")
		}
	}
	if v < 6 || v > 10 {
		t.Errorf("warmed memory = %v, want ~8", v)
	}
	// BC has no memory model configured in this set.
	bc, _ := e.cluster.CreateService("bc9", 4, 2, nil)
	if _, ok := e.managerOf(bc.Primary()).ReportMemory(bc.Primary(), bcInfo("bc9", start), start); ok {
		t.Error("memory model applied to edition without one")
	}
}

func TestEvictAndMemEntries(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	m := e.managerOf(rep)
	m.ReportDisk(rep, info, start.Add(20*time.Minute))
	m.ReportMemory(rep, info, start.Add(20*time.Minute))
	// One record holds the replica's tempDB disk and memory.
	if m.MemEntries() != 1 {
		t.Fatalf("mem entries = %d", m.MemEntries())
	}
	e.store.Evict(rep, rep.Incarnation+1) // another incarnation's: kept
	if m.MemEntries() != 1 {
		t.Fatalf("evicting another incarnation dropped the record: %d entries", m.MemEntries())
	}
	e.store.Evict(rep, rep.Incarnation)
	if m.MemEntries() != 0 {
		t.Errorf("entries after evict = %d", m.MemEntries())
	}
}

func TestClearPersisted(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, 100)
	if len(e.cluster.Naming().Keys("toto/load/")) != 1 {
		t.Fatal("persisted load not written")
	}
	ClearPersisted(e.cluster.Naming(), "bc1")
	if len(e.cluster.Naming().Keys("toto/load/")) != 0 {
		t.Error("persisted load not cleared")
	}
}

func TestMaxDiskClamp(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	info.MaxDiskGB = 500.05
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, 500)
	for i := 1; i <= 10; i++ {
		v, _ := e.managerOf(p).ReportDisk(p, info, start.Add(time.Duration(i)*20*time.Minute))
		if v > info.MaxDiskGB {
			t.Fatalf("reported %v above SLO max %v", v, info.MaxDiskGB)
		}
	}
}

func TestSecondaryMemoryBelowPrimary(t *testing.T) {
	set := testModelSet()
	set.Memory[slo.PremiumBC] = &models.MemoryModel{
		Target:          flatHourly(10, 0),
		WarmRate:        1, // jump straight to target
		ColdStartGB:     0,
		SecondaryFactor: 0.4,
		ReportInterval:  20 * time.Minute,
	}
	e := newEnv(t, set)
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	now := start.Add(20 * time.Minute)

	pv, ok := e.managerOf(svc.Primary()).ReportMemory(svc.Primary(), info, now)
	if !ok {
		t.Fatal("no memory model")
	}
	var sv float64
	for _, r := range svc.Replicas {
		if r.Role == fabric.Secondary {
			sv, ok = e.managerOf(r).ReportMemory(r, info, now)
			if !ok {
				t.Fatal("no model for secondary")
			}
			break
		}
	}
	if sv >= pv {
		t.Errorf("secondary memory %v not below primary %v", sv, pv)
	}
	if sv < pv*0.3 || sv > pv*0.5 {
		t.Errorf("secondary/primary ratio = %v, want ~0.4", sv/pv)
	}
}

func TestCPUModelReporting(t *testing.T) {
	set := testModelSet()
	target := flatHourly(0.5, 0) // 50% of reserved cores, no noise
	set.CPU[slo.StandardGP] = &models.CPUModel{
		TargetFraction:  target,
		IdleFraction:    0,
		SecondaryFactor: 0.2,
		ReportInterval:  20 * time.Minute,
	}
	e := newEnv(t, set)
	svc, _ := e.cluster.CreateService("gp1", 1, 4, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	v, ok := e.managerOf(rep).ReportCPU(rep, info, 4, start.Add(20*time.Minute))
	if !ok {
		t.Fatal("no CPU model")
	}
	if v != 2 { // 50% of 4 reserved cores
		t.Errorf("CPU used = %v, want 2", v)
	}
	// No model for BC in this set.
	bc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	if _, ok := e.managerOf(bc.Primary()).ReportCPU(bc.Primary(), bcInfo("bc1", start), 2, start); ok {
		t.Error("CPU model applied to edition without one")
	}
}

func TestCPUModelIdleSubpopulation(t *testing.T) {
	set := testModelSet()
	set.CPU[slo.StandardGP] = &models.CPUModel{
		TargetFraction: flatHourly(0.5, 0),
		IdleFraction:   0.5,
		ReportInterval: 20 * time.Minute,
	}
	e := newEnv(t, set)
	idle, busy := 0, 0
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("gp-%02d", i)
		svc, err := e.cluster.CreateService(name, 1, 2, nil)
		if err != nil {
			break
		}
		rep := svc.Replicas[0]
		v, ok := e.managerOf(rep).ReportCPU(rep, gpInfo(name, start), 2, start.Add(20*time.Minute))
		if !ok {
			t.Fatal("no model")
		}
		if v == 0 {
			idle++
		} else {
			busy++
		}
	}
	if idle == 0 || busy == 0 {
		t.Errorf("idle=%d busy=%d: idle subpopulation not reproduced", idle, busy)
	}
}

// TestManagersShareOneDecodePerVersion checks that every manager holds
// the one stored set, and that an entry holding no set fails every
// Refresh and keeps the previous set.
func TestManagersShareOneDecodePerVersion(t *testing.T) {
	set := testModelSet()
	e := newEnv(t, set)
	naming := e.cluster.Naming()
	for id, m := range e.managers {
		if m.Models() != set {
			t.Errorf("%s holds %p, not the stored set %p", id, m.Models(), set)
		}
	}
	naming.Put(models.NamingKey, []byte("<broken"))
	for id, m := range e.managers {
		if err := m.Refresh(); err == nil {
			t.Errorf("%s accepted an entry holding no model set", id)
		}
		if m.Models() != set {
			t.Errorf("%s dropped its models on an entry holding no set", id)
		}
	}
}

// TestPersistedLoadMatchesPercentG pins the persisted load's bytes, as a
// reader of the Naming Service sees them, to the bytes fmt's %g writes,
// and the value read back to the one its %g scan gives.
func TestPersistedLoadMatchesPercentG(t *testing.T) {
	e := newEnv(t, testModelSet())
	m := e.managers["node-0"]
	vals := []float64{0, math.Copysign(0, -1), 1, 0.1, 1.5e-300, math.SmallestNonzeroFloat64,
		1e21, 123456789012.5, math.MaxFloat64, 4096}
	src := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		vals = append(vals, src.Float64()*2048, math.Float64frombits(src.Uint64()&^(0x7ff<<52)|uint64(src.Intn(0x7ff))<<52))
	}
	info := &DBInfo{Name: "db"}
	for _, v := range vals {
		m.persistLoad(info, v)
		data, _, _ := e.cluster.Naming().Get(loadNamingKey("db"))
		if want := fmt.Sprintf("%g", v); string(data) != want {
			t.Fatalf("persistLoad(%v) wrote %q, %%g writes %q", v, data, want)
		}
		var want float64
		if _, err := fmt.Sscanf(string(data), "%g", &want); err != nil {
			t.Fatal(err)
		}
		if got := m.persistedLoad(info); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("persistedLoad(%q) = %v; %%g scans %v", data, got, want)
		}
	}
}

// coldMemorySet is testModelSet with a noiseless GP memory model, so a
// cold start is recognisable: the first report from a cold buffer pool is
// exactly 1 + (8-1)*0.5 = 4.5 GB, and a warmed one sits near 8 GB.
func coldMemorySet() *models.ModelSet {
	set := testModelSet()
	set.Memory[slo.StandardGP] = &models.MemoryModel{
		Target:         flatHourly(8, 0),
		WarmRate:       0.5,
		ColdStartGB:    1,
		ReportInterval: 20 * time.Minute,
	}
	return set
}

const coldMemoryGB = 4.5

// warmMemory reports rep's memory rounds times and returns the last value.
func (e *env) warmMemory(t *testing.T, rep *fabric.Replica, info *DBInfo, rounds int) float64 {
	t.Helper()
	var v float64
	for i := 1; i <= rounds; i++ {
		var ok bool
		if v, ok = e.managerOf(rep).ReportMemory(rep, info, start.Add(time.Duration(i)*20*time.Minute)); !ok {
			t.Fatal("no memory model")
		}
	}
	return v
}

func TestRecycledSlotStartsCold(t *testing.T) {
	e := newEnv(t, coldMemorySet())
	old, _ := e.cluster.CreateService("gp-old", 1, 2, nil)
	oldNode := old.Replicas[0].Node
	if v := e.warmMemory(t, old.Replicas[0], gpInfo("gp-old", start), 10); v < 7.9 {
		t.Fatalf("warmed memory = %v", v)
	}
	// Drop without telling the store: the slot's guard alone must keep
	// the new service from inheriting the old one's records.
	if err := e.cluster.DropService("gp-old"); err != nil {
		t.Fatal(err)
	}
	svc, _ := e.cluster.CreateService("gp-new", 1, 2, nil)
	rep := svc.Replicas[0]
	if svc.Slot() != old.Slot() || rep.Node != oldNode || rep.Incarnation != old.Replicas[0].Incarnation {
		t.Fatalf("gp-new got slot %d on %s, incarnation %d; the test needs gp-old's %d on %s, %d",
			svc.Slot(), rep.Node.ID, rep.Incarnation, old.Slot(), oldNode.ID, old.Replicas[0].Incarnation)
	}
	if v, _ := e.managerOf(rep).ReportMemory(rep, gpInfo("gp-new", start), start.Add(time.Hour)); v != coldMemoryGB {
		t.Errorf("recycled slot reported %v GB, want the cold start's %v", v, coldMemoryGB)
	}
}

func TestMoveAwayAndBackStartsCold(t *testing.T) {
	e := newEnv(t, coldMemorySet())
	svc, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	rep := svc.Replicas[0]
	info := gpInfo("gp1", start)
	home := rep.Node
	if v := e.warmMemory(t, rep, info, 10); v < 7.9 {
		t.Fatalf("warmed memory = %v", v)
	}
	var away *fabric.Node
	for _, n := range e.cluster.Nodes() {
		if n != home {
			away = n
			break
		}
	}
	// No eviction on either move: the incarnation tag alone must tell
	// the returning replica from the one that warmed the buffer pool.
	for _, target := range []*fabric.Node{away, home} {
		if err := e.cluster.ForceMove(rep.ID, target.ID); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Node != home {
		t.Fatalf("replica on %s, want back on %s", rep.Node.ID, home.ID)
	}
	if v, _ := e.managerOf(rep).ReportMemory(rep, info, start.Add(5*time.Hour)); v != coldMemoryGB {
		t.Errorf("returning replica reported %v GB, want the cold start's %v", v, coldMemoryGB)
	}
	if n := e.managerOf(rep).MemEntries(); n != 1 {
		t.Errorf("home node holds %d records for one replica", n)
	}
}

func TestStoreDropEvictsEveryReplica(t *testing.T) {
	set := testModelSet()
	set.Memory[slo.PremiumBC] = set.Memory[slo.StandardGP]
	e := newEnv(t, set)
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	for _, r := range svc.Replicas {
		e.managerOf(r).ReportMemory(r, info, start.Add(20*time.Minute))
	}
	total := func() int {
		n := 0
		for _, m := range e.managers {
			n += m.MemEntries()
		}
		return n
	}
	if total() != 4 {
		t.Fatalf("%d records for 4 replicas", total())
	}
	if err := e.cluster.DropService("bc1"); err != nil {
		t.Fatal(err)
	}
	e.store.Drop(svc)
	if total() != 0 {
		t.Errorf("%d records left after the drop", total())
	}
}

func TestNewModelSeedRekeysPersistedMetrics(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, 500)
	dm := testModelSet().Disk[slo.PremiumBC]
	want := func(seed uint64, now time.Time, prev float64) float64 {
		return dm.Next(models.EvalContext{Key: models.NewDBKey(seed, "bc1"), Created: start, Now: now, Prev: prev, MaxGB: info.MaxDiskGB})
	}
	t1 := start.Add(20 * time.Minute)
	v1, _ := e.managerOf(p).ReportDisk(p, info, t1)
	if v1 != want(7, t1, 500) {
		t.Fatalf("seed 7 report = %v, want %v", v1, want(7, t1, 500))
	}
	rewrite := testModelSet()
	rewrite.Seed = 8
	e.cluster.Naming().PutValue(models.NamingKey, rewrite)
	for _, m := range e.managers {
		if err := m.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	t2 := t1.Add(20 * time.Minute)
	v2, _ := e.managerOf(p).ReportDisk(p, info, t2)
	if v2 != want(8, t2, v1) || v2 == want(7, t2, v1) {
		t.Errorf("after the seed-8 rewrite: report = %v, want %v (seed 7 gives %v)", v2, want(8, t2, v1), want(7, t2, v1))
	}
}

// TestPersistedLoadNeverParsed checks that a BC database's persisted
// disk, written by the primary every round and read by it and its three
// secondaries, travels through the Naming Service as a number entry, and
// every secondary reports the primary's last write bit for bit.
func TestPersistedLoadNeverParsed(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, 500)
	for i := 1; i <= 10; i++ {
		now := start.Add(time.Duration(i) * 20 * time.Minute)
		written, _ := e.managerOf(p).ReportDisk(p, info, now)
		if v, ok := e.cluster.Naming().Float(loadNamingKey("bc1")); !ok || math.Float64bits(v) != math.Float64bits(written) {
			t.Fatalf("round %d: the load entry holds %v (a number: %v), the primary wrote %v", i, v, ok, written)
		}
		for _, r := range svc.Replicas {
			if r == p {
				continue
			}
			if got, _ := e.managerOf(r).ReportDisk(r, info, now); math.Float64bits(got) != math.Float64bits(written) {
				t.Fatalf("round %d: secondary %d reports %v, the primary wrote %v", i, r.ID.Index, got, written)
			}
		}
	}
}

// TestReportsAllocateNothing pins the per-replica report paths: a warmed
// memory, CPU, tempDB-disk or BC primary's persisted report allocates
// nothing, since the persisted load is read and written as a number.
func TestReportsAllocateNothing(t *testing.T) {
	set := testModelSet()
	set.CPU[slo.StandardGP] = &models.CPUModel{TargetFraction: flatHourly(0.5, 0.1), ReportInterval: 20 * time.Minute}
	e := newEnv(t, set)
	gp, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	bc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	gpRep, bcRep := gp.Replicas[0], bc.Primary()
	gi, bi := gpInfo("gp1", start), bcInfo("bc1", start)
	now := start.Add(20 * time.Minute)
	gm, bm := e.managerOf(gpRep), e.managerOf(bcRep)
	for name, tc := range map[string]struct {
		report func()
		want   float64
	}{
		"memory":       {func() { gm.ReportMemory(gpRep, gi, now) }, 0},
		"cpu":          {func() { gm.ReportCPU(gpRep, gi, 2, now) }, 0},
		"tempDB disk":  {func() { gm.ReportDisk(gpRep, gi, now) }, 0},
		"persisted BC": {func() { bm.ReportDisk(bcRep, bi, now) }, 0},
	} {
		tc.report() // warm: claim the record, derive the keys
		if got := testing.AllocsPerRun(100, tc.report); got != tc.want {
			t.Errorf("%s report: %v allocs, want %v", name, got, tc.want)
		}
	}
}

// TestReportRoundsShareOneModelSet runs two clusters' report rounds
// concurrently over one model set, as every manager of a cluster shares
// the stored one. The race detector fails it if a report writes anything
// onto the set.
func TestReportRoundsShareOneModelSet(t *testing.T) {
	set := testModelSet()
	set.CPU[slo.StandardGP] = &models.CPUModel{TargetFraction: flatHourly(0.5, 0.1), ReportInterval: 20 * time.Minute}
	envs := []*env{newEnv(t, nil), newEnv(t, nil)}
	infos := make([][]*DBInfo, len(envs))
	for i, e := range envs {
		for _, m := range e.managers {
			m.set = set
		}
		for j := 0; j < 6; j++ {
			name, info := fmt.Sprintf("gp-%d", j), gpInfo(fmt.Sprintf("gp-%d", j), start)
			if j%2 == 1 {
				name, info = fmt.Sprintf("bc-%d", j), bcInfo(fmt.Sprintf("bc-%d", j), start)
			}
			replicas := 1
			if info.Edition == slo.PremiumBC {
				replicas = 4
			}
			if _, err := e.cluster.CreateService(name, replicas, 2, nil); err != nil {
				t.Fatal(err)
			}
			infos[i] = append(infos[i], info)
		}
	}
	done := make(chan struct{})
	for i, e := range envs {
		go func() {
			defer func() { done <- struct{}{} }()
			for round := 1; round <= 30; round++ {
				now := start.Add(time.Duration(round) * 20 * time.Minute)
				for _, info := range infos[i] {
					svc, _ := e.cluster.Service(info.Name)
					for _, r := range svc.Replicas {
						m := e.managerOf(r)
						m.ReportDisk(r, info, now)
						m.ReportMemory(r, info, now)
						m.ReportCPU(r, info, 2, now)
					}
				}
			}
		}()
	}
	for range envs {
		<-done
	}
}
