package population

import (
	"testing"
	"time"

	"toto/internal/controlplane"
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

type env struct {
	clock   *simclock.Clock
	cluster *fabric.Cluster
	cp      *controlplane.ControlPlane
	mgr     *Manager
}

func newEnv(t *testing.T, set *models.ModelSet, nodes int) *env {
	t.Helper()
	clock := simclock.New(start)
	cluster := fabric.NewCluster(clock, nodes, map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}, fabric.DefaultConfig())
	cp := controlplane.New(cluster, slo.Gen5())
	mgr := New(clock, cluster.Naming(), cp, 42)
	if set != nil {
		data, err := set.EncodeXML()
		if err != nil {
			t.Fatal(err)
		}
		cluster.Naming().Put(models.NamingKey, data)
	}
	return &env{clock: clock, cluster: cluster, cp: cp, mgr: mgr}
}

func churnSet(createMean, dropMean float64) *models.ModelSet {
	set := models.NewModelSet(1)
	set.RingShare = 1
	set.Create[slo.StandardGP] = flatHourly(createMean, 0.1)
	set.Drop[slo.StandardGP] = flatHourly(dropMean, 0.1)
	set.SLOMix[slo.StandardGP] = []models.SLOWeight{
		{Name: "GP_Gen5_2", Weight: 0.8},
		{Name: "GP_Gen5_4", Weight: 0.2},
	}
	set.NewDBDiskGB[slo.StandardGP] = models.GrowthBin{LoGB: 1, HiGB: 10}
	return set
}

func TestHourlyCreates(t *testing.T) {
	e := newEnv(t, churnSet(3, 0), 8)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(10 * time.Hour))
	creates, drops, fails := e.mgr.Stats()
	if drops != 0 || fails != 0 {
		t.Errorf("drops=%d fails=%d", drops, fails)
	}
	// ~3 per hour over 10 hours.
	if creates < 20 || creates > 40 {
		t.Errorf("creates = %d, want ~30", creates)
	}
	if got := len(e.cluster.LiveServices()); got != creates {
		t.Errorf("live services = %d, creates = %d", got, creates)
	}
}

func TestDropsRemoveLiveDatabases(t *testing.T) {
	set := churnSet(3, 1)
	e := newEnv(t, set, 8)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(20 * time.Hour))
	creates, drops, _ := e.mgr.Stats()
	if drops == 0 {
		t.Fatal("no drops happened")
	}
	if got := len(e.cluster.LiveServices()); got != creates-drops {
		t.Errorf("live = %d, want creates-drops = %d", got, creates-drops)
	}
}

func TestDropWithNoCandidatesCountsFailure(t *testing.T) {
	set := churnSet(0, 2) // drops only, nothing to drop
	e := newEnv(t, set, 4)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(3 * time.Hour))
	_, drops, fails := e.mgr.Stats()
	if drops != 0 {
		t.Errorf("drops = %d with no live databases", drops)
	}
	if fails == 0 {
		t.Error("failed drops not counted")
	}
}

func TestRingShareScalesRates(t *testing.T) {
	run := func(share float64) int {
		set := churnSet(20, 0)
		set.RingShare = share
		e := newEnv(t, set, 8)
		e.mgr.Start()
		e.clock.RunUntil(start.Add(12 * time.Hour))
		creates, _, _ := e.mgr.Stats()
		return creates
	}
	full := run(1.0)
	tenth := run(0.1)
	if tenth >= full/4 {
		t.Errorf("share 0.1 created %d vs full %d; scaling ineffective", tenth, full)
	}
}

func TestFrozenModelsSuppressChurn(t *testing.T) {
	set := churnSet(5, 1)
	set.Frozen = true
	e := newEnv(t, set, 8)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(6 * time.Hour))
	creates, drops, _ := e.mgr.Stats()
	if creates != 0 || drops != 0 {
		t.Errorf("frozen churn: creates=%d drops=%d", creates, drops)
	}
}

func TestNoModelsNoChurn(t *testing.T) {
	e := newEnv(t, nil, 4)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(4 * time.Hour))
	creates, drops, _ := e.mgr.Stats()
	if creates != 0 || drops != 0 {
		t.Errorf("churn with no models: %d/%d", creates, drops)
	}
}

func TestSLOMixRespected(t *testing.T) {
	set := churnSet(20, 0)
	e := newEnv(t, set, 10)
	e.mgr.Start()
	counts := map[string]int{}
	e.mgr.OnCreated(func(svc *fabric.Service, s slo.SLO, initial float64) {
		counts[s.Name]++
		if initial < 1 || initial > 10 {
			t.Errorf("initial disk %v outside configured range", initial)
		}
	})
	e.clock.RunUntil(start.Add(24 * time.Hour))
	total := counts["GP_Gen5_2"] + counts["GP_Gen5_4"]
	if total == 0 {
		t.Fatal("no creates observed")
	}
	frac := float64(counts["GP_Gen5_2"]) / float64(total)
	if frac < 0.65 || frac > 0.95 {
		t.Errorf("GP_Gen5_2 fraction = %v, want ~0.8", frac)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func() []string {
		e := newEnv(t, churnSet(4, 1), 8)
		e.mgr.Start()
		e.clock.RunUntil(start.Add(12 * time.Hour))
		return e.cp.LiveDatabases(nil, nil)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in live count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a[i], b[i])
		}
	}
}

func TestRequestsSpreadWithinHour(t *testing.T) {
	// The Population Manager schedules requests at random minute offsets
	// ("Create a 4-core local store database at 5:37pm", §3.3.3) rather
	// than in a burst at the top of the hour.
	e := newEnv(t, churnSet(30, 0), 10)
	var createTimes []time.Time
	e.mgr.OnCreated(func(svc *fabric.Service, s slo.SLO, initial float64) {
		createTimes = append(createTimes, e.clock.Now())
	})
	e.mgr.Start()
	e.clock.RunUntil(start.Add(3 * time.Hour))
	offTop := 0
	for _, ts := range createTimes {
		if ts.Minute() != 0 || ts.Second() != 0 {
			offTop++
		}
	}
	if len(createTimes) == 0 {
		t.Fatal("no creates")
	}
	if float64(offTop)/float64(len(createTimes)) < 0.9 {
		t.Errorf("only %d of %d creates were off the top of the hour", offTop, len(createTimes))
	}
}

func TestStopHaltsDaemon(t *testing.T) {
	e := newEnv(t, churnSet(5, 0), 8)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(2 * time.Hour))
	creates1, _, _ := e.mgr.Stats()
	e.mgr.Stop()
	e.clock.RunUntil(start.Add(10 * time.Hour))
	creates2, _, _ := e.mgr.Stats()
	// In-flight scheduled requests for the already-sampled hour may still
	// land, but no new hours are sampled.
	if creates2 > creates1+10 {
		t.Errorf("creates continued after Stop: %d -> %d", creates1, creates2)
	}
}

func TestLifetimeModelDrivesDrops(t *testing.T) {
	set := churnSet(4, 99) // aggregate drop model present but must be ignored
	set.Lifetime[slo.StandardGP] = &models.LifetimeModel{
		LongLivedFraction: 0,
		Bins:              []models.GrowthBin{{LoGB: 2, HiGB: 4}}, // 2-4 hour lifetimes
	}
	e := newEnv(t, set, 8)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(24 * time.Hour))
	creates, drops, _ := e.mgr.Stats()
	if creates == 0 {
		t.Fatal("no creates")
	}
	// Every database older than 4 hours must have been dropped; with the
	// aggregate drop mean of 99/hour ignored, drops ≈ creates minus the
	// last few hours' worth.
	live := len(e.cluster.LiveServices())
	if drops == 0 {
		t.Fatal("lifetime model scheduled no drops")
	}
	if live > creates/3 {
		t.Errorf("live = %d of %d creates; short lifetimes should have dropped most", live, creates)
	}
	// Check age of survivors.
	for _, svc := range e.cluster.LiveServices() {
		if age := e.clock.Now().Sub(svc.Created); age > 5*time.Hour {
			t.Errorf("%s is %v old, beyond the 4h max lifetime", svc.Name, age)
		}
	}
}

func TestLifetimeLongLivedNeverDropped(t *testing.T) {
	set := churnSet(3, 0)
	set.Lifetime[slo.StandardGP] = &models.LifetimeModel{
		LongLivedFraction: 1, // everyone is long-lived
		Bins:              []models.GrowthBin{{LoGB: 1, HiGB: 2}},
	}
	e := newEnv(t, set, 8)
	e.mgr.Start()
	e.clock.RunUntil(start.Add(24 * time.Hour))
	creates, drops, _ := e.mgr.Stats()
	if creates == 0 {
		t.Fatal("no creates")
	}
	if drops != 0 {
		t.Errorf("long-lived databases were dropped: %d", drops)
	}
}
