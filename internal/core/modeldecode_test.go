package core

import (
	"maps"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"toto/internal/models"
	"toto/internal/slo"
)

// Naming Service reads of the run below and of Run(shortScenario(1.0)),
// recorded before the model set was stored as a value. Every reader takes
// the set in one counted read per poll, so neither may move.
const (
	pinnedProtocolNamingReads = 3674
	pinnedRunNamingReads      = 6424
)

// TestModelXMLDecodedOncePerWrite walks the experiment protocol with a
// mid-run model rewrite and an entry that holds no model set, and checks
// that every reader holds the one set stored by the last write, that the
// persisted disk loads written beside it are number entries, and that the
// Naming read count stays pinned.
func TestModelXMLDecodedOncePerWrite(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	naming := o.Cluster.Naming()
	writes := int64(0)
	writeModels := func(set *models.ModelSet) {
		if err := o.WriteModels(set); err != nil {
			t.Fatal(err)
		}
		writes++
	}
	// shared checks that every RgManager (and, once it has woken, the
	// Population Manager) holds the same set, and returns it.
	shared := func(stage string, withPop bool) *models.ModelSet {
		t.Helper()
		var set *models.ModelSet
		for _, n := range o.Cluster.Nodes() {
			got := o.Manager(n).Models()
			if set == nil {
				set = got
			}
			if got == nil || got != set {
				t.Fatalf("%s: manager on %s holds %p, want the shared %p", stage, n.ID, got, set)
			}
		}
		if withPop && o.PopMgr.Models() != set {
			t.Fatalf("%s: population manager holds %p, want the shared %p", stage, o.PopMgr.Models(), set)
		}
		return set
	}

	writeModels(cloneFrozen(sc.Models, true))
	o.Start()
	if _, err := o.BootstrapPopulation(); err != nil {
		t.Fatal(err)
	}
	o.Clock.RunUntil(sc.Start.Add(sc.BootstrapDuration))
	if !shared("bootstrap", false).Frozen {
		t.Fatal("bootstrap models not frozen")
	}

	writeModels(cloneFrozen(sc.Models, false))
	o.PopMgr.Start()
	now := o.Clock.Now()
	o.Clock.RunUntil(now.Add(3 * time.Hour))
	live := shared("unfrozen", true)
	if live.Frozen {
		t.Fatal("unfrozen models still frozen")
	}

	// Mid-run rewrite straight into the Naming Service: the refresh
	// ticker and the hourly wakeup pick it up.
	rewrite := cloneFrozen(sc.Models, false)
	rewrite.RingShare *= 2
	naming.PutValue(models.NamingKey, rewrite)
	writes++
	o.Clock.RunUntil(now.Add(4 * time.Hour))
	if got := shared("rewrite", true); got != rewrite {
		t.Fatalf("rewrite not picked up: readers hold %p with ring share %v, want %p", got, got.RingShare, rewrite)
	}

	// An entry that holds no model set: the RgManagers keep the previous
	// models and the Population Manager skips churn.
	naming.Put(models.NamingKey, []byte("<broken"))
	writes++
	o.Clock.RunUntil(now.Add(5 * time.Hour))
	if shared("malformed", false) != rewrite {
		t.Fatal("an entry holding no model set replaced the active models")
	}
	if o.PopMgr.Models() != nil {
		t.Fatal("population manager used an entry holding no model set")
	}

	naming.PutValue(models.NamingKey, rewrite)
	writes++
	o.Clock.RunUntil(now.Add(6 * time.Hour))
	shared("repaired", true)

	if got := naming.Reads(); got != pinnedProtocolNamingReads {
		t.Errorf("Naming reads = %d, want %d (pinned before the model set was stored as a value)", got, pinnedProtocolNamingReads)
	}

	// Every write other than the model writes stored a persisted load, as
	// a number.
	if loadWrites := naming.CurrentVersion() - writes; loadWrites == 0 {
		t.Error("no persisted load was written")
	}
	for _, key := range naming.Keys("toto/load/") {
		if _, ok := naming.Float(key); !ok {
			t.Errorf("%s is not a number entry", key)
		}
	}
}

func TestRunNamingReadsPinned(t *testing.T) {
	res, err := Run(shortScenario(t, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.NamingReads != pinnedRunNamingReads {
		t.Errorf("Result.NamingReads = %d, want %d (pinned before the model set was stored as a value)", res.NamingReads, pinnedRunNamingReads)
	}
}

// parsedCopy returns what parsing set's XML gives: a fresh set the caller
// owns.
func parsedCopy(t *testing.T, set *models.ModelSet) *models.ModelSet {
	t.Helper()
	data, err := set.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	out, err := models.UnmarshalModelSetXML(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOrchestratorsShareDecodedModels runs two clusters side by side in
// one process, as fleet's workers and a density study do, and checks that
// they share no model set: each cluster's readers hold the copy that its
// own write stored, a rewrite in one cluster never reaches the other, and
// editing the caller's set after WriteModels, a Disk steady cell
// included, changes nothing that any reader holds.
func TestOrchestratorsShareDecodedModels(t *testing.T) {
	var orch [2]*Orchestrator
	for i := range orch {
		o, err := NewOrchestrator(shortScenario(t, 1.0))
		if err != nil {
			t.Fatal(err)
		}
		defer o.Stop()
		orch[i] = o
	}
	// holds checks that every RgManager of o (and its Population Manager,
	// withPop) holds one set, and returns it.
	holds := func(stage string, o *Orchestrator, withPop bool) *models.ModelSet {
		t.Helper()
		var set *models.ModelSet
		for _, n := range o.Cluster.Nodes() {
			got := o.Manager(n).Models()
			if set == nil {
				set = got
			}
			if got == nil || got != set {
				t.Fatalf("%s: manager on %s holds %p, want the cluster's %p", stage, n.ID, got, set)
			}
		}
		if withPop && o.PopMgr.Models() != set {
			t.Fatalf("%s: population manager holds %p, want the cluster's %p", stage, o.PopMgr.Models(), set)
		}
		return set
	}
	write := func(o *Orchestrator, set *models.ModelSet) {
		t.Helper()
		if err := o.WriteModels(set); err != nil {
			t.Fatal(err)
		}
	}

	base := orch[0].Scenario
	var frozen, live [2]*models.ModelSet
	for i, o := range orch {
		write(o, cloneFrozen(base.Models, true))
		o.Start()
		if _, err := o.BootstrapPopulation(); err != nil {
			t.Fatal(err)
		}
		o.Clock.RunUntil(base.Start.Add(base.BootstrapDuration))
		frozen[i] = holds("bootstrap", o, false)
	}
	if frozen[0] == frozen[1] || frozen[0] == base.Models {
		t.Fatal("the clusters share a bootstrap set")
	}

	for i, o := range orch {
		mine := parsedCopy(t, cloneFrozen(base.Models, false))
		want := parsedCopy(t, mine)
		write(o, mine)
		o.PopMgr.Start()
		o.Clock.RunUntil(o.Clock.Now().Add(2 * time.Hour))
		live[i] = holds("live", o, true)
		if live[i] == mine || live[i] == frozen[i] || !reflect.DeepEqual(live[i], want) {
			t.Fatalf("cluster %d holds %p, not a copy of the set it wrote", i, live[i])
		}
		// The caller edits its set, inner models included.
		mine.RingShare *= 3
		mine.Create[slo.StandardGP].Set(models.HourBucket{Hour: 9}, models.NormalParam{Mean: 1e4})
		mine.Disk[slo.StandardGP].Steady.Set(models.HourBucket{Hour: 9}, models.NormalParam{Mean: 1e4})
		mine.Disk[slo.PremiumBC].ReportInterval = time.Minute
		o.Clock.RunUntil(o.Clock.Now().Add(time.Hour))
		if holds("caller edit", o, true) != live[i] || !reflect.DeepEqual(live[i], want) {
			t.Fatalf("cluster %d: editing the written set reached a reader", i)
		}
	}
	if live[0] == live[1] {
		t.Fatal("the clusters share a live set")
	}

	rewrite := cloneFrozen(base.Models, false)
	rewrite.RingShare *= 2
	write(orch[0], rewrite)
	orch[0].Clock.RunUntil(orch[0].Clock.Now().Add(time.Hour))
	if got := holds("rewrite", orch[0], true); got == live[0] || got.RingShare != rewrite.RingShare {
		t.Fatalf("rewrite holds ring share %v (set %p), want a new set with %v", got.RingShare, got, rewrite.RingShare)
	}
	if holds("other cluster", orch[1], true) != live[1] {
		t.Fatal("a rewrite in one cluster reached the other")
	}
}

// TestRejectedModelWriteLandsNothing writes a set that breaks a model
// rule into a cluster four hours into its measured window. WriteModels
// must return the rule's error and store nothing, so every reader stays
// on the live set and the next 20 hours churn exactly as they do without
// the write.
func TestRejectedModelWriteLandsNothing(t *testing.T) {
	// run takes a cluster 4 hours into its measured window, calls bad (if
	// any) there, and returns the creates and drops of the next 20 hours.
	run := func(t *testing.T, bad func(o *Orchestrator)) (creates, drops int) {
		sc := shortScenario(t, 1.0)
		o, err := NewOrchestrator(sc)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Stop()
		if err := o.WriteModels(cloneFrozen(sc.Models, true)); err != nil {
			t.Fatal(err)
		}
		o.Start()
		if _, err := o.BootstrapPopulation(); err != nil {
			t.Fatal(err)
		}
		o.Clock.RunUntil(sc.Start.Add(sc.BootstrapDuration))
		if err := o.WriteModels(cloneFrozen(sc.Models, false)); err != nil {
			t.Fatal(err)
		}
		o.PopMgr.Start()
		measured := o.Clock.Now()
		o.Clock.RunUntil(measured.Add(4 * time.Hour))
		live := o.PopMgr.Models()
		if bad != nil {
			bad(o)
		}
		c0, d0, _ := o.PopMgr.Stats()
		o.Clock.RunUntil(measured.Add(24 * time.Hour))
		for _, n := range o.Cluster.Nodes() {
			if o.Manager(n).Models() != live {
				t.Fatalf("manager on %s left the live set", n.ID)
			}
		}
		if o.PopMgr.Models() != live {
			t.Fatal("population manager left the live set")
		}
		c1, d1, _ := o.PopMgr.Stats()
		return c1 - c0, d1 - d0
	}
	wantCreates, wantDrops := run(t, nil)
	if wantCreates == 0 || wantDrops == 0 {
		t.Fatalf("hours 4-24 without a bad write: %d creates, %d drops; want churn", wantCreates, wantDrops)
	}

	for _, tc := range []struct {
		name, want string
		breakSet   func(set *models.ModelSet)
	}{
		{"NaN ring share", "ringShare", func(set *models.ModelSet) { set.RingShare = math.NaN() }},
		{"zero disk report interval", "non-positive disk report interval", func(set *models.ModelSet) {
			d := *set.Disk[slo.StandardGP]
			d.ReportInterval = 0
			set.Disk[slo.StandardGP] = &d
		}},
		{"nil disk model", `DiskUsageModel (edition "Standard/GP") is nil`, func(set *models.ModelSet) {
			set.Disk[slo.StandardGP] = nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			creates, drops := run(t, func(o *Orchestrator) {
				bad := cloneFrozen(o.Scenario.Models, false)
				bad.Disk = maps.Clone(bad.Disk) // cloneFrozen shares the scenario's maps
				tc.breakSet(bad)
				version := o.Cluster.Naming().CurrentVersion()
				err := o.WriteModels(bad)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("WriteModels = %v, want an error naming %q", err, tc.want)
				}
				if got := o.Cluster.Naming().CurrentVersion(); got != version {
					t.Fatalf("the rejected write moved the Naming version from %d to %d", version, got)
				}
			})
			if creates != wantCreates || drops != wantDrops {
				t.Errorf("hours 4-24 after the rejected write: %d creates, %d drops; want %d and %d as without it",
					creates, drops, wantCreates, wantDrops)
			}
		})
	}
}

// TestModelSetCloneIsTheRoundTrip checks, for the sets the repository
// writes, that Clone, the copy WriteModels stores, deep-equals what
// parsing the set's XML gives.
func TestModelSetCloneIsTheRoundTrip(t *testing.T) {
	def := DefaultModels().Set
	// examples/elasticpools: the default set with a pool policy.
	pooled := *def
	pooled.Pools = map[slo.Edition]*models.PoolPolicy{
		slo.StandardGP: {MemberFraction: 0.6, PoolSLO: "GPPOOL_Gen5_8", MemberMaxDiskGB: 64},
	}
	// examples/reproincident: two disk models sharing one zero steady
	// model, and no Create model.
	repro := models.NewModelSet(92)
	steady := models.NewHourlyNormal()
	repro.Disk[slo.PremiumBC] = &models.DiskUsageModel{
		Steady:         steady,
		ReportInterval: 20 * time.Minute,
		Persisted:      true,
		Initial: &models.InitialGrowthModel{
			Probability: 1,
			Duration:    30 * time.Minute,
			Bins:        []models.GrowthBin{{LoGB: 1331, HiGB: 1331}},
		},
	}
	repro.Disk[slo.StandardGP] = &models.DiskUsageModel{Steady: steady, ReportInterval: 20 * time.Minute}
	// What the encoder leaves out: nil CPU, pool and lifetime entries, an
	// SLO mix and new-database disk for an edition with no Create model,
	// an empty SLO mix, a negative-zero cell and nil bins.
	sparse := models.NewModelSet(5)
	sparse.Frozen = true
	h := models.NewHourlyNormal()
	h.Set(models.HourBucket{Hour: 1}, models.NormalParam{Mean: math.Copysign(0, -1)})
	h.Set(models.HourBucket{Weekend: true, Hour: 2}, models.NormalParam{Mean: math.Copysign(0, -1), Sigma: 1})
	sparse.Create[slo.StandardGP] = h
	sparse.SLOMix[slo.StandardGP] = []models.SLOWeight{}
	sparse.SLOMix[slo.PremiumBC] = []models.SLOWeight{{Name: "BC_Gen5_2", Weight: 1}}
	sparse.NewDBDiskGB[slo.PremiumBC] = models.GrowthBin{LoGB: 1, HiGB: 2}
	sparse.Disk[slo.PremiumBC] = &models.DiskUsageModel{
		Steady:         h,
		ReportInterval: time.Hour,
		Initial:        &models.InitialGrowthModel{Duration: time.Minute},
		Rapid:          &models.RapidGrowthModel{Probability: 0.5, SteadyDur: time.Hour},
	}
	sparse.CPU[slo.StandardGP] = nil
	sparse.Pools[slo.PremiumBC] = nil
	sparse.Lifetime[slo.StandardGP] = nil
	sparse.Lifetime[slo.PremiumBC] = &models.LifetimeModel{LongLivedFraction: 1}

	for _, tc := range []struct {
		name string
		set  *models.ModelSet
	}{
		{"default frozen", cloneFrozen(def, true)},
		{"default live", cloneFrozen(def, false)},
		{"reproincident", repro},
		{"elasticpools", &pooled},
		{"sparse", sparse},
	} {
		if err := tc.set.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := tc.set.Clone(), parsedCopy(t, tc.set); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Clone differs from the XML round trip:\n%+v\nparsed as\n%+v", tc.name, got, want)
		}
	}
	// DeepEqual takes -0 for 0; the encoder leaves the cell out, so it
	// reads back as +0.
	if c := sparse.Clone().Create[slo.StandardGP].Cell(models.HourBucket{Hour: 1}); math.Signbit(c.Mean) {
		t.Error("Clone kept a negative-zero cell that the XML round trip reads back as zero")
	}
}
