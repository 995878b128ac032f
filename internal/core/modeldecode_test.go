package core

import (
	"testing"
	"time"

	"toto/internal/models"
)

// Naming Service reads of the run below and of Run(shortScenario(1.0)),
// recorded before the decode memo existed. The memo must keep one counted
// read per reader per poll, so neither may move.
const (
	pinnedProtocolNamingReads = 3674
	pinnedRunNamingReads      = 6424
)

// TestModelXMLDecodedOncePerWrite walks the experiment protocol with a
// mid-run model rewrite and a malformed blob, and checks that the Naming
// Service runs the decoder once per written version and every reader
// holds the one decoded set, and that the persisted disk loads, written
// beside it as numbers, are never decoded.
func TestModelXMLDecodedOncePerWrite(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	naming := o.Cluster.Naming()
	writes := int64(0)
	put := func(data []byte) {
		naming.Put(models.NamingKey, data)
		writes++
	}
	writeModels := func(set *models.ModelSet) {
		if err := o.WriteModels(set); err != nil {
			t.Fatal(err)
		}
		writes++
	}
	// shared checks that every RgManager (and, once it has woken, the
	// Population Manager) holds the same decoded set, and returns it.
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
		if naming.Decodes(models.NamingKey) != writes {
			t.Fatalf("%s: %d decodes for %d model writes", stage, naming.Decodes(models.NamingKey), writes)
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
	// ticker and the hourly wakeup pick it up, decoding it once.
	rewrite := cloneFrozen(sc.Models, false)
	rewrite.RingShare *= 2
	data, err := rewrite.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	put(data)
	o.Clock.RunUntil(now.Add(4 * time.Hour))
	if got := shared("rewrite", true); got == live || got.RingShare != rewrite.RingShare {
		t.Fatalf("rewrite not picked up: ring share %v, want %v", got.RingShare, rewrite.RingShare)
	}
	active := o.Manager(o.Cluster.Nodes()[0]).Models()

	// A malformed blob is decoded (and rejected) once; the RgManagers keep
	// the previous models and the Population Manager skips churn.
	put([]byte("<broken"))
	o.Clock.RunUntil(now.Add(5 * time.Hour))
	if shared("malformed", false) != active {
		t.Fatal("malformed blob replaced the active models")
	}
	if o.PopMgr.Models() != nil {
		t.Fatal("population manager used a malformed blob")
	}

	put(data)
	o.Clock.RunUntil(now.Add(6 * time.Hour))
	shared("repaired", true)

	// Every write other than the model writes stored a persisted load, as
	// a number: no database's load key was ever decoded.
	parses := int64(0)
	for _, svc := range o.Cluster.Services() {
		parses += naming.Decodes("toto/load/" + svc.Name + "/diskGB")
	}
	if loadWrites := naming.CurrentVersion() - writes; parses != 0 || loadWrites == 0 {
		t.Errorf("persisted loads parsed %d times for %d written values, want 0 for at least one", parses, loadWrites)
	}

	if got := naming.Reads(); got != pinnedProtocolNamingReads {
		t.Errorf("Naming reads = %d, want %d (pinned before the decode memo)", got, pinnedProtocolNamingReads)
	}
}

func TestRunNamingReadsPinned(t *testing.T) {
	res, err := Run(shortScenario(t, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.NamingReads != pinnedRunNamingReads {
		t.Errorf("Result.NamingReads = %d, want %d (pinned before the decode memo)", res.NamingReads, pinnedRunNamingReads)
	}
}

// TestOrchestratorsShareDecodedModels runs two clusters side by side in
// one process, as fleet's workers and a density study do, and checks that
// both hold the one decoded set of each blob they write: every RgManager
// and both Population Managers, per phase. A rewrite with the ring share
// doubled is a new blob and gets a new set.
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
	// holds checks that every RgManager of cs (and their Population
	// Managers, withPop) hold one set, and returns it.
	holds := func(stage string, withPop bool, cs ...*Orchestrator) *models.ModelSet {
		t.Helper()
		var set *models.ModelSet
		for i, o := range cs {
			for _, n := range o.Cluster.Nodes() {
				got := o.Manager(n).Models()
				if set == nil {
					set = got
				}
				if got == nil || got != set {
					t.Fatalf("%s: cluster %d's manager on %s holds %p, want the shared %p", stage, i, n.ID, got, set)
				}
			}
			if withPop && o.PopMgr.Models() != set {
				t.Fatalf("%s: cluster %d's population manager holds %p, want the shared %p", stage, i, o.PopMgr.Models(), set)
			}
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
	for _, o := range orch {
		write(o, cloneFrozen(base.Models, true))
		o.Start()
		if _, err := o.BootstrapPopulation(); err != nil {
			t.Fatal(err)
		}
		o.Clock.RunUntil(base.Start.Add(base.BootstrapDuration))
	}
	frozen := holds("bootstrap", false, orch[:]...)

	for _, o := range orch {
		write(o, cloneFrozen(base.Models, false))
		o.PopMgr.Start()
		o.Clock.RunUntil(o.Clock.Now().Add(2 * time.Hour))
	}
	live := holds("live", true, orch[:]...)
	if live == frozen || live.Frozen {
		t.Fatal("live phase holds the frozen set")
	}

	rewrite := cloneFrozen(base.Models, false)
	rewrite.RingShare *= 2
	write(orch[0], rewrite)
	orch[0].Clock.RunUntil(orch[0].Clock.Now().Add(time.Hour))
	if got := holds("rewrite", true, orch[0]); got == live || got.RingShare != rewrite.RingShare {
		t.Fatalf("rewrite holds ring share %v (set %p), want a new set with %v", got.RingShare, got, rewrite.RingShare)
	}
	if holds("other cluster", false, orch[1]) != live {
		t.Fatal("a rewrite in one cluster reached the other")
	}
	write(orch[1], rewrite)
	holds("both rewritten", false, orch[:]...)
}
