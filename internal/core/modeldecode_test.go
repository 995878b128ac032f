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
// mid-run model rewrite and a malformed blob, and checks that the XML is
// decoded once per written version and shared by every reader.
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
			got := o.Manager(n.ID).Models()
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
		if naming.Decodes() != writes {
			t.Fatalf("%s: %d decodes for %d model writes", stage, naming.Decodes(), writes)
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
	active := o.Manager(o.Cluster.Nodes()[0].ID).Models()

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
