package core

import (
	"os"
	"reflect"
	"testing"
	"time"

	"toto/internal/obs/alert"
	"toto/internal/obs/timeseries"
)

// TestScenarioRunsTwice runs one Scenario twice and checks that each run
// builds layers of its own from the specs: a fresh series store that
// holds the whole run, the same Result both times, and the Scenario left
// as it was. An empty alerts spec builds an idle engine (and the store
// it reads) without moving the Result.
func TestScenarioRunsTwice(t *testing.T) {
	data, err := os.ReadFile("../../scenarios/traffic-week.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := ParseScenarioFile(data)
	if err != nil {
		t.Fatal(err)
	}
	sf.Days = 1
	sc := sf.Build(DefaultModels().Set)
	before := *sc

	var stores [2]*timeseries.Store
	var digests [2]string
	for i := range stores {
		o, err := NewOrchestrator(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run()
		if err != nil {
			t.Fatal(err)
		}
		stores[i], digests[i] = o.Series(), resultDigest(t, res)
		up, ok := stores[i].Lookup(timeseries.SeriesUpNodes)
		if !ok {
			t.Fatalf("run %d: no %s series", i, timeseries.SeriesUpNodes)
		}
		// 6 bootstrap hours and 24 measured hours at 10-minute resolution,
		// the collector's first sample and its closing one.
		if up.Len() != 182 || up.Dropped() != 0 {
			t.Errorf("run %d: %s holds %d samples, dropped %d; want 182, 0",
				i, timeseries.SeriesUpNodes, up.Len(), up.Dropped())
		}
	}
	if stores[0] == stores[1] {
		t.Error("both runs wrote the same series store")
	}
	if digests[0] != digests[1] {
		t.Errorf("Result digests %s, %s differ between the runs", digests[0], digests[1])
	}
	if !reflect.DeepEqual(before, *sc) {
		t.Error("running the scenario changed its fields")
	}

	var plain string
	for _, spec := range []*alert.Spec{nil, {}} {
		sc := DefaultScenario("alerts", 1.0, DefaultModels().Set, testSeeds())
		sc.Duration = 24 * time.Hour
		sc.Alerts = spec
		o, err := NewOrchestrator(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run()
		if err != nil {
			t.Fatal(err)
		}
		d := resultDigest(t, res)
		if spec == nil {
			plain = d
			continue
		}
		if d != plain {
			t.Errorf("an empty alerts spec moved the Result digest: %s, want %s", d, plain)
		}
		if o.Alerts() == nil || o.Series() == nil {
			t.Errorf("an empty alerts spec built alerts %v, series %v; want both", o.Alerts(), o.Series())
		}
	}
}
