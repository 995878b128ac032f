package core

import (
	"bytes"
	"os"
	"testing"
	"time"

	"toto/internal/obs/journal"
	"toto/internal/traffic"
)

// trafficPlaneKind reports whether a journal annotation was emitted by
// the request-level traffic plane.
func trafficPlaneKind(kind string) bool {
	switch kind {
	case traffic.KindRequestShed, traffic.KindBreakerOpen, traffic.KindBreakerHalfOpen,
		traffic.KindBreakerClosed, traffic.KindRetryBudgetExhausted, traffic.KindRequestErrors:
		return true
	}
	return false
}

// TestTrafficWeekScenario runs scenarios/traffic-week.json — seven days
// of diurnal request traffic against the chaos-week fault schedule plus
// a half-cluster domain outage — and asserts the traffic plane's
// robustness contract: circuit breakers open during the domain outages,
// every shed and breaker annotation chains to a chaos or crash root
// cause (nothing fails for an unexplained reason), and the request error
// rate returns to zero once the faults clear.
func TestTrafficWeekScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("7-day traffic scenario")
	}
	data, err := os.ReadFile("../../scenarios/traffic-week.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := ParseScenarioFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Traffic == nil {
		t.Fatal("traffic-week.json has no traffic section")
	}
	if sf.Chaos == nil {
		t.Fatal("traffic-week.json has no chaos section")
	}
	sc := sf.Build(DefaultModels().Set)
	var buf bytes.Buffer
	sc.Journal = journal.NewWriter(&buf)

	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sc.Journal.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	st := res.Traffic
	if st == nil {
		t.Fatal("run returned no traffic stats")
	}
	t.Logf("traffic stats: %+v", *st)

	// The plane must have flowed real traffic and felt the week's faults.
	if st.Arrivals == 0 || st.Dispatched == 0 {
		t.Fatal("no requests flowed")
	}
	if st.Shed == 0 {
		t.Error("the half-cluster outage shed no requests")
	}
	if st.BreakerOpens == 0 || st.BreakerCloses == 0 {
		t.Errorf("breaker lifecycle did not run: opens=%d closes=%d", st.BreakerOpens, st.BreakerCloses)
	}
	if st.Errors == 0 {
		t.Error("a week of faults produced no request errors")
	}
	// Retry rationing: granted retries never exceed the budget fraction
	// of offered load, even through correlated outages.
	if budget := float64(st.Arrivals) * 0.2; float64(st.Retries) > budget {
		t.Errorf("retries %d exceed budget %.0f", st.Retries, budget)
	}

	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	idx := journal.Index(entries)

	// Locate the domain outages from their chaos injections.
	var outages []time.Time
	for i := range entries {
		e := &entries[i]
		if e.Type == journal.TypeAnnotation && e.Kind == "chaos-injection" && e.Detail == "domain-outage" {
			outages = append(outages, e.Time())
		}
	}
	if len(outages) == 0 {
		t.Fatal("no domain-outage injections journaled")
	}

	// Breakers must open during a domain outage, and every traffic-plane
	// failure annotation must chain to the incident that explains it.
	opensInOutage := 0
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation || !trafficPlaneKind(e.Kind) {
			continue
		}
		if e.Kind == traffic.KindBreakerOpen {
			for _, at := range outages {
				if d := e.Time().Sub(at); d >= 0 && d <= time.Hour {
					opensInOutage++
					break
				}
			}
		}
		switch e.Kind {
		case traffic.KindRequestShed, traffic.KindBreakerOpen,
			traffic.KindBreakerHalfOpen, traffic.KindBreakerClosed:
			if root := journal.RootCause(idx, e); root != "chaos" && root != "crash" {
				t.Errorf("%s at %s (service %s) has root cause %q, want chaos or crash",
					e.Kind, e.Time().Format("2006-01-02T15:04"), e.Service, root)
			}
		}
	}
	if opensInOutage == 0 {
		t.Error("no breaker opened during a domain outage")
	}

	// The error rate must spike under the faults and return to zero once
	// the cluster heals: graceful degradation, then full recovery.
	series, ok := o.Series().Lookup(traffic.SeriesErrorRate)
	if !ok {
		t.Fatal("no traffic.error.rate series recorded")
	}
	vals := series.Values()
	if len(vals) == 0 {
		t.Fatal("traffic.error.rate series is empty")
	}
	peak := 0.0
	for _, v := range vals {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Error("error rate never rose during the fault schedule")
	}
	if last := vals[len(vals)-1]; last != 0 {
		t.Errorf("error rate did not return to zero after recovery: %v", last)
	}

	// The traffic error-rate alert rule is the plane's tie-in to the
	// watch layer: the outage hours must have fired it.
	if res.Alerts == nil {
		t.Fatal("run returned no alert stats")
	}
	t.Logf("alert stats: %+v", *res.Alerts)
	if res.Alerts.ByRule["traffic-error-rate"] == 0 {
		t.Error("traffic-error-rate alert never fired across the fault week")
	}
}
