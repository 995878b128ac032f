package core

import (
	"os"
	"testing"
)

// TestChaosWeekScenario runs the repository's scenarios/chaos-week.json
// — a fixed-seed week that exercises every fault kind (crash, flap,
// domain outage, build failures and slowdown, report loss, naming
// errors) — and asserts the property the chaos subsystem promises: the
// continuous invariant checker validates the cluster after every event
// and finds nothing, while the fault schedule demonstrably fired.
func TestChaosWeekScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("7-day chaos scenario")
	}
	data, err := os.ReadFile("../../scenarios/chaos-week.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := ParseScenarioFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Chaos == nil {
		t.Fatal("chaos-week.json has no chaos section")
	}
	if sf.Alerts == nil || len(sf.Alerts.Rules)+len(sf.Alerts.SLOs) == 0 {
		t.Fatal("chaos-week.json has no alerts section")
	}
	sc := sf.Build(DefaultModels().Set)

	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := res.Chaos
	if st == nil {
		t.Fatal("run returned no chaos stats")
	}
	t.Logf("chaos stats: %+v", *st)
	t.Logf("moves: planned=%d unplanned=%d plannedDowntime=%v",
		res.PlannedMoves, res.UnplannedFailovers, res.PlannedDowntime)

	// The schedule must actually have hurt the cluster...
	if st.Crashes == 0 || st.Restarts == 0 || st.DomainOutages == 0 {
		t.Errorf("fault schedule did not fire: %+v", *st)
	}
	if st.ReportsLostInjected == 0 || st.NamingErrorsInjected == 0 {
		t.Errorf("rate channels did not fire: %+v", *st)
	}
	if res.UnplannedFailovers == 0 {
		t.Error("no unplanned failovers in a week of faults")
	}
	// ...and every event-by-event validation must have passed.
	if st.InvariantChecks == 0 {
		t.Fatal("continuous invariant checker never ran")
	}
	if len(st.InvariantViolations) != 0 {
		t.Fatalf("invariant violations: %v", st.InvariantViolations)
	}
	// The planned/unplanned split stays consistent with telemetry: every
	// recorded failover is an unplanned movement.
	if len(res.Failovers) != res.UnplannedFailovers {
		t.Errorf("telemetry failovers %d != unplanned count %d", len(res.Failovers), res.UnplannedFailovers)
	}
	// Unplanned downtime is priced; the run must still produce revenue.
	if res.Revenue.Adjusted <= 0 || res.Revenue.Adjusted > res.Revenue.Gross {
		t.Errorf("revenue under chaos: gross=%v adjusted=%v", res.Revenue.Gross, res.Revenue.Adjusted)
	}

	// The watch layer must have seen the week: the burn-rate SLO fires on
	// the crash-induced failover bursts, and — mirroring the failover
	// root-cause assertion above — every fired alert chains to a chaos
	// injection. An alert with any other (or no) root cause means the
	// causal bracket or the anchor ranking regressed.
	al := res.Alerts
	if al == nil {
		t.Fatal("run returned no alert stats")
	}
	t.Logf("alert stats: %+v", *al)
	if al.ByRule["failover-budget"] == 0 {
		t.Error("burn-rate SLO never fired in a week of crash bursts")
	}
	for _, tr := range res.AlertHistory {
		if tr.State != "firing" {
			continue
		}
		if tr.Root != "chaos" || tr.RootSeq == 0 {
			t.Errorf("alert %q fired at %s with root %q (seq %d), want chaos",
				tr.Rule, tr.Time.Format("2006-01-02T15:04"), tr.Root, tr.RootSeq)
		}
	}
	if al.Fired == 0 {
		t.Error("no alerts fired at all")
	}
}
