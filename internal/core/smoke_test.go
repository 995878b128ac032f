package core

import (
	"testing"
	"time"

	"toto/internal/slo"
)

// TestSmokeShortRun exercises the full experiment protocol end to end on
// an abbreviated scenario and checks the basic invariants the paper's
// setup implies.
func TestSmokeShortRun(t *testing.T) {
	tm := DefaultModels()
	seeds := Seeds{Population: 11, Models: 22, PLB: 33, Bootstrap: 44}
	sc := DefaultScenario("smoke", 1.0, tm.Set, seeds)
	sc.Duration = 24 * time.Hour
	sc.BootstrapDuration = 2 * time.Hour

	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("bootstrap: reserved=%.0f free=%.0f disk=%.0fGB (%.1f%%)",
		res.BootstrapReservedCores, res.BootstrapFreeCores, res.BootstrapDiskGB, 100*res.BootstrapDiskUtil)
	t.Logf("final: reserved=%.0f disk=%.0fGB (%.1f%%) coreUtil=%.3f",
		res.FinalReservedCores, res.FinalDiskGB, 100*res.FinalDiskUtil, res.FinalCoreUtil)
	t.Logf("creates=%d drops=%d popFailures=%d redirects=%d firstRedirectHour=%d failovers=%d",
		res.Creates, res.Drops, res.PopFailures, len(res.Redirects), res.FirstRedirectHour, len(res.Failovers))
	t.Logf("revenue: gross=%.0f penalty=%.0f adjusted=%.0f breached=%d dbs=%d",
		res.Revenue.Gross, res.Revenue.Penalty, res.Revenue.Adjusted, res.Revenue.Breached, res.Revenue.Databases)

	if got := res.InitialCounts[slo.PremiumBC]; got != 33 {
		t.Errorf("initial BC count = %d, want 33", got)
	}
	if got := res.InitialCounts[slo.StandardGP]; got != 187 {
		t.Errorf("initial GP count = %d, want 187", got)
	}
	if res.BootstrapDiskUtil < 0.60 || res.BootstrapDiskUtil > 0.90 {
		t.Errorf("bootstrap disk utilization = %.2f, want ~0.77", res.BootstrapDiskUtil)
	}
	if res.Creates == 0 {
		t.Error("population manager created no databases")
	}
	if res.Drops == 0 {
		t.Error("population manager dropped no databases")
	}
	if res.FinalDiskGB <= 0 || res.FinalReservedCores <= 0 {
		t.Error("final cluster state empty")
	}
	if res.Revenue.Adjusted <= 0 {
		t.Error("no adjusted revenue accrued")
	}
	// The recorder sizes its series for the measured window when it starts.
	if s, ns := res.Samples, res.NodeSamples; cap(s) != len(s) || cap(ns) != len(ns) {
		t.Errorf("cap/len: samples %d/%d, node samples %d/%d", cap(s), len(s), cap(ns), len(ns))
	}
}
