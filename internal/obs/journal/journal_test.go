package journal_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs/journal"
	"toto/internal/simclock"
)

var testStart = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func testCapacity() map[fabric.MetricName]float64 {
	return map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}
}

// TestCausalChainCrashFailover injects a chaos-style crash exactly the
// way internal/chaos does (annotation + cause bracket) and verifies the
// journal reconstructs the full chain: chaos injection → node crash →
// evacuation failover, with the failover's root cause reported as chaos.
func TestCausalChainCrashFailover(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)

	clock := simclock.New(testStart)
	cfg := fabric.DefaultConfig()
	cfg.PLBSeed = 1
	c := fabric.NewCluster(clock, 4, testCapacity(), cfg)
	w.Attach(c)
	c.Start()
	for i := 0; i < 12; i++ {
		if _, err := c.CreateService(fmt.Sprintf("db-%d", i), 1, 2, nil); err != nil {
			t.Fatalf("create db-%d: %v", i, err)
		}
	}
	clock.RunUntil(testStart.Add(time.Minute))

	// The chaos engine's injection pattern: annotate, then bracket the
	// fault call so every resulting event chains back to the annotation.
	seq := c.Annotate(fabric.Annotation{Kind: "chaos-injection", Node: "node-1", Detail: "node-crash"})
	prev := c.BeginCause(fabric.CauseChaos, seq)
	evacuated, _, err := c.CrashNode("node-1")
	c.EndCause(prev)
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if evacuated == 0 {
		t.Fatal("crash evacuated no replicas; chain has no failover to trace")
	}
	clock.RunUntil(testStart.Add(10 * time.Minute))
	c.Stop()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	idx := journal.Index(entries)

	failovers := 0
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeEvent || e.Kind != "failover" {
			continue
		}
		failovers++
		chain := journal.Chain(idx, e.Seq)
		if len(chain) < 3 {
			t.Fatalf("failover seq %d: chain length %d, want >= 3 (injection, crash, failover)", e.Seq, len(chain))
		}
		root := chain[0]
		if root.Kind != "chaos-injection" || root.Seq != seq {
			t.Errorf("failover seq %d: chain root = %s seq %d, want chaos-injection seq %d",
				e.Seq, root.Kind, root.Seq, seq)
		}
		// The crash event sits between the injection and the failover.
		foundCrash := false
		for _, link := range chain[1 : len(chain)-1] {
			if link.Kind == "node-crash" || link.Kind == "node-crashed" {
				foundCrash = true
			}
		}
		if !foundCrash {
			t.Errorf("failover seq %d: no crash link in chain %v", e.Seq, kinds(chain))
		}
		if rc := journal.RootCause(idx, e); rc != "chaos" {
			t.Errorf("failover seq %d: root cause = %q, want chaos", e.Seq, rc)
		}
	}
	if failovers == 0 {
		t.Fatal("no failover events journaled after crash")
	}
}

func kinds(chain []*journal.Entry) []string {
	out := make([]string, len(chain))
	for i, e := range chain {
		out[i] = e.Kind
	}
	return out
}

// TestQuorumWindowAttribution breaks a replica set's quorum with
// chaos-style crashes and verifies the journal carries everything
// totoscope's availability view needs: a quorum-lost annotation naming
// the fault domain, a paired quorum-restored annotation carrying the
// window length, and a causal chain that attributes the window to the
// chaos injection rather than leaving it unexplained.
func TestQuorumWindowAttribution(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)

	clock := simclock.New(testStart)
	cfg := fabric.DefaultConfig()
	cfg.PLBSeed = 1
	cfg.FaultDomains = 3
	cfg.UpgradeDomains = 3
	// Three 40-core replicas on three 64-core nodes: one per fault
	// domain, and no node can absorb a second one, so a crash strands
	// its replica instead of evacuating it.
	c := fabric.NewCluster(clock, 3, testCapacity(), cfg)
	w.Attach(c)
	c.Start()
	svc, err := c.CreateService("db", 3, 40, nil)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	primary := svc.Primary().Node.ID
	var secondaries []string
	for _, n := range []string{"node-0", "node-1", "node-2"} {
		if n != primary {
			secondaries = append(secondaries, n)
		}
	}
	clock.RunUntil(testStart.Add(time.Hour))

	crash := func(node string) {
		seq := c.Annotate(fabric.Annotation{Kind: "chaos-injection", Node: node, Detail: "node-crash"})
		prev := c.BeginCause(fabric.CauseChaos, seq)
		_, _, err := c.CrashNode(node)
		c.EndCause(prev)
		if err != nil {
			t.Fatalf("crash %s: %v", node, err)
		}
	}
	// First secondary down: quorum holds (primary + 1 of 2 secondaries).
	crash(secondaries[0])
	clock.RunUntil(testStart.Add(2 * time.Hour))
	// Second secondary down: majority gone, the window opens.
	crash(secondaries[1])
	clock.RunUntil(testStart.Add(4 * time.Hour))
	if err := c.RestartNode(secondaries[1]); err != nil {
		t.Fatalf("restart: %v", err)
	}
	clock.RunUntil(testStart.Add(5 * time.Hour))
	c.Stop()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	idx := journal.Index(entries)

	var lost, restored *journal.Entry
	for i := range entries {
		e := &entries[i]
		switch e.Kind {
		case "quorum-lost":
			if lost != nil {
				t.Fatalf("second quorum-lost window at seq %d; want exactly one", e.Seq)
			}
			lost = e
		case "quorum-restored":
			restored = e
		}
	}
	if lost == nil || restored == nil {
		t.Fatalf("journal missing quorum window: lost=%v restored=%v", lost, restored)
	}
	if lost.Service != "db" || restored.Service != "db" {
		t.Errorf("window on service %q/%q, want db", lost.Service, restored.Service)
	}
	if !strings.HasPrefix(lost.Detail, "fd-") {
		t.Errorf("quorum-lost detail %q does not name a fault domain", lost.Detail)
	}
	if got := restored.Value; got != (2 * time.Hour).Seconds() {
		t.Errorf("restored window length = %.0fs, want 7200s", got)
	}
	// The attribution totoscope prints: the window's chain must reach
	// back to the chaos injection that crashed the second secondary.
	if rc := journal.RootCause(idx, lost); rc != "chaos" {
		t.Errorf("quorum window root cause = %q, want chaos (chain %v)",
			rc, kinds(journal.Chain(idx, lost.Seq)))
	}
}

// TestAnchorsRankAndHorizon pins the shared anchor tracker the alert and
// traffic engines bracket their annotations with: the most exceptional
// class in range wins over a more recent symptom, anchors age out past
// the horizon, non-anchors are ignored, an anchor without a recorded
// cause takes its class's cause kind, and neither method allocates.
func TestAnchorsRankAndHorizon(t *testing.T) {
	t0 := time.Date(2020, time.June, 1, 12, 0, 0, 0, time.UTC)
	var a journal.Anchors
	if seq, kind, class := a.Best(t0, time.Hour); seq != 0 || kind != fabric.CauseNone || class != "" {
		t.Fatalf("empty tracker returned %d/%v/%q", seq, kind, class)
	}
	a.Observe(fabric.Annotation{Seq: 1, Kind: "node-crash", Time: t0})
	a.Observe(fabric.Annotation{Seq: 2, Kind: "violation", Time: t0.Add(30 * time.Minute), Cause: fabric.CauseCrash})
	a.Observe(fabric.Annotation{Seq: 3, Kind: "request-shed", Time: t0.Add(40 * time.Minute)})

	now := t0.Add(50 * time.Minute)
	if seq, kind, class := a.Best(now, time.Hour); seq != 1 || kind != fabric.CauseCrash || class != "crash" {
		t.Errorf("in range of both: got %d/%v/%q, want the crash anchor 1/crash/crash", seq, kind, class)
	}
	if seq, kind, class := a.Best(now, 30*time.Minute); seq != 2 || kind != fabric.CauseCrash || class != "violation" {
		t.Errorf("crash out of range: got %d/%v/%q, want the violation 2/crash/violation", seq, kind, class)
	}
	if seq, _, _ := a.Best(now, 10*time.Minute); seq != 0 {
		t.Errorf("nothing in range: got seq %d", seq)
	}

	ann := fabric.Annotation{Seq: 4, Kind: "chaos-injection", Time: now}
	if n := testing.AllocsPerRun(100, func() {
		a.Observe(ann)
		a.Best(now, time.Hour)
	}); n != 0 {
		t.Errorf("Observe+Best allocate %.1f per call", n)
	}
}
