package fabric

import (
	"testing"
	"time"

	"toto/internal/simclock"
)

// slowTestCluster builds a cluster with gray-failure detection enabled
// under fast test thresholds: detection needs 4 samples, quarantine
// after 10 minutes over threshold, 30-minute probation, draining from
// 10 minutes into the quarantine.
func slowTestCluster(t *testing.T, nodes int) (*Cluster, *simclock.Clock) {
	t.Helper()
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	c := NewCluster(clock, nodes, testCapacity(), cfg)
	c.EnableSlowNodeDetection(SlowNodeConfig{
		EWMAAlpha:     0.2,
		Threshold:     1.75,
		MinSamples:    4,
		Sustain:       10 * time.Minute,
		Probation:     30 * time.Minute,
		DrainAfter:    10 * time.Minute,
		MaxDrainMoves: 4,
		DrainHeadroom: 0.05,
	})
	return c, clock
}

// feedLatencies gives every node `count` observations of `ms`, except
// `slow` (nil for none) which observes slowMs.
func feedLatencies(c *Cluster, count int, ms, slowMs float64, slow *Node) {
	for i := 0; i < count; i++ {
		for _, n := range c.Nodes() {
			v := ms
			if n == slow {
				v = slowMs
			}
			c.ObserveNodeLatency(n, v)
		}
	}
}

// TestSlowNodeLifecycle walks the full detect → quarantine → drain →
// recover state machine and checks every annotation chains back to the
// chaos anchor, so totoscope attribution roots quarantines at chaos.
func TestSlowNodeLifecycle(t *testing.T) {
	c, clock := slowTestCluster(t, 6)
	var anns []Annotation
	c.SubscribeAnnotations(func(a Annotation) { anns = append(anns, a) })

	// Place load so the slow node has replicas to drain.
	for i := 0; i < 12; i++ {
		name := "svc-" + string(rune('a'+i))
		if _, err := c.CreateService(name, 3, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	slow := c.Nodes()[0]
	if slow.ReplicaCount() == 0 {
		t.Fatalf("test setup: %s hosts nothing to drain", slow.ID)
	}

	// The chaos engine would note the injection anchor before slowness
	// becomes observable.
	const anchorSeq = 7777
	c.NoteSlowNodeAnchor(slow, anchorSeq)

	// node-0 serves at 4× the cluster's latency.
	feedLatencies(c, 6, 10, 40, slow)
	c.Start()
	defer c.Stop()

	// First scan (t+5m): detection.
	clock.RunUntil(testStart.Add(6 * time.Minute))
	det := findAnnotation(anns, "slow-node-detected")
	if det == nil {
		t.Fatal("no slow-node-detected annotation after first scan")
	}
	if det.Node != slow.ID || det.CauseSeq != anchorSeq || det.Cause != CauseChaos {
		t.Errorf("detection = node %s cause %v/%d, want %s chaos/%d",
			det.Node, det.Cause, det.CauseSeq, slow.ID, anchorSeq)
	}
	if slow.Quarantined(clock.Now()) {
		t.Error("quarantined before Sustain elapsed")
	}

	// t+15m: over threshold for 10 minutes — quarantine.
	clock.RunUntil(testStart.Add(16 * time.Minute))
	quar := findAnnotation(anns, "slow-node-quarantined")
	if quar == nil {
		t.Fatal("no slow-node-quarantined annotation after Sustain")
	}
	if quar.Node != slow.ID || quar.CauseSeq != det.Seq || quar.Cause != CauseSlowNode {
		t.Errorf("quarantine chains to %d (%v), want detection seq %d", quar.CauseSeq, quar.Cause, det.Seq)
	}
	if !slow.Quarantined(clock.Now()) {
		t.Fatal("node not quarantined after sustained slowness")
	}
	st := c.SlowNodeStats()
	if st.Detections != 1 || st.Quarantines != 1 {
		t.Errorf("stats = %+v, want 1 detection / 1 quarantine", st)
	}

	// t+30m: DrainAfter elapsed — planned moves empty the node. Drain
	// moves are planned: they must not charge SLA-priced downtime.
	unplannedBefore := c.UnplannedFailoverCount()
	clock.RunUntil(testStart.Add(41 * time.Minute))
	if got := c.SlowNodeStats().DrainMoves; got == 0 {
		t.Fatal("no drain moves while quarantine sustained")
	}
	if slow.ReplicaCount() != 0 {
		t.Errorf("slow node still hosts %d replicas after drain scans", slow.ReplicaCount())
	}
	if c.UnplannedFailoverCount() != unplannedBefore {
		t.Error("drain moves were accounted as unplanned failovers")
	}
	for _, mv := range anns {
		if mv.Kind == "slow-node-drain" {
			t.Error("drain emitted its own annotation kind; moves should chain via ambient cause")
		}
	}
	if err := CheckInvariants(c); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}

	// Probation lapses at t+46m. Healthy samples afterwards close the
	// episode with a recovery chained to the quarantine.
	clock.RunUntil(testStart.Add(47 * time.Minute))
	if slow.Quarantined(clock.Now()) {
		t.Fatal("quarantine did not lapse after Probation")
	}
	feedLatencies(c, 6, 10, 10, nil)
	clock.RunUntil(testStart.Add(52 * time.Minute))
	rec := findAnnotation(anns, "slow-node-recovered")
	if rec == nil {
		t.Fatal("no slow-node-recovered annotation after healthy probation")
	}
	if rec.Node != slow.ID || rec.CauseSeq != quar.Seq || rec.Cause != CauseSlowNode {
		t.Errorf("recovery chains to %d (%v), want quarantine seq %d", rec.CauseSeq, rec.Cause, quar.Seq)
	}
	if got := c.SlowNodeStats().Recoveries; got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
}

func findAnnotation(anns []Annotation, kind string) *Annotation {
	for i := range anns {
		if anns[i].Kind == kind {
			return &anns[i]
		}
	}
	return nil
}

// TestSlowNodeQuarantineExcludesTargets is the regression test for the
// placement contract: while a slow node is quarantined, chooseTarget and
// balance never select it, and once probation expires it rejoins
// placement.
func TestSlowNodeQuarantineExcludesTargets(t *testing.T) {
	c, clock := slowTestCluster(t, 5)
	for i := 0; i < 10; i++ {
		if _, err := c.CreateService("svc-"+string(rune('a'+i)), 3, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	slow := c.Nodes()[0]
	feedLatencies(c, 6, 10, 50, slow)
	c.Start()
	defer c.Stop()
	clock.RunUntil(testStart.Add(16 * time.Minute))
	if !slow.Quarantined(clock.Now()) {
		t.Fatal("setup: node not quarantined")
	}

	// chooseTarget over every replica in the cluster: the quarantined
	// node must never come back, no matter how empty draining left it.
	now := clock.Now()
	for _, svc := range c.LiveServices() {
		for _, r := range svc.Replicas {
			if r.Node == nil || r.Node == slow {
				continue
			}
			if tgt := c.plb.chooseTarget(r); tgt == slow {
				t.Fatalf("chooseTarget handed %s to quarantined %s", r.ID, slow.ID)
			}
		}
	}
	// balance must not use it as the landing node either, even though an
	// emptied node is by construction the least loaded.
	c.plb.cfg.BalancingEnabled = true
	c.plb.cfg.BalanceSpread = 0.0001
	before := slow.ReplicaCount()
	for i := 0; i < 5; i++ {
		c.plb.balance(now)
	}
	if slow.ReplicaCount() > before {
		t.Fatalf("balance moved replicas onto quarantined %s", slow.ID)
	}
	// New placements skip it too.
	if svc, err := c.CreateService("post-quarantine", 3, 4, nil); err == nil {
		for _, r := range svc.Replicas {
			if r.Node == slow {
				t.Fatalf("placement landed %s on quarantined %s", r.ID, slow.ID)
			}
		}
	}

	// After probation the node is eligible again: as the emptiest node it
	// is the natural target for the next balancing move.
	clock.RunUntil(testStart.Add(50 * time.Minute))
	feedLatencies(c, 6, 10, 10, nil)
	clock.RunUntil(testStart.Add(56 * time.Minute))
	now = clock.Now()
	if slow.Quarantined(now) {
		t.Fatal("quarantine outlived probation")
	}
	found := false
	for _, svc := range c.LiveServices() {
		for _, r := range svc.Replicas {
			if r.Node == nil || r.Node == slow {
				continue
			}
			if c.plb.chooseTarget(r) == slow {
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Error("recovered node never reselected by chooseTarget after probation")
	}
}

// TestSlowNodeObservationInert pins the inertness contract: without
// EnableSlowNodeDetection, feeding latency observations and noting
// anchors is free — no state, no allocations, no behavior change.
func TestSlowNodeObservationInert(t *testing.T) {
	c := newTestCluster(t, 4, 1.0)
	if c.SlowNodeDetectionEnabled() {
		t.Fatal("detection enabled by default")
	}
	n := c.Nodes()[0]
	if allocs := testing.AllocsPerRun(200, func() {
		c.ObserveNodeLatency(n, 25)
		c.NoteSlowNodeAnchor(n, 42)
	}); allocs != 0 {
		t.Errorf("inert observation allocates %v/op", allocs)
	}
	if got := c.SlowNodeStats(); got != (SlowNodeStats{}) {
		t.Errorf("stats without detector = %+v", got)
	}
}

// TestSlowNodeObservationByNode: with detection on, observations and
// anchors land in the observed node's own state at zero allocations,
// and a node the detector does not know — another cluster's node at the
// same index, or nil — changes nothing.
func TestSlowNodeObservationByNode(t *testing.T) {
	c, _ := slowTestCluster(t, 4)
	other, _ := slowTestCluster(t, 4)
	d := c.slowDet
	n := c.Nodes()[2]
	foreign := other.Nodes()[2]

	c.ObserveNodeLatency(foreign, 99)
	c.NoteSlowNodeAnchor(foreign, 7)
	c.ObserveNodeLatency(nil, 99)
	c.NoteSlowNodeAnchor(nil, 7)
	for i, st := range d.state {
		if st != (slowNodeState{}) {
			t.Fatalf("a foreign or nil node touched node %d's state: %+v", i, st)
		}
	}
	if got := other.slowDet.state[2]; got != (slowNodeState{}) {
		t.Fatalf("observing through c touched the other cluster's detector: %+v", got)
	}

	c.NoteSlowNodeAnchor(n, 42)
	c.ObserveNodeLatency(n, 10)
	c.ObserveNodeLatency(n, 20)
	st := d.state[2]
	if st.samples != 2 || st.ewma != 10+0.2*(20-10) || st.anchorSeq != 42 {
		t.Fatalf("node-2 state = %+v, want 2 samples, ewma 12, anchor 42", st)
	}
	for i, o := range d.state {
		if i != 2 && o != (slowNodeState{}) {
			t.Fatalf("observing node-2 touched node %d: %+v", i, o)
		}
	}

	if allocs := testing.AllocsPerRun(200, func() {
		c.ObserveNodeLatency(n, 25)
		c.NoteSlowNodeAnchor(n, 42)
		c.ObserveNodeLatency(foreign, 25)
	}); allocs != 0 {
		t.Errorf("enabled observation allocates %v/op", allocs)
	}
}

// TestSlowNodeDrainDefersWithoutHeadroom pins the upgrade-walker-derived
// safety condition: when the rest of the cluster cannot absorb the slow
// node's load with headroom to spare, the drain waits instead of
// overloading the survivors.
func TestSlowNodeDrainDefersWithoutHeadroom(t *testing.T) {
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	// 4 nodes × 12 cores: nearly full, so no headroom for a drain.
	c := NewCluster(clock, 4, map[MetricName]float64{
		MetricCores: 12, MetricDiskGB: 1024, MetricMemoryGB: 64,
	}, cfg)
	c.EnableSlowNodeDetection(SlowNodeConfig{
		MinSamples: 4, Sustain: 5 * time.Minute, Probation: time.Hour,
		DrainAfter: 5 * time.Minute, DrainHeadroom: 0.15,
	})
	// Two 4-replica services load every node to 8 of 12 cores. A single
	// moved replica would still fit (8+4 = 12), so only the headroom
	// check stands between the drain and an overloaded survivor set:
	// free-after-drain = 36-24-8 = 4 cores < 0.15×36 = 5.4 required.
	for i := 0; i < 2; i++ {
		if _, err := c.CreateService("svc-"+string(rune('a'+i)), 4, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	slow := c.Nodes()[0]
	feedLatencies(c, 6, 10, 60, slow)
	c.Start()
	defer c.Stop()
	clock.RunUntil(testStart.Add(time.Hour))
	if got := c.SlowNodeStats().DrainMoves; got != 0 {
		t.Errorf("drained %d replicas with no capacity headroom", got)
	}
	if slow.ReplicaCount() == 0 {
		t.Error("slow node emptied despite failing the safety check")
	}
}
