package fabric

import (
	"testing"
	"time"
)

func TestNodeDownEvacuatesReplicas(t *testing.T) {
	c := newTestCluster(t, 4, 1.0)
	svc, _ := c.CreateService("db", 1, 4, nil)
	node := svc.Replicas[0].Node

	evacuated, stranded, err := c.SetNodeDown(node.ID)
	if err != nil {
		t.Fatal(err)
	}
	if evacuated != 1 || stranded != 0 {
		t.Fatalf("evacuated=%d stranded=%d", evacuated, stranded)
	}
	if svc.Replicas[0].Node == node {
		t.Error("replica still on the drained node")
	}
	if node.ReplicaCount() != 0 || node.Load(MetricCores) != 0 {
		t.Error("drained node not empty")
	}
	if node.Up() {
		t.Error("node reports up")
	}
	if c.UpNodes() != 3 {
		t.Errorf("up nodes = %d", c.UpNodes())
	}
}

func TestDownNodeAcceptsNoPlacements(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	c.SetNodeDown("node-0")
	for i := 0; i < 10; i++ {
		svc, err := c.CreateService(string(rune('a'+i)), 1, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if svc.Replicas[0].Node.ID == "node-0" {
			t.Fatal("placement chose the drained node")
		}
	}
	// A 2-replica service cannot fit on the single remaining node.
	if _, err := c.CreateService("multi", 2, 1, nil); err == nil {
		t.Error("anti-affinity satisfied with a drained node")
	}
}

func TestNodeUpRestoresService(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	c.SetNodeDown("node-0")
	if err := c.SetNodeUp("node-0"); err != nil {
		t.Fatal(err)
	}
	if c.UpNodes() != 2 {
		t.Error("node not restored")
	}
	// Errors on double transitions and unknown nodes.
	if err := c.SetNodeUp("node-0"); err == nil {
		t.Error("double up accepted")
	}
	if _, _, err := c.SetNodeDown("ghost"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := c.SetNodeUp("ghost"); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestNodeDownStrandsWhenClusterFull(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	a, _ := c.CreateService("a", 1, 60, nil)
	b, _ := c.CreateService("b", 1, 60, nil)
	// Neither node can absorb the other's 60-core replica.
	_, stranded, err := c.SetNodeDown(a.Replicas[0].Node.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stranded != 1 {
		t.Errorf("stranded = %d, want 1", stranded)
	}
	_ = b
}

func TestEvacuationPromotesPrimaries(t *testing.T) {
	c := newTestCluster(t, 5, 1.0)
	svc, _ := c.CreateService("bc", 4, 2, nil)
	primaryNode := svc.Primary().Node
	c.SetNodeDown(primaryNode.ID)
	if svc.Primary() == nil {
		t.Fatal("no primary after evacuation")
	}
	if svc.Primary().Node == primaryNode {
		t.Error("primary still on drained node")
	}
	// A drain is planned: its promotion downtime is reported but never
	// priced by the SLA model, so it lands in PlannedDowntime.
	if svc.PlannedDowntime == 0 {
		t.Error("primary evacuation accrued no planned downtime")
	}
	if svc.Downtime != 0 {
		t.Errorf("planned drain charged unplanned downtime %v", svc.Downtime)
	}
	if svc.PlannedMoves == 0 || svc.UnplannedFailovers != 0 {
		t.Errorf("drain accounting: planned=%d unplanned=%d, want planned>0 unplanned=0",
			svc.PlannedMoves, svc.UnplannedFailovers)
	}
}

func TestEvacuationMovesAreNotFailoverKPI(t *testing.T) {
	c := newTestCluster(t, 4, 1.0)
	c.CreateService("db", 1, 4, nil)
	var kinds []EventKind
	c.Subscribe(func(ev Event) { kinds = append(kinds, ev.Kind) })
	c.SetNodeDown("node-0")
	c.SetNodeDown("node-1")
	if c.UnplannedFailoverCount() != 0 {
		t.Errorf("maintenance moves counted as failovers: %d", c.UnplannedFailoverCount())
	}
	sawDown := false
	for _, k := range kinds {
		if k == EventNodeDown {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("no node-down event emitted")
	}
}

func TestRollingUpgradeSchedule(t *testing.T) {
	c := newTestCluster(t, 4, 1.0)
	c.Start()
	defer c.Stop()
	for i := 0; i < 8; i++ {
		if _, err := c.CreateService(string(rune('a'+i)), 1, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	start := c.clock.Now().Add(time.Hour)
	perNode := 30 * time.Minute
	c.ScheduleRollingUpgrade(start, perNode)

	// Mid-upgrade: exactly one node down at any instant.
	c.clock.RunUntil(start.Add(15 * time.Minute))
	if c.UpNodes() != 3 {
		t.Errorf("up nodes mid-upgrade = %d, want 3", c.UpNodes())
	}
	c.clock.RunUntil(start.Add(75 * time.Minute)) // inside node 2's window
	if c.UpNodes() != 3 {
		t.Errorf("up nodes during second window = %d, want 3", c.UpNodes())
	}
	// After the full rollout everything is back and all services placed
	// on up nodes.
	c.clock.RunUntil(start.Add(4*perNode + time.Minute))
	if c.UpNodes() != 4 {
		t.Errorf("up nodes after upgrade = %d", c.UpNodes())
	}
	for _, svc := range c.LiveServices() {
		for _, r := range svc.Replicas {
			if r.Node == nil || !r.Node.Up() {
				t.Fatalf("replica %s on down/nil node after upgrade", r.ID)
			}
		}
	}
}
