package fabric

import (
	"errors"
	"testing"
	"time"
)

func TestResizeInPlace(t *testing.T) {
	c := newTestCluster(t, 3, 1.0)
	svc, _ := c.CreateService("db", 1, 4, nil)
	node := svc.Replicas[0].Node

	out, err := c.ResizeService("db", 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.Moves != 0 || out.OldCores != 4 || out.NewCores != 8 {
		t.Errorf("outcome = %+v", out)
	}
	if out.Latency != inPlaceResizeLatency {
		t.Errorf("latency = %v", out.Latency)
	}
	if svc.ReservedCoresPerReplica != 8 || svc.Replicas[0].Loads[MetricCores] != 8 {
		t.Error("reservation not applied")
	}
	if node.Load(MetricCores) != 8 {
		t.Errorf("node cores = %v", node.Load(MetricCores))
	}
	if c.ReservedCores() != 8 {
		t.Errorf("cluster reserved = %v", c.ReservedCores())
	}
}

func TestResizeScaleDown(t *testing.T) {
	c := newTestCluster(t, 5, 1.0)
	svc, _ := c.CreateService("db", 4, 16, nil)
	out, err := c.ResizeService("db", 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Moves != 0 {
		t.Errorf("scale-down moved replicas: %+v", out)
	}
	if svc.TotalReservedCores() != 8 {
		t.Errorf("total cores = %v", svc.TotalReservedCores())
	}
	if c.ReservedCores() != 8 {
		t.Errorf("cluster reserved = %v", c.ReservedCores())
	}
}

func TestResizeNoOp(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	c.CreateService("db", 1, 4, nil)
	out, err := c.ResizeService("db", 4)
	if err != nil || out.Latency != 0 || out.Moves != 0 {
		t.Errorf("no-op resize: %+v, %v", out, err)
	}
}

func TestResizeMovesCrowdedReplica(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	// Fill node A so db's replica (also on A after this arrangement)
	// cannot grow in place.
	filler, _ := c.CreateService("filler", 1, 60, nil)
	svc, _ := c.CreateService("db", 1, 4, nil)
	// Put both on the same node deterministically.
	nodeA := filler.Replicas[0].Node
	rep := svc.Replicas[0]
	if rep.Node != nodeA {
		rep.Node.detach(rep)
		nodeA.attach(rep)
	}
	// 60 + 4 = 64 on node A; growing db to 16 needs +12 — must move.
	out, err := c.ResizeService("db", 16)
	if err != nil {
		t.Fatal(err)
	}
	if out.Moves != 1 {
		t.Fatalf("moves = %d, want 1", out.Moves)
	}
	if rep.Node == nodeA {
		t.Error("replica did not leave the crowded node")
	}
	if rep.Loads[MetricCores] != 16 {
		t.Errorf("replica cores = %v", rep.Loads[MetricCores])
	}
	if nodeA.Load(MetricCores) != 60 {
		t.Errorf("crowded node cores = %v", nodeA.Load(MetricCores))
	}
	if svc.FailoverCount != 1 {
		t.Errorf("failover count = %d", svc.FailoverCount)
	}
	if out.Latency < inPlaceResizeLatency {
		t.Errorf("latency = %v", out.Latency)
	}
}

func TestResizeRollsBackWhenClusterFull(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	c.CreateService("a", 1, 60, nil)
	c.CreateService("b", 1, 60, nil)
	svc, _ := c.CreateService("db", 1, 4, nil)
	before := c.ReservedCores()

	_, err := c.ResizeService("db", 32)
	if !errors.Is(err, ErrInsufficientCores) {
		t.Fatalf("err = %v", err)
	}
	if svc.ReservedCoresPerReplica != 4 || svc.Replicas[0].Loads[MetricCores] != 4 {
		t.Error("failed resize not rolled back")
	}
	if c.ReservedCores() != before {
		t.Errorf("cluster reserved changed: %v -> %v", before, c.ReservedCores())
	}
}

func TestResizeValidation(t *testing.T) {
	c := newTestCluster(t, 2, 1.0)
	if _, err := c.ResizeService("nope", 4); err == nil {
		t.Error("unknown service accepted")
	}
	c.CreateService("db", 1, 4, nil)
	if _, err := c.ResizeService("db", 0); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestProvisioningLatency(t *testing.T) {
	c := newTestCluster(t, 5, 1.0)
	gp, _ := c.CreateService("gp", 1, 2, nil)
	if got := c.ProvisioningLatency(gp); got != 45*time.Second {
		t.Errorf("remote-store provisioning = %v", got)
	}
	bc, _ := c.CreateServiceWithLoads("bc", 4, 2, nil, map[MetricName]float64{MetricDiskGB: 250})
	got := c.ProvisioningLatency(bc)
	want := 45*time.Second + time.Duration(250/c.cfg.BuildRateGBPerSec)*time.Second
	if got != want {
		t.Errorf("local-store provisioning = %v, want %v (build 250GB)", got, want)
	}
}
