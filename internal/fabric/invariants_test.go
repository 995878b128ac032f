package fabric

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"toto/internal/rng"
	"toto/internal/simclock"
)

// checkInvariants asserts the production invariant set (invariants.go);
// the continuous InvariantChecker runs the same code after every event
// during chaos schedules.
func checkInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	if err := CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsUnderRandomOperations drives a cluster with a random
// operation mix — creates, drops, load reports, forced moves, resizes,
// node maintenance, PLB scans — and checks the invariants after every
// step.
func TestInvariantsUnderRandomOperations(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		clock := simclock.New(testStart)
		cfg := DefaultConfig()
		cfg.PLBSeed = seed
		c := NewCluster(clock, 6, testCapacity(), cfg)
		c.Start()
		defer c.Stop()

		names := []string{}
		seq := 0
		for step := 0; step < 300; step++ {
			switch src.Intn(8) {
			case 0, 1, 2: // create
				seq++
				name := fmt.Sprintf("db-%d", seq)
				replicas := 1
				if src.Bernoulli(0.25) {
					replicas = 4
				}
				cores := float64(src.Intn(8) + 1)
				if _, err := c.CreateService(name, replicas, cores, nil); err == nil {
					names = append(names, name)
				}
			case 3: // drop
				if len(names) > 0 {
					i := src.Intn(len(names))
					c.DropService(names[i])
					names = append(names[:i], names[i+1:]...)
				}
			case 4: // report load
				if len(names) > 0 {
					svc, ok := c.Service(names[src.Intn(len(names))])
					if ok && svc.Alive() {
						r := svc.Replicas[src.Intn(len(svc.Replicas))]
						c.ReportLoad(r, MetricDiskGB, src.UniformRange(0, 3000))
					}
				}
			case 5: // forced move
				if len(names) > 0 {
					svc, ok := c.Service(names[src.Intn(len(names))])
					if ok && svc.Alive() {
						r := svc.Replicas[src.Intn(len(svc.Replicas))]
						target := c.Nodes()[src.Intn(len(c.Nodes()))]
						c.ForceMove(r.ID, target.ID) // may legitimately fail
					}
				}
			case 6: // resize
				if len(names) > 0 {
					c.ResizeService(names[src.Intn(len(names))], float64(src.Intn(12)+1))
				}
			case 7: // node maintenance + time advance
				node := c.Nodes()[src.Intn(len(c.Nodes()))]
				if node.Up() && c.UpNodes() > 2 {
					c.SetNodeDown(node.ID)
				} else if !node.Up() {
					c.SetNodeUp(node.ID)
				}
				clock.RunUntil(clock.Now().Add(10 * time.Minute))
			}
			checkInvariants(t, c)
		}
		// Let pending PLB scans settle and check once more.
		clock.RunUntil(clock.Now().Add(time.Hour))
		checkInvariants(t, c)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsUnderViolationPressure saturates disk so the PLB must
// make many forced moves, and checks consistency throughout.
func TestInvariantsUnderViolationPressure(t *testing.T) {
	clock := simclock.New(testStart)
	cfg := DefaultConfig()
	c := NewCluster(clock, 4, testCapacity(), cfg)
	c.Start()
	defer c.Stop()

	src := rng.New(9)
	for i := 0; i < 30; i++ {
		c.CreateService(fmt.Sprintf("db-%d", i), 1, 2, nil)
	}
	for hour := 0; hour < 48; hour++ {
		for i := 0; i < 30; i++ {
			svc, ok := c.Service(fmt.Sprintf("db-%d", i))
			if !ok || !svc.Alive() {
				continue
			}
			r := svc.Replicas[0]
			// Heterogeneous growth: some databases balloon while others
			// stay small, so overloaded nodes always have feasible
			// targets and the PLB actually moves replicas.
			rate := float64(i%5) * 60
			grow := r.Loads[MetricDiskGB] + src.UniformRange(0, rate)
			c.ReportLoad(r, MetricDiskGB, grow)
		}
		clock.RunUntil(clock.Now().Add(time.Hour))
		checkInvariants(t, c)
	}
	if c.UnplannedFailoverCount() == 0 {
		t.Error("pressure test produced no failovers")
	}
}
