package traffic

import (
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/simclock"
)

// TestDroppedSlotStartsFresh pins slot recycling in the engine: the drop
// listener clears a dropped service's front-end state, so the service
// the fabric next gives that slot starts with an empty queue, no retry
// tokens and a new closed breaker, exactly as a new name would.
func TestDroppedSlotStartsFresh(t *testing.T) {
	start := time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.New(start)
	c := fabric.NewCluster(clock, 4, map[fabric.MetricName]float64{
		fabric.MetricCores: 64, fabric.MetricDiskGB: 8192, fabric.MetricMemoryGB: 512,
	}, fabric.DefaultConfig())
	e, err := NewEngine(clock, c, &Spec{Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(start)

	old, err := c.CreateService("db-old", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.state(old)
	oldBreaker := st.br
	st.queued, st.retry.tokens, st.openSeq = 9, 4, 17
	st.br.Record(start, 0, 100) // trips it

	if err := c.DropService("db-old"); err != nil {
		t.Fatal(err)
	}
	next, err := c.CreateService("db-new", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Slot() != old.Slot() {
		t.Fatalf("db-new got slot %d, want db-old's recycled slot %d", next.Slot(), old.Slot())
	}
	got := e.state(next)
	if got.queued != 0 || got.retry.tokens != 0 || got.openSeq != 0 {
		t.Errorf("recycled slot kept state: %+v", *got)
	}
	if got.br == oldBreaker || got.br.State() != BreakerClosed {
		t.Errorf("recycled slot kept the dropped service's breaker (state %s)", got.br.State())
	}
}
