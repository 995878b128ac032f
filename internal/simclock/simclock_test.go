package simclock

import (
	"testing"
	"time"
)

var t0 = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func TestNowStartsAtConstructionTime(t *testing.T) {
	c := New(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	c := New(t0)
	var order []int
	c.At(t0.Add(3*time.Hour), func(time.Time) { order = append(order, 3) })
	c.At(t0.Add(1*time.Hour), func(time.Time) { order = append(order, 1) })
	c.At(t0.Add(2*time.Hour), func(time.Time) { order = append(order, 2) })
	c.RunUntil(t0.Add(3 * time.Hour))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	c := New(t0)
	at := t0.Add(time.Hour)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(at, func(time.Time) { order = append(order, i) })
	}
	c.RunUntil(at)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v, want ascending schedule order", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	c := New(t0)
	var seen, clockAt time.Time
	c.After(90*time.Minute, func(now time.Time) { seen, clockAt = now, c.Now() })
	c.RunUntil(t0.Add(2 * time.Hour))
	want := t0.Add(90 * time.Minute)
	if !seen.Equal(want) {
		t.Fatalf("callback now = %v, want %v", seen, want)
	}
	if !clockAt.Equal(want) {
		t.Fatalf("clock now = %v, want %v", clockAt, want)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := New(t0)
	fired := false
	h := c.After(time.Hour, func(time.Time) { fired = true })
	h.Cancel()
	c.RunUntil(t0.Add(time.Hour))
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Idempotent.
	h.Cancel()
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New(t0)
	c.After(time.Hour, func(time.Time) {})
	c.RunUntil(t0.Add(time.Hour)) // clock is now t0+1h
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.At(t0, func(time.Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	c := New(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	c.After(-time.Second, func(time.Time) {})
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	c := New(t0)
	var fired []time.Duration
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Hour
		c.At(t0.Add(d), func(time.Time) { fired = append(fired, d) })
	}
	n := c.RunUntil(t0.Add(5 * time.Hour))
	if n != 5 {
		t.Fatalf("RunUntil fired %d events, want 5", n)
	}
	if !c.Now().Equal(t0.Add(5 * time.Hour)) {
		t.Fatalf("clock = %v, want deadline", c.Now())
	}
	// Remaining events still fire on a later run.
	n = c.RunUntil(t0.Add(24 * time.Hour))
	if n != 5 {
		t.Fatalf("second RunUntil fired %d events, want 5", n)
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	c := New(t0)
	deadline := t0.Add(42 * time.Minute)
	if n := c.RunUntil(deadline); n != 0 {
		t.Fatalf("fired %d events on empty queue", n)
	}
	if !c.Now().Equal(deadline) {
		t.Fatalf("clock = %v, want %v", c.Now(), deadline)
	}
}

func TestEventsScheduledByEventsFire(t *testing.T) {
	c := New(t0)
	var hits int
	c.After(time.Hour, func(time.Time) {
		hits++
		c.After(time.Hour, func(time.Time) { hits++ })
	})
	c.RunUntil(t0.Add(2 * time.Hour))
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestTickerFiresAtPeriod(t *testing.T) {
	c := New(t0)
	var times []time.Time
	tk := c.Every(30*time.Minute, func(now time.Time) { times = append(times, now) })
	c.RunUntil(t0.Add(2 * time.Hour))
	tk.Stop()
	if len(times) != 4 {
		t.Fatalf("ticker fired %d times in 2h at 30m period, want 4", len(times))
	}
	for i, ts := range times {
		want := t0.Add(time.Duration(i+1) * 30 * time.Minute)
		if !ts.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

func TestTickerStopFromOwnCallback(t *testing.T) {
	c := New(t0)
	var tk *Ticker
	count := 0
	tk = c.Every(time.Minute, func(time.Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	c.RunUntil(t0.Add(time.Hour))
	if count != 3 {
		t.Fatalf("ticker fired %d times after self-stop at 3", count)
	}
}

func TestTickerStopIsIdempotent(t *testing.T) {
	c := New(t0)
	tk := c.Every(time.Minute, func(time.Time) {})
	tk.Stop()
	tk.Stop()
	if n := c.RunUntil(t0.Add(time.Hour)); n != 0 {
		t.Fatalf("stopped ticker fired %d times", n)
	}
}

func TestNonPositivePeriodPanics(t *testing.T) {
	c := New(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	c.Every(0, func(time.Time) {})
}

func TestPendingCounts(t *testing.T) {
	c := New(t0)
	if c.Pending() != 0 {
		t.Fatalf("fresh clock pending = %d", c.Pending())
	}
	c.After(time.Minute, func(time.Time) {})
	c.After(time.Minute, func(time.Time) {})
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
}

func TestManyEventsStress(t *testing.T) {
	c := New(t0)
	const n = 10000
	fired := 0
	for i := 0; i < n; i++ {
		// Insert in a scrambled order.
		d := time.Duration((i*7919)%n) * time.Second
		c.At(t0.Add(d), func(time.Time) { fired++ })
	}
	last := t0
	c.At(t0.Add(n*time.Second), func(time.Time) {})
	// Verify monotone firing via a wrapping event.
	c2 := New(t0)
	var prev time.Time
	ok := true
	for i := 0; i < n; i++ {
		d := time.Duration((i*104729)%n) * time.Second
		c2.At(t0.Add(d), func(now time.Time) {
			if now.Before(prev) {
				ok = false
			}
			prev = now
		})
	}
	c.RunUntil(t0.Add(n * time.Second))
	c2.RunUntil(t0.Add(n * time.Second))
	if fired != n {
		t.Fatalf("fired %d of %d events", fired, n)
	}
	if !ok {
		t.Fatal("events fired with non-monotone timestamps")
	}
	_ = last
}
