package simclock

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// TestPendingExcludesCancelled locks the fixed Pending semantics: a
// cancelled event leaves the live count immediately, even while its heap
// entry is still parked awaiting compaction or pop.
func TestPendingExcludesCancelled(t *testing.T) {
	c := New(t0)
	h1 := c.After(time.Minute, func(time.Time) {})
	c.After(2*time.Minute, func(time.Time) {})
	h3 := c.After(3*time.Minute, func(time.Time) {})
	if c.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", c.Pending())
	}
	h1.Cancel()
	if c.Pending() != 2 {
		t.Fatalf("pending after one cancel = %d, want 2", c.Pending())
	}
	h3.Cancel()
	if c.Pending() != 1 {
		t.Fatalf("pending after two cancels = %d, want 1", c.Pending())
	}
	c.RunUntil(t0.Add(3 * time.Minute))
	if c.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", c.Pending())
	}
}

// TestCompactionEvictsDeadEntries verifies that once cancelled entries
// outnumber half the heap they are physically removed, and that the
// surviving events still fire in order.
func TestCompactionEvictsDeadEntries(t *testing.T) {
	c := New(t0)
	const n = 64
	const cancelled = n/2 + 1 // one past half: Cancel must trip compaction
	handles := make([]Handle, 0, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		handles = append(handles, c.At(t0.Add(time.Duration(i)*time.Second), func(time.Time) { fired = append(fired, i) }))
	}
	for _, h := range handles[:cancelled] {
		h.Cancel()
	}
	if got := c.queueLen(); got != n-cancelled {
		t.Fatalf("queueLen after mass cancel = %d, want %d", got, n-cancelled)
	}
	if c.Pending() != n-cancelled {
		t.Fatalf("pending = %d, want %d", c.Pending(), n-cancelled)
	}
	c.RunUntil(t0.Add(n * time.Second))
	if len(fired) != n-cancelled {
		t.Fatalf("fired %d events, want %d", len(fired), n-cancelled)
	}
	for k, v := range fired {
		if v != cancelled+k {
			t.Fatalf("fire order = %v, want indices %d.. ascending", fired, cancelled)
		}
	}
}

// TestStaleHandleCannotCancelReusedSlot checks generation counting: after
// an event fires, its slot may be reused by a new event, and the old
// handle must not be able to cancel the newcomer.
func TestStaleHandleCannotCancelReusedSlot(t *testing.T) {
	c := New(t0)
	h := c.After(time.Second, func(time.Time) {})
	c.RunUntil(t0.Add(time.Second)) // fires; slot recycled to the free list
	fired := false
	c.After(time.Second, func(time.Time) { fired = true }) // reuses the slot
	h.Cancel()                                             // stale: must be a no-op
	c.RunUntil(t0.Add(2 * time.Second))
	if !fired {
		t.Fatal("stale handle cancelled an unrelated event that reused its slot")
	}
}

// TestCancelAfterCompactionIsNoOp exercises a handle whose slot was
// recycled by compaction rather than by firing.
func TestCancelAfterCompactionIsNoOp(t *testing.T) {
	c := New(t0)
	var handles []Handle
	for i := 0; i < 16; i++ {
		handles = append(handles, c.After(time.Duration(i+1)*time.Second, func(time.Time) {}))
	}
	for _, h := range handles {
		h.Cancel()
	}
	for _, h := range handles {
		h.Cancel() // slots were freed by compaction; all of these are stale
	}
	if c.Pending() != 0 || c.queueLen() != 0 {
		t.Fatalf("pending=%d queueLen=%d after cancelling everything", c.Pending(), c.queueLen())
	}
}

// TestZeroHandleCancelIsNoOp guards the zero-value Handle contract.
func TestZeroHandleCancelIsNoOp(t *testing.T) {
	var h Handle
	h.Cancel()
}

// TestScheduleFireAllocFree pins the tentpole property: steady-state
// schedule/fire churn reuses slots and heap capacity, allocating nothing.
func TestScheduleFireAllocFree(t *testing.T) {
	c := New(t0)
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		c.After(time.Duration(i+1)*time.Second, fn)
	}
	c.RunUntil(t0.Add(64 * time.Second))
	if allocs := testing.AllocsPerRun(1000, func() {
		c.After(time.Second, fn)
		c.RunUntil(c.Now().Add(time.Second))
	}); allocs != 0 {
		t.Fatalf("schedule+fire allocates %.1f per op, want 0", allocs)
	}
}

// TestCancelAllocFree pins the same for schedule/cancel churn, which
// flows through the compaction path.
func TestCancelAllocFree(t *testing.T) {
	c := New(t0)
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		c.After(time.Duration(i+1)*time.Second, fn).Cancel()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.After(time.Second, fn).Cancel()
	}); allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f per op, want 0", allocs)
	}
}

// TestTickerSteadyStateAllocFree pins the Every fix: the wrapper closure
// is created once per ticker, so individual ticks allocate nothing.
func TestTickerSteadyStateAllocFree(t *testing.T) {
	c := New(t0)
	tk := c.Every(time.Second, func(time.Time) {})
	defer tk.Stop()
	c.RunUntil(c.Now().Add(time.Second)) // first tick warms the reschedule path
	if allocs := testing.AllocsPerRun(1000, func() {
		c.RunUntil(c.Now().Add(time.Second))
	}); allocs != 0 {
		t.Fatalf("ticker tick allocates %.1f per op, want 0", allocs)
	}
}

// refClock is the previous container/heap implementation, kept verbatim
// (minus the Ticker/RunUntil surface) as the ordering oracle for
// TestFlatHeapMatchesReferenceOrder.
type refItem struct {
	at    time.Time
	seq   uint64
	id    int
	index int
	dead  bool
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	it := x.(*refItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}

type refClock struct {
	now    time.Time
	seq    uint64
	events refHeap
}

func (c *refClock) at(at time.Time, id int) *refItem {
	it := &refItem{at: at, seq: c.seq, id: id}
	c.seq++
	heap.Push(&c.events, it)
	return it
}

func (c *refClock) drain() []int {
	var order []int
	for len(c.events) > 0 {
		it := heap.Pop(&c.events).(*refItem)
		if it.dead {
			continue
		}
		c.now = it.at
		order = append(order, it.id)
	}
	return order
}

// TestFlatHeapMatchesReferenceOrder drives the flat heap and the old
// container/heap implementation with identical seeded schedule/cancel
// scripts — heavy time collisions included — and requires the exact same
// fire sequence from both.
func TestFlatHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := New(t0)
		ref := &refClock{now: t0}

		const ops = 2000
		var flatOrder []int
		var flatHandles []Handle
		var refItems []*refItem
		for id := 0; id < ops; id++ {
			id := id
			// Coarse buckets force plenty of same-instant ties so the
			// seq tie-break is exercised, not just time ordering.
			at := t0.Add(time.Duration(rng.Intn(97)) * time.Minute)
			flatHandles = append(flatHandles, flat.At(at, func(time.Time) { flatOrder = append(flatOrder, id) }))
			refItems = append(refItems, ref.at(at, id))
			// Cancel a random earlier survivor about a third of the time.
			if rng.Intn(3) == 0 {
				victim := rng.Intn(id + 1)
				flatHandles[victim].Cancel()
				refItems[victim].dead = true
			}
		}

		refOrder := ref.drain()
		flat.RunUntil(t0.Add(97 * time.Minute))

		if len(flatOrder) != len(refOrder) {
			t.Fatalf("seed %d: flat fired %d events, reference fired %d", seed, len(flatOrder), len(refOrder))
		}
		for i := range refOrder {
			if flatOrder[i] != refOrder[i] {
				t.Fatalf("seed %d: fire order diverges at %d: flat=%d ref=%d", seed, i, flatOrder[i], refOrder[i])
			}
		}
	}
}

// TestFlatHeapMatchesReferenceWithInterleavedFiring repeats the oracle
// comparison but interleaves scheduling with partial drains, so slot
// reuse and mid-stream compaction are covered too.
func TestFlatHeapMatchesReferenceWithInterleavedFiring(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := New(t0)
		ref := &refClock{now: t0}

		var flatOrder, refOrder []int
		var flatHandles []Handle
		var refItems []*refItem
		base := t0
		for round := 0; round < 10; round++ {
			for k := 0; k < 200; k++ {
				id := round*1000 + k
				at := base.Add(time.Duration(rng.Intn(50)) * time.Minute)
				flatHandles = append(flatHandles, flat.At(at, func(time.Time) { flatOrder = append(flatOrder, id) }))
				refItems = append(refItems, ref.at(at, id))
				if rng.Intn(2) == 0 {
					victim := rng.Intn(len(flatHandles))
					flatHandles[victim].Cancel()
					refItems[victim].dead = true
				}
			}
			// Drain both up to a mid-round deadline.
			deadline := base.Add(25 * time.Minute)
			flat.RunUntil(deadline)
			for len(ref.events) > 0 {
				it := ref.events[0]
				if it.dead {
					heap.Pop(&ref.events)
					continue
				}
				if it.at.After(deadline) {
					break
				}
				heap.Pop(&ref.events)
				ref.now = it.at
				refOrder = append(refOrder, it.id)
			}
			if ref.now.Before(deadline) {
				ref.now = deadline
			}
			base = deadline
		}
		flat.RunUntil(base.Add(50 * time.Minute))
		refOrder = append(refOrder, ref.drain()...)

		if len(flatOrder) != len(refOrder) {
			t.Fatalf("seed %d: flat fired %d, reference fired %d", seed, len(flatOrder), len(refOrder))
		}
		for i := range refOrder {
			if flatOrder[i] != refOrder[i] {
				t.Fatalf("seed %d: order diverges at %d: flat=%d ref=%d", seed, i, flatOrder[i], refOrder[i])
			}
		}
	}
}

// BenchmarkClockSchedule measures steady-state schedule+fire churn — the
// dominant clock operation in a simulated day.
func BenchmarkClockSchedule(b *testing.B) {
	c := New(t0)
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		c.After(time.Duration(i+1)*time.Second, fn)
	}
	c.RunUntil(t0.Add(64 * time.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(time.Second, fn)
		c.RunUntil(c.Now().Add(time.Second))
	}
}

// BenchmarkClockCancel measures schedule+cancel churn, which exercises
// slot recycling and the dead-entry compaction path.
func BenchmarkClockCancel(b *testing.B) {
	c := New(t0)
	fn := func(time.Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(time.Second, fn).Cancel()
	}
}
