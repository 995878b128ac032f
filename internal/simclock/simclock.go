// Package simclock provides a deterministic discrete-event simulation
// clock. All Toto components act on timers (the Population Manager wakes
// hourly, RgManager refreshes models every 15 minutes, replicas report
// disk deltas every 20 minutes, the PLB scans on its own interval), so an
// event-driven clock replays the paper's multi-day experiments in
// milliseconds while preserving the exact ordering a wall-clock deployment
// would see.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (a monotonically increasing sequence number breaks ties),
// which keeps runs bit-for-bit reproducible under a fixed set of seeds.
//
// The queue is a flat, index-based min-heap: heap entries are small value
// structs ordered by (UnixNano, seq) and point into a slot arena that owns
// the callback and its exact firing time. Slots are recycled through a
// free list and handles carry a generation counter, so steady-state timer
// churn (schedule, fire, cancel) performs no allocations and a stale
// Handle can never cancel an unrelated event that reused its slot.
// Cancelled entries are dropped lazily on pop and compacted eagerly when
// they outnumber half the heap. Firing times are compared as UnixNano
// int64s, which is exact for any simulated instant between years 1678 and
// 2262 — far beyond any multi-year run anchored at the 2020 sim epoch.
package simclock

import (
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a simulated instant.
type Event func(now time.Time)

// heapEntry is one scheduled firing in the flat min-heap. Entries are
// ordered by (atNs, seq); seq is unique per clock so the order is total
// and pops are bit-reproducible.
type heapEntry struct {
	atNs int64
	seq  uint64
	slot int32
}

// slot owns a scheduled event's payload. The generation counter is bumped
// every time the slot is returned to the free list, invalidating any
// handles that still point at it.
type slot struct {
	at   time.Time
	fn   Event
	gen  uint32
	dead bool
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and cancelling it is a no-op.
type Handle struct {
	c    *Clock
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op: the slot's generation advanced when
// it was recycled, so the handle no longer matches.
func (h Handle) Cancel() {
	c := h.c
	if c == nil {
		return
	}
	s := &c.slots[h.slot]
	if s.gen != h.gen || s.dead {
		return
	}
	s.dead = true
	s.fn = nil // release the closure; the slot stays parked until popped
	c.deadCount++
	if c.deadCount*2 > len(c.heap) {
		c.compact()
	}
}

// Clock is a discrete-event simulation clock. The zero value is not
// usable; construct with New.
type Clock struct {
	now       time.Time
	seq       uint64
	heap      []heapEntry
	slots     []slot
	free      []int32 // recycled slot indices
	deadCount int     // cancelled entries still parked in the heap
}

// New returns a Clock whose current time is start.
func New(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time { return c.now }

// alloc takes a slot from the free list (or grows the arena) and fills it.
func (c *Clock) alloc(at time.Time, fn Event) int32 {
	var idx int32
	if n := len(c.free); n > 0 {
		idx = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, slot{})
		idx = int32(len(c.slots) - 1)
	}
	s := &c.slots[idx]
	s.at = at
	s.fn = fn
	s.dead = false
	return idx
}

// freeSlot recycles a slot, bumping its generation so outstanding handles
// go stale.
func (c *Clock) freeSlot(idx int32) {
	s := &c.slots[idx]
	s.fn = nil
	s.at = time.Time{}
	s.dead = false
	s.gen++
	c.free = append(c.free, idx)
}

func (c *Clock) less(i, j int) bool {
	a, b := &c.heap[i], &c.heap[j]
	if a.atNs != b.atNs {
		return a.atNs < b.atNs
	}
	return a.seq < b.seq
}

func (c *Clock) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

func (c *Clock) siftDown(i int) {
	n := len(c.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && c.less(r, l) {
			min = r
		}
		if !c.less(min, i) {
			return
		}
		c.heap[i], c.heap[min] = c.heap[min], c.heap[i]
		i = min
	}
}

// popRoot removes the minimum heap entry, which the caller has already
// read from c.heap[0].
func (c *Clock) popRoot() {
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	if n > 0 {
		c.siftDown(0)
	}
}

// compact removes every dead entry from the heap in one pass and restores
// the heap invariant bottom-up. Pop order is unchanged: the comparator is
// a total order, so any valid heap over the same live entries pops
// identically.
func (c *Clock) compact() {
	w := 0
	for _, e := range c.heap {
		if c.slots[e.slot].dead {
			c.freeSlot(e.slot)
			continue
		}
		c.heap[w] = e
		w++
	}
	c.heap = c.heap[:w]
	for i := w/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
	c.deadCount = 0
}

// At schedules fn to run at the absolute simulated time at. Scheduling in
// the past (before Now) panics: it indicates a logic error in the caller,
// and silently reordering time would destroy reproducibility.
func (c *Clock) At(at time.Time, fn Event) Handle {
	if at.Before(c.now) {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, c.now))
	}
	idx := c.alloc(at, fn)
	c.heap = append(c.heap, heapEntry{atNs: at.UnixNano(), seq: c.seq, slot: idx})
	c.seq++
	c.siftUp(len(c.heap) - 1)
	return Handle{c: c, slot: idx, gen: c.slots[idx].gen}
}

// After schedules fn to run d after the current simulated time.
func (c *Clock) After(d time.Duration, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.At(c.now.Add(d), fn)
}

// Every schedules fn to run at the next multiple of period measured from
// the clock's current time, and then every period after that, until the
// returned Ticker is stopped. The first firing is one full period from
// now, matching a daemon that sleeps for its interval before acting.
func (c *Clock) Every(period time.Duration, fn Event) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive period %v", period))
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	// One wrapper closure for the ticker's whole lifetime; rescheduling
	// reuses it, so each tick costs a slot-recycled heap push and nothing
	// more.
	t.tick = func(now time.Time) {
		if t.stopped {
			return
		}
		t.fn(now)
		if !t.stopped {
			t.handle = t.clock.After(t.period, t.tick)
		}
	}
	t.handle = c.After(period, t.tick)
	return t
}

// Ticker repeatedly fires an event at a fixed period.
type Ticker struct {
	clock   *Clock
	period  time.Duration
	fn      Event
	tick    Event
	handle  Handle
	stopped bool
}

// Stop halts the ticker. It is safe to call from within the ticker's own
// callback and is idempotent.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// RunUntil fires events in order until the event queue is empty or the
// next event is after deadline. The clock is left at deadline (or at the
// last fired event if the queue drained first, whichever is later never
// exceeds deadline). It returns the number of events fired.
func (c *Clock) RunUntil(deadline time.Time) int {
	deadlineNs := deadline.UnixNano()
	fired := 0
	for len(c.heap) > 0 {
		e := c.heap[0]
		if c.slots[e.slot].dead {
			c.popRoot()
			c.freeSlot(e.slot)
			c.deadCount--
			continue
		}
		if e.atNs > deadlineNs {
			break
		}
		c.popRoot()
		s := &c.slots[e.slot]
		at, fn := s.at, s.fn
		c.freeSlot(e.slot)
		c.now = at
		fn(c.now)
		fired++
	}
	if c.now.Before(deadline) {
		c.now = deadline
	}
	return fired
}
