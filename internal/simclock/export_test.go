package simclock

// Pending reports the number of live events waiting to fire. Cancelled
// events are excluded even when their heap entries have not been
// compacted away yet.
func (c *Clock) Pending() int { return len(c.heap) - c.deadCount }

// queueLen reports the raw heap size including parked dead entries, so
// tests can observe compaction.
func (c *Clock) queueLen() int { return len(c.heap) }
