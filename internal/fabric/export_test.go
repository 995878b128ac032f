package fabric

// DisableDegradedMode returns the PLB to normal operation. Standing
// quarantines lapse naturally.
func (c *Cluster) DisableDegradedMode() {
	c.degraded = false
	c.metrics.degradedMode.Set(0)
}

// GoldenEventStreamHash and GoldenEventStreamCount pin the event stream
// of the day GoldenDay runs.
const (
	GoldenEventStreamHash  = goldenEventStreamHash
	GoldenEventStreamCount = goldenEventStreamCount
)

// GoldenDay runs the seed-7 simulated day behind GoldenEventStreamHash,
// calling attach on the cluster before it starts. The external tests use
// it to record the day through layers that import fabric.
func GoldenDay(attach func(*Cluster)) { simulatedDay(7, attach) }
