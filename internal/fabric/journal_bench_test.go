// Benchmarks that need the journal layer live in an external test
// package: internal/obs/journal imports fabric, so from package fabric
// itself the import would cycle.
package fabric_test

import (
	"io"
	"testing"

	"toto/internal/fabric"
	"toto/internal/obs/journal"
	"toto/internal/simclock"
)

// BenchmarkSimulatedDayJournaled is BenchmarkSimulatedDay with a causal
// event journal attached (events + annotations, JSON-encoded to a
// discarded sink) — the delta against BenchmarkSimulatedDay is the full
// cost of journaling a run. The acceptance bar is <= 10% overhead.
func BenchmarkSimulatedDayJournaled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := journal.NewWriter(io.Discard)
		fabric.SimulatedDay(i, fabric.DefaultConfig(), func(_ *simclock.Clock, c *fabric.Cluster) {
			w.Attach(c)
		})
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
