package traffic

import (
	"fmt"
	"math"
	"time"
)

// TickEvery returns the engine's tick period.
func (e *Engine) TickEvery() time.Duration { return e.tickEvery }

// CheckNodeTable compares every entry of the node table the last tick
// filled with what nodeLoadMs, the fail-slow hook and routingUtil give
// for the live node at now, bit for bit. It returns the first
// difference as an error, and counts the entries that were not
// routable and those whose service time a slow factor changed, so a
// caller can tell whether the states it meant to cover occurred.
func (e *Engine) CheckNodeTable(now time.Time) (unroutable, slowed int, err error) {
	for _, n := range e.cluster.Nodes() {
		got := e.nodes[n.Index()]
		want := tickNode{routeUtil: e.routingUtil(n), routable: n.Up() && !n.Quarantined(now)}
		want.loadMs, want.util = e.nodeLoadMs(n)
		want.svcMs = want.loadMs
		if e.slowFn != nil {
			want.svcMs *= e.slowFn(n.ID, now)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !same(got.loadMs, want.loadMs) || !same(got.util, want.util) || !same(got.svcMs, want.svcMs) ||
			!same(got.routeUtil, want.routeUtil) || got.routable != want.routable {
			return 0, 0, fmt.Errorf("%s at %s: table %+v, live node %+v", n.ID, now.Format("15:04"), got, want)
		}
		if !got.routable {
			unroutable++
		}
		if got.svcMs != got.loadMs {
			slowed++
		}
	}
	return unroutable, slowed, nil
}
