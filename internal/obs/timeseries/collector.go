package timeseries

import (
	"fmt"
	"time"

	"toto/internal/fabric"
	"toto/internal/simclock"
)

// Collector samples a cluster into a Store on the simulation clock:
// per-node utilization for every enforced metric (cores scaled by the
// density factor, matching the PLB's enforced capacities), per-node
// replica counts, and cluster-wide gauges and per-interval rates. It
// runs on the simulation goroutine — no locking beyond the store's own.
type Collector struct {
	cluster *fabric.Cluster
	store   *Store
	ticker  *simclock.Ticker

	// The series Sample pushes to, resolved by name on the first sample (a
	// cluster's nodes are fixed): per node, each enforced metric's
	// utilization series and then the replica-count series.
	nodeSeries                                          []*Series
	failovers, plannedMoves, services, upNodes, density *Series

	lastUnplanned int
	lastPlanned   int
}

// NewCollector builds a collector writing cluster samples into store.
func NewCollector(cluster *fabric.Cluster, store *Store) *Collector {
	return &Collector{cluster: cluster, store: store}
}

// Start begins sampling every store-resolution tick, with one immediate
// sample so the series include the initial placement state.
func (col *Collector) Start(clock *simclock.Clock) {
	if col.ticker != nil {
		return
	}
	col.store.SetStart(clock.Now())
	col.Sample(clock.Now())
	col.ticker = clock.Every(col.store.Resolution(), col.Sample)
}

// Stop ends sampling. Idempotent; nil-safe.
func (col *Collector) Stop() {
	if col == nil || col.ticker == nil {
		return
	}
	col.ticker.Stop()
	col.ticker = nil
}

// UtilSeriesName names the per-node utilization series for a metric.
func UtilSeriesName(metric, node string) string {
	return fmt.Sprintf("util.%s/%s", metric, node)
}

// ReplicaSeriesName names the per-node replica-count series.
func ReplicaSeriesName(node string) string {
	return fmt.Sprintf("replicas/%s", node)
}

// Cluster-wide series names.
const (
	SeriesFailovers    = "cluster.failovers.delta"    // unplanned moves per interval
	SeriesPlannedMoves = "cluster.plannedMoves.delta" // planned moves per interval
	SeriesServices     = "cluster.services"           // live service count
	SeriesUpNodes      = "cluster.upNodes"            // nodes in service
	SeriesDensity      = "cluster.density"            // density factor
)

// Sample records one sampling round at the simulated time now. Exported
// so tests and final-flush paths can force a sample outside the ticker.
func (col *Collector) Sample(now time.Time) {
	if col.density == nil {
		col.resolve()
	}
	c := col.cluster
	density := c.Density()
	i := 0
	for _, n := range c.Nodes() {
		for m := fabric.MetricName(0); int(m) < fabric.NumMetrics; m++ {
			if !m.Enforced() {
				continue
			}
			capacity := n.Capacity[m]
			if m == fabric.MetricCores {
				capacity *= density
			}
			util := 0.0
			if capacity > 0 {
				util = n.Load(m) / capacity
			}
			col.nodeSeries[i].Push(util)
			i++
		}
		col.nodeSeries[i].Push(float64(n.ReplicaCount()))
		i++
	}

	unplanned := c.UnplannedFailoverCount()
	planned := c.PlannedMoveCount()
	col.failovers.Push(float64(unplanned - col.lastUnplanned))
	col.plannedMoves.Push(float64(planned - col.lastPlanned))
	col.lastUnplanned, col.lastPlanned = unplanned, planned

	col.services.Push(float64(c.LiveServiceCount()))
	col.upNodes.Push(float64(c.UpNodes()))
	col.density.Push(density)
}

// resolve looks up, creating on first use, every series Sample pushes to.
func (col *Collector) resolve() {
	for _, n := range col.cluster.Nodes() {
		for m := fabric.MetricName(0); int(m) < fabric.NumMetrics; m++ {
			if m.Enforced() {
				col.nodeSeries = append(col.nodeSeries, col.store.Series(UtilSeriesName(m.String(), n.ID)))
			}
		}
		col.nodeSeries = append(col.nodeSeries, col.store.Series(ReplicaSeriesName(n.ID)))
	}
	col.failovers = col.store.Series(SeriesFailovers)
	col.plannedMoves = col.store.Series(SeriesPlannedMoves)
	col.services = col.store.Series(SeriesServices)
	col.upNodes = col.store.Series(SeriesUpNodes)
	col.density = col.store.Series(SeriesDensity)
}
