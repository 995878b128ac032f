// Package fabric implements a Service-Fabric-style cluster orchestrator:
// nodes, multi-replica services, dynamic load metrics with node-level
// logical capacities, a Naming Service metastore, and a Placement and
// Load Balancer (PLB) that places replicas with simulated annealing and
// fixes capacity violations by failing replicas over to other nodes.
//
// It is the substrate the Toto benchmark framework drives (paper §3.1):
// Toto does not simulate the orchestrator's decisions — it feeds fabricated
// load reports into this real placement/balancing engine and measures how
// the cluster reacts (movements, failovers, unavailability).
package fabric

// MetricName identifies a dynamic load metric reported to the PLB. A
// metric "can be arbitrary and model anything, but usually they model
// system resources such as CPU, memory, and disk" (§3.1).
//
// MetricName doubles as a dense index into LoadVector: every load and
// capacity the fabric tracks lives in a fixed-size float64 array, so the
// PLB's hot paths (annealing, violation scans, load reports) are plain
// array reads with no hashing or allocation. The human-readable name
// only materializes at the API boundary via String.
type MetricName uint8

// The resource metrics Azure SQL DB reports (§2 "Resources"). The
// capacity-enforced metrics come first so hot loops can iterate
// MetricCores..MetricMemoryGB without touching observational ones.
const (
	// MetricCores is the CPU core reservation of a replica. It is set
	// when the database is created (from its SLO) and is static.
	MetricCores MetricName = iota
	// MetricDiskGB is the local SSD consumption of a replica in GB. For
	// local-store databases it covers data+log+tempDB; for remote-store
	// databases only tempDB.
	MetricDiskGB
	// MetricMemoryGB is the DRAM consumption of a replica in GB.
	MetricMemoryGB
	// MetricCPUUsedCores is the *observational* CPU-usage metric: actual
	// cores consumed, as opposed to MetricCores' static reservation. The
	// paper leaves CPU usage models as future work (§5.5) and its PLB
	// does not enforce a CPU-usage capacity, so this metric is reported
	// and recorded but never drives placement or violations.
	MetricCPUUsedCores

	numMetrics // sentinel: total tracked metrics

	// metricEnforcedEnd is one past the last capacity-enforced metric;
	// hot loops run m := MetricCores; m < metricEnforcedEnd; m++.
	metricEnforcedEnd = MetricMemoryGB + 1
)

// NumMetrics is the number of tracked metrics — the fixed length of a
// LoadVector.
const NumMetrics = int(numMetrics)

// LoadVector holds one float64 per tracked metric, indexed by
// MetricName. It is the array-backed replacement for the string-keyed
// metric maps the fabric used to carry on every node and replica.
type LoadVector [NumMetrics]float64

// metricNames maps each MetricName to its wire/display name. The
// strings are the same ones the string-keyed representation used, so
// hashes, traces, and CSV exports are unchanged by the index refactor.
var metricNames = [NumMetrics]string{
	MetricCores:        "cores",
	MetricDiskGB:       "diskGB",
	MetricMemoryGB:     "memoryGB",
	MetricCPUUsedCores: "cpuUsedCores",
}

// String returns the metric's name ("cores", "diskGB", ...).
func (m MetricName) String() string {
	if m < numMetrics {
		return metricNames[m]
	}
	return "invalid-metric"
}

// Valid reports whether m names a tracked metric.
func (m MetricName) Valid() bool { return m < numMetrics }

// Enforced reports whether the PLB enforces a node capacity for m.
// MetricCPUUsedCores is observational only.
func (m MetricName) Enforced() bool { return m < metricEnforcedEnd }

// AllMetrics lists the capacity-enforced metrics a node tracks, in a
// stable order. MetricCPUUsedCores is deliberately absent (observational
// only). The returned slice is freshly allocated; hot paths inside the
// fabric iterate the index range directly instead.
func AllMetrics() []MetricName {
	return []MetricName{MetricCores, MetricDiskGB, MetricMemoryGB}
}

// vectorFromMap converts a metric-name-keyed map (the public construction
// API) into the dense internal representation, ignoring unknown metrics.
func vectorFromMap(m map[MetricName]float64) LoadVector {
	var v LoadVector
	for name, val := range m {
		if name.Valid() {
			v[name] = val
		}
	}
	return v
}
