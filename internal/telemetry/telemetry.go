// Package telemetry collects the cluster KPIs the paper's evaluation
// reports: hourly cluster-level samples of reserved cores and disk usage
// (Figures 10, 11), failover records with the moved core capacity and
// edition (Figures 2, 12b), creation redirects (Figure 10), and 10-minute
// node-level samples for the repeatability analysis (Figure 13).
package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs"
	"toto/internal/simclock"
	"toto/internal/slo"
)

// Sample is one cluster-level observation.
type Sample struct {
	Time          time.Time
	ReservedCores float64
	FreeCores     float64
	DiskUsageGB   float64
	// CPUUsedCores is the observational actual-CPU metric (0 when no CPU
	// model is deployed) — reservation vs. usage is the underutilization
	// gap the paper's §1 calls the efficiency opportunity.
	CPUUsedCores float64
	LiveDBs      int
}

// NodeSample is one node-level observation.
type NodeSample struct {
	Time          time.Time
	Node          string
	DiskUsageGB   float64
	ReservedCores float64
	Replicas      int
}

// FailoverRecord captures one replica movement forced by a capacity
// violation.
type FailoverRecord struct {
	Time        time.Time
	DB          string
	Edition     slo.Edition
	MovedCores  float64
	MovedDiskGB float64
	Downtime    time.Duration
	From, To    string
	Metric      fabric.MetricName
}

// RedirectRecord captures one creation attempt redirected to another
// tenant ring because this cluster lacked core capacity.
type RedirectRecord struct {
	Time    time.Time
	DB      string
	Edition slo.Edition
	SLOName string
	Cores   float64 // total cores requested across replicas
}

// Recorder subscribes to a cluster and samples it periodically. Start
// learns the length of the measured window and sizes the cluster and node
// series for exactly the rows that window produces, so sampling a run
// never regrows them.
type Recorder struct {
	clock   *simclock.Clock
	cluster *fabric.Cluster

	sampleEvery time.Duration
	nodeEvery   time.Duration

	samples     []Sample
	nodeSamples []NodeSample
	failovers   []FailoverRecord
	redirects   []RedirectRecord
	creates     map[slo.Edition]int
	drops       map[slo.Edition]int

	editionOf func(*fabric.Service) slo.Edition

	tickers []*simclock.Ticker

	// Metrics-registry handles for the headline KPIs; nil (free no-ops)
	// until RegisterMetrics is called.
	cFailovers *obs.Counter // telemetry.failovers
	cRedirects *obs.Counter // telemetry.redirects
	gLiveDBs   *obs.Gauge   // telemetry.live_dbs
	gReserved  *obs.Gauge   // telemetry.reserved_cores
	gFree      *obs.Gauge   // telemetry.free_cores
	gDisk      *obs.Gauge   // telemetry.disk_usage_gb
}

// RegisterMetrics exposes the recorder's headline KPIs through a metrics
// registry: failover and redirect counters, plus gauges tracking the most
// recent cluster sample. A nil registry is a no-op.
func (r *Recorder) RegisterMetrics(reg *obs.Registry) {
	r.cFailovers = reg.Counter("telemetry.failovers")
	r.cRedirects = reg.Counter("telemetry.redirects")
	r.gLiveDBs = reg.Gauge("telemetry.live_dbs")
	r.gReserved = reg.Gauge("telemetry.reserved_cores")
	r.gFree = reg.Gauge("telemetry.free_cores")
	r.gDisk = reg.Gauge("telemetry.disk_usage_gb")
}

// NewRecorder builds a recorder for cluster, sampling cluster KPIs every
// sampleEvery and node-level readings every nodeEvery (0 disables either).
// editionOf maps a fabric service to its database edition — the recorder
// does not interpret service labels itself.
func NewRecorder(clock *simclock.Clock, cluster *fabric.Cluster, sampleEvery, nodeEvery time.Duration, editionOf func(*fabric.Service) slo.Edition) *Recorder {
	r := &Recorder{
		clock:       clock,
		cluster:     cluster,
		sampleEvery: sampleEvery,
		nodeEvery:   nodeEvery,
		editionOf:   editionOf,
		creates:     make(map[slo.Edition]int),
		drops:       make(map[slo.Edition]int),
	}
	cluster.Subscribe(r.onEvent)
	return r
}

// Start begins periodic sampling over a measured window of the given
// length, reserving room for the rows it produces: the immediate sample,
// taken so the series includes the starting state, and one per period
// that ends within the window. Sampling goes on past the window until
// Stop, growing the series as needed. Event counters (creates/drops) are
// reset so they cover the measured window only — the recorder subscribes
// at construction, before the bootstrap phase.
func (r *Recorder) Start(window time.Duration) {
	r.creates = make(map[slo.Edition]int)
	r.drops = make(map[slo.Edition]int)
	rows, nodeRows := 1, 1
	if r.sampleEvery > 0 {
		rows += int(window / r.sampleEvery)
	}
	if r.nodeEvery > 0 {
		nodeRows += int(window / r.nodeEvery)
	}
	r.samples = append(make([]Sample, 0, len(r.samples)+rows), r.samples...)
	r.nodeSamples = append(make([]NodeSample, 0, len(r.nodeSamples)+nodeRows*len(r.cluster.Nodes())), r.nodeSamples...)
	r.TakeSample()
	r.TakeNodeSamples()
	if r.sampleEvery > 0 {
		r.tickers = append(r.tickers, r.clock.Every(r.sampleEvery, func(time.Time) { r.TakeSample() }))
	}
	if r.nodeEvery > 0 {
		r.tickers = append(r.tickers, r.clock.Every(r.nodeEvery, func(time.Time) { r.TakeNodeSamples() }))
	}
}

// Stop halts periodic sampling.
func (r *Recorder) Stop() {
	for _, t := range r.tickers {
		t.Stop()
	}
	r.tickers = nil
}

// TakeSample records one cluster-level sample now.
func (r *Recorder) TakeSample() {
	cpuUsed := 0.0
	for _, n := range r.cluster.Nodes() {
		cpuUsed += n.Load(fabric.MetricCPUUsedCores)
	}
	s := Sample{
		Time:          r.clock.Now(),
		ReservedCores: r.cluster.ReservedCores(),
		FreeCores:     r.cluster.FreeCores(),
		DiskUsageGB:   r.cluster.DiskUsage(),
		CPUUsedCores:  cpuUsed,
		LiveDBs:       r.cluster.LiveServiceCount(),
	}
	r.samples = append(r.samples, s)
	r.gLiveDBs.Set(float64(s.LiveDBs))
	r.gReserved.Set(s.ReservedCores)
	r.gFree.Set(s.FreeCores)
	r.gDisk.Set(s.DiskUsageGB)
}

// TakeNodeSamples records one node-level sample per node now.
func (r *Recorder) TakeNodeSamples() {
	now := r.clock.Now()
	for _, n := range r.cluster.Nodes() {
		r.nodeSamples = append(r.nodeSamples, NodeSample{
			Time:          now,
			Node:          n.ID,
			DiskUsageGB:   n.Load(fabric.MetricDiskGB),
			ReservedCores: n.Load(fabric.MetricCores),
			Replicas:      n.ReplicaCount(),
		})
	}
}

func (r *Recorder) onEvent(ev fabric.Event) {
	switch ev.Kind {
	case fabric.EventServiceCreated:
		r.creates[r.editionOf(ev.Service)]++
		return
	case fabric.EventServiceDropped:
		r.drops[r.editionOf(ev.Service)]++
		return
	case fabric.EventFailover:
	default:
		return
	}
	r.cFailovers.Inc()
	r.failovers = append(r.failovers, FailoverRecord{
		Time:        ev.Time,
		DB:          ev.Service.Name,
		Edition:     r.editionOf(ev.Service),
		MovedCores:  ev.MovedCores,
		MovedDiskGB: ev.MovedDiskGB,
		Downtime:    ev.Downtime,
		From:        ev.From,
		To:          ev.To,
		Metric:      ev.Metric,
	})
}

// RecordRedirect logs a creation redirect (called by the control plane).
func (r *Recorder) RecordRedirect(db string, edition slo.Edition, sloName string, cores float64) {
	r.cRedirects.Inc()
	r.redirects = append(r.redirects, RedirectRecord{
		Time:    r.clock.Now(),
		DB:      db,
		Edition: edition,
		SLOName: sloName,
		Cores:   cores,
	})
}

// Samples returns the cluster-level series.
func (r *Recorder) Samples() []Sample { return r.samples }

// NodeSamples returns the node-level series.
func (r *Recorder) NodeSamples() []NodeSample { return r.nodeSamples }

// Failovers returns the failover records.
func (r *Recorder) Failovers() []FailoverRecord { return r.failovers }

// Redirects returns the redirect records.
func (r *Recorder) Redirects() []RedirectRecord { return r.redirects }

// CreatesByEdition returns observed creation counts per edition since the
// recorder subscribed.
func (r *Recorder) CreatesByEdition() map[slo.Edition]int { return r.creates }

// DropsByEdition returns observed drop counts per edition.
func (r *Recorder) DropsByEdition() map[slo.Edition]int { return r.drops }

// FailedOverCores sums moved cores, optionally filtered by edition
// (pass nil for all) — Figure 12(b)'s quantity.
func (r *Recorder) FailedOverCores(edition *slo.Edition) float64 {
	total := 0.0
	for _, f := range r.failovers {
		if edition == nil || f.Edition == *edition {
			total += f.MovedCores
		}
	}
	return total
}

// RedirectsByHour returns the cumulative redirect count at each whole
// hour since start, over the given span — Figure 10's series.
func (r *Recorder) RedirectsByHour(start time.Time, hours int) []int {
	out := make([]int, hours)
	for _, rec := range r.redirects {
		h := int(rec.Time.Sub(start) / time.Hour)
		if h < 0 {
			h = 0
		}
		if h >= hours {
			continue
		}
		out[h]++
	}
	// Convert per-hour counts to a cumulative series.
	for i := 1; i < hours; i++ {
		out[i] += out[i-1]
	}
	return out
}

// WriteSamplesCSV writes the cluster-level series as CSV.
func (r *Recorder) WriteSamplesCSV(w io.Writer) error { return WriteSamplesCSV(w, r.samples) }

// WriteFailoversCSV writes the failover records as CSV.
func (r *Recorder) WriteFailoversCSV(w io.Writer) error { return WriteFailoversCSV(w, r.failovers) }

// WriteSamplesCSV writes any cluster-level sample series as CSV.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "reserved_cores", "free_cores", "disk_usage_gb", "cpu_used_cores", "live_dbs"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			s.Time.Format(time.RFC3339),
			strconv.FormatFloat(s.ReservedCores, 'f', 2, 64),
			strconv.FormatFloat(s.FreeCores, 'f', 2, 64),
			strconv.FormatFloat(s.DiskUsageGB, 'f', 2, 64),
			strconv.FormatFloat(s.CPUUsedCores, 'f', 2, 64),
			strconv.Itoa(s.LiveDBs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFailoversCSV writes any failover record series as CSV.
func WriteFailoversCSV(w io.Writer, failovers []FailoverRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "db", "edition", "moved_cores", "moved_disk_gb", "downtime_s", "from", "to", "metric"}); err != nil {
		return err
	}
	for _, f := range failovers {
		rec := []string{
			f.Time.Format(time.RFC3339),
			f.DB,
			f.Edition.String(),
			strconv.FormatFloat(f.MovedCores, 'f', 2, 64),
			strconv.FormatFloat(f.MovedDiskGB, 'f', 2, 64),
			fmt.Sprintf("%.1f", f.Downtime.Seconds()),
			f.From,
			f.To,
			f.Metric.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteNodeSamplesCSV writes node-level samples as CSV.
func WriteNodeSamplesCSV(w io.Writer, samples []NodeSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "node", "disk_usage_gb", "reserved_cores", "replicas"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			s.Time.Format(time.RFC3339),
			s.Node,
			strconv.FormatFloat(s.DiskUsageGB, 'f', 2, 64),
			strconv.FormatFloat(s.ReservedCores, 'f', 2, 64),
			strconv.Itoa(s.Replicas),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
