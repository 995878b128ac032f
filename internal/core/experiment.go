package core

import (
	"fmt"
	"time"

	"toto/internal/chaos"
	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/revenue"
	"toto/internal/slo"
	"toto/internal/telemetry"
	"toto/internal/traffic"
)

// Result is everything one benchmark run produced.
type Result struct {
	Scenario string
	Density  float64

	// BootstrapReservedCores and BootstrapDiskGB capture Table 3's
	// starting state (after placement, before growth).
	BootstrapReservedCores float64
	BootstrapFreeCores     float64
	BootstrapDiskGB        float64
	BootstrapDiskUtil      float64
	InitialCounts          map[slo.Edition]int

	// Samples are the hourly cluster-level series over the measured
	// window (Figures 10, 11).
	Samples []telemetry.Sample
	// NodeSamples are 10-minute node-level readings (Figure 13).
	NodeSamples []telemetry.NodeSample
	// Failovers are all capacity-violation movements (Figure 12b).
	Failovers []telemetry.FailoverRecord
	// Redirects are creation redirects (Figure 10).
	Redirects []telemetry.RedirectRecord
	// RedirectsByHour is the cumulative redirect series.
	RedirectsByHour []int
	// FirstRedirectHour is the first hour with a redirect (-1 if none).
	FirstRedirectHour int

	// Final state at experiment end.
	FinalReservedCores float64
	FinalDiskGB        float64
	FinalCoreUtil      float64 // vs. 100%-density logical capacity
	FinalDiskUtil      float64

	// FailedOverCores per edition and total (Figure 12b, Figure 2 x-axis).
	FailedOverCores map[slo.Edition]float64

	// Revenue scoring (Figure 14, Figure 2 circle sizes).
	Revenue revenue.Totals
	PerDB   []revenue.Revenue

	Creates, Drops, PopFailures int
	// CreatesByEdition/DropsByEdition count churn during the measured
	// window (bootstrap creates are excluded by recorder start time).
	CreatesByEdition map[slo.Edition]int
	DropsByEdition   map[slo.Edition]int
	// PeakNodeDiskUtil is the highest node-level disk utilization
	// observed in the node samples.
	PeakNodeDiskUtil float64
	// NamingReads counts Naming Service Get calls over the whole run —
	// dominated by the per-node model refresh polling and the persisted
	// disk-metric protocol.
	NamingReads int64
	// BalanceMoves equals PlannedMoves: the fabric counts balancing moves
	// and maintenance drains as one total. Run digests (perf's among
	// them) read it under this name.
	BalanceMoves int
	// UnplannedFailovers and PlannedMoves split all replica movements by
	// cause: unplanned (capacity violations, resizes, crash evacuations)
	// versus planned (balancing, maintenance drains). Only unplanned
	// movements contribute SLA-penalized downtime.
	UnplannedFailovers int
	PlannedMoves       int
	// PlannedDowntime sums unavailability from planned movements across
	// all databases — reported alongside revenue, never penalized.
	PlannedDowntime time.Duration
	// QuorumLosses and QuorumDowntime summarize replica-set availability
	// under the configured topology: windows where a replica set lost its
	// primary or a majority of replicas to down nodes. The downtime flows
	// into per-database SLA penalties; these totals surface it. Zero
	// unless the scenario configures fault domains.
	QuorumLosses   int
	QuorumDowntime time.Duration
	// Upgrade is the domain-upgrade walker's final status (nil for runs
	// without a DomainUpgrade).
	Upgrade *fabric.UpgradeStatus
	// Chaos summarizes the injected fault schedule and the continuous
	// invariant checker's verdict (nil for runs without a chaos spec).
	Chaos *chaos.Stats
	// SlowNodes summarizes the fabric's gray-failure detector — slow-node
	// detections, probationary quarantines, drain moves, and recoveries
	// (nil for runs without SlowNodeDetection).
	SlowNodes *fabric.SlowNodeStats
	// Traffic summarizes the request-level traffic plane — arrivals,
	// sheds, breaker activity, retries, tail-latency quantiles, and the
	// hourly p99 SLO verdict (nil for runs without a traffic spec).
	Traffic *traffic.Stats
	// Alerts summarizes the watch layer's activity (nil for runs without
	// alert rules); AlertHistory is every transition in firing order, each
	// carrying the causal root its firing was bracketed to.
	Alerts       *alert.Stats
	AlertHistory []alert.Transition
	// PoolsProvisioned, PoolMemberCreates, and PoolMemberDrops summarize
	// elastic-pool churn (zero unless the model set carries a PoolPolicy).
	// PoolMemberDrops counts the members the Population Manager dropped
	// and the members a dropped pool took with it, so creates minus drops
	// is the number of members left.
	PoolsProvisioned  int
	PoolMemberCreates int
	PoolMemberDrops   int
}

// TotalFailedOverCores sums moved cores across editions.
func (r *Result) TotalFailedOverCores() float64 {
	total := 0.0
	for _, v := range r.FailedOverCores {
		total += v
	}
	return total
}

// Run executes the full experiment protocol of §5.2 on a scenario: it
// builds an orchestrator for s and runs it (see Orchestrator.Run).
func Run(s *Scenario) (*Result, error) {
	o, err := NewOrchestrator(s)
	if err != nil {
		return nil, err
	}
	return o.Run()
}

// Run executes the full experiment protocol of §5.2 on the orchestrator's
// scenario, once:
//
//  1. Deploy the cluster and inject the models with growth frozen.
//  2. Bootstrap the initial population (disk usage initialized, growth
//     fixed to 0) and let the PLB place and balance it.
//  3. Unfreeze the models, start the Population Manager, telemetry and
//     the chaos and traffic engines, and run for the scenario duration.
//  4. Score modeled adjusted revenue per database under the SLA.
//
// It stops the orchestrator on return; the Series, Alerts and Traces
// handles stay readable.
func (o *Orchestrator) Run() (*Result, error) {
	s := o.Scenario
	defer o.Stop()

	// Root span of the whole run. Error paths leave spans unended, which
	// simply keeps them out of the trace — the run failed anyway.
	runSp := s.Obs.Span("core.run",
		obs.Str("scenario", s.Name),
		obs.Float("density", s.Density),
		obs.Int("nodes", s.Nodes),
	)
	s.Obs.Log().Infof("core: run %q starting (density %.0f%%, %d nodes)", s.Name, s.Density*100, s.Nodes)

	// Phase 1: frozen models.
	frozen := cloneFrozen(s.Models, true)
	if err := o.WriteModels(frozen); err != nil {
		return nil, fmt.Errorf("core: write frozen models: %w", err)
	}
	o.Start()

	// Phase 2: bootstrap.
	bootSp := s.Obs.Span("core.bootstrap")
	counts, err := o.BootstrapPopulation()
	if err != nil {
		return nil, err
	}
	o.Clock.RunUntil(s.Start.Add(s.BootstrapDuration))
	bootSp.End(
		obs.Int("dbs", len(o.Cluster.LiveServices())),
		obs.Float("reserved_cores", o.Cluster.ReservedCores()),
		obs.Float("disk_gb", o.Cluster.DiskUsage()),
	)

	res := &Result{
		Scenario:               s.Name,
		Density:                s.Density,
		InitialCounts:          counts,
		BootstrapReservedCores: o.Cluster.ReservedCores(),
		BootstrapFreeCores:     o.Cluster.FreeCores(),
		BootstrapDiskGB:        o.Cluster.DiskUsage(),
		BootstrapDiskUtil:      o.Cluster.DiskUsage() / o.Cluster.DiskCapacity(),
		FailedOverCores:        make(map[slo.Edition]float64),
	}

	// Phase 3: measured window.
	live := cloneFrozen(s.Models, false)
	if err := o.WriteModels(live); err != nil {
		return nil, fmt.Errorf("core: write live models: %w", err)
	}
	measureStart := o.Clock.Now()
	measSp := s.Obs.Span("core.measure")
	o.Recorder.Start(s.Duration)
	o.PopMgr.Start()
	if s.UpgradeStart > 0 {
		perNode := s.UpgradePerNode
		if perNode <= 0 {
			perNode = 20 * time.Minute
		}
		o.Cluster.ScheduleRollingUpgrade(measureStart.Add(s.UpgradeStart), perNode)
	}
	if s.DomainUpgrade != nil {
		if _, err := o.Cluster.ScheduleDomainUpgrade(measureStart.Add(s.DomainUpgrade.Start), s.DomainUpgrade.Spec); err != nil {
			return nil, fmt.Errorf("core: schedule domain upgrade: %w", err)
		}
	}
	if o.chaos != nil {
		o.chaos.Start(measureStart)
	}
	// The traffic plane starts after the chaos engine so injected faults
	// precede the tick that observes them at equal timestamps.
	if o.traffic != nil {
		o.traffic.RegisterProm(s.Obs.Registry())
		if o.chaos != nil {
			// Chaos fail-slow windows become the traffic plane's node
			// latency multipliers — the signal the slow-node detector
			// and hedging react to. Healthy nodes report factor 1, so
			// this is inert for schedules without fail-slow faults.
			o.traffic.SetSlowFactor(o.chaos.SlowFactor)
		}
		o.traffic.Start(measureStart)
	}
	o.Clock.RunUntil(measureStart.Add(s.Duration))
	measSp.End(
		obs.Int("failovers", o.Cluster.UnplannedFailoverCount()),
		obs.Float("reserved_cores", o.Cluster.ReservedCores()),
	)

	// Phase 4: collect and score.
	res.Samples = o.Recorder.Samples()
	res.NodeSamples = o.Recorder.NodeSamples()
	res.Failovers = o.Recorder.Failovers()
	res.Redirects = o.Recorder.Redirects()
	hours := int(s.Duration / time.Hour)
	res.RedirectsByHour = o.Recorder.RedirectsByHour(measureStart, hours)
	res.FirstRedirectHour = -1
	for h, c := range res.RedirectsByHour {
		if c > 0 {
			res.FirstRedirectHour = h
			break
		}
	}
	res.FinalReservedCores = o.Cluster.ReservedCores()
	res.FinalDiskGB = o.Cluster.DiskUsage()
	res.FinalDiskUtil = res.FinalDiskGB / o.Cluster.DiskCapacity()
	baselineCores := float64(s.NodeSpec.LogicalCores * s.Nodes)
	res.FinalCoreUtil = res.FinalReservedCores / baselineCores

	for _, f := range res.Failovers {
		res.FailedOverCores[f.Edition] += f.MovedCores
	}

	// Close any quorum-loss windows still open at run end so their
	// downtime is priced before scoring. No-op without a topology.
	o.Cluster.CloseQuorumWindows()
	if err := scoreRevenue(o, res, measureStart); err != nil {
		return nil, err
	}
	// Export the revenue verdict into the metrics registry: journaled runs
	// embed the final snapshot, which is how totoscope attributes SLA
	// penalty dollars to causal chains without rescoring.
	s.Obs.Gauge("revenue.gross_usd").Set(res.Revenue.Gross)
	s.Obs.Gauge("revenue.penalty_usd").Set(res.Revenue.Penalty)
	s.Obs.Gauge("revenue.adjusted_usd").Set(res.Revenue.Adjusted)
	s.Obs.Gauge("revenue.breached_dbs").Set(float64(res.Revenue.Breached))

	creates, drops, fails := o.PopMgr.Stats()
	res.Creates, res.Drops, res.PopFailures = creates, drops, fails
	res.CreatesByEdition = o.Recorder.CreatesByEdition()
	res.DropsByEdition = o.Recorder.DropsByEdition()
	diskCap := s.NodeSpec.LogicalDiskGB
	for _, ns := range res.NodeSamples {
		if u := ns.DiskUsageGB / diskCap; u > res.PeakNodeDiskUtil {
			res.PeakNodeDiskUtil = u
		}
	}
	res.NamingReads = o.Cluster.Naming().Reads()
	res.UnplannedFailovers = o.Cluster.UnplannedFailoverCount()
	res.PlannedMoves = o.Cluster.PlannedMoveCount()
	res.BalanceMoves = res.PlannedMoves
	for _, svc := range o.Cluster.Services() {
		res.PlannedDowntime += svc.PlannedDowntime
	}
	res.QuorumLosses = o.Cluster.QuorumLossCount()
	res.QuorumDowntime = o.Cluster.QuorumDowntime()
	if st, ok := o.Cluster.UpgradeStatus(); ok {
		res.Upgrade = &st
	}
	if o.chaos != nil {
		st := o.chaos.Stats()
		res.Chaos = &st
	}
	if o.Cluster.SlowNodeDetectionEnabled() {
		st := o.Cluster.SlowNodeStats()
		res.SlowNodes = &st
		s.Obs.Gauge("fabric.slow_node_detections").Set(float64(st.Detections))
		s.Obs.Gauge("fabric.slow_node_quarantines").Set(float64(st.Quarantines))
		s.Obs.Gauge("fabric.slow_node_drain_moves").Set(float64(st.DrainMoves))
		s.Obs.Gauge("fabric.slow_node_recoveries").Set(float64(st.Recoveries))
	}
	if o.traffic != nil {
		st := o.traffic.Stats()
		res.Traffic = &st
		// Export the tail-latency verdict next to the revenue gauges so
		// journaled runs carry it in the final snapshot.
		s.Obs.Gauge("traffic.requests").Set(float64(st.Arrivals))
		s.Obs.Gauge("traffic.failed").Set(float64(st.Failed))
		s.Obs.Gauge("traffic.error_rate").Set(st.ErrorRate)
		s.Obs.Gauge("traffic.p50_ms").Set(st.P50Ms)
		s.Obs.Gauge("traffic.p99_ms").Set(st.P99Ms)
		s.Obs.Gauge("traffic.p999_ms").Set(st.P999Ms)
		s.Obs.Gauge("traffic.slo_violation_hours").Set(float64(st.SLOViolationHours))
		s.Obs.Gauge("traffic.slo_p99_ms").Set(st.SLOP99Ms)
		if rt := st.Reqtrace; rt != nil {
			s.Obs.Gauge("traffic.traces_considered").Set(float64(rt.Considered))
			s.Obs.Gauge("traffic.traces_kept").Set(float64(rt.Kept))
			s.Obs.Gauge("traffic.traces_kept_errors").Set(float64(rt.KeptErrors))
		}
		// Hedge gauges appear only when hedging is configured, so
		// hedge-free journals keep their historical final snapshots.
		if s.Traffic.Hedge != nil {
			s.Obs.Gauge("traffic.hedges").Set(float64(st.Hedges))
			s.Obs.Gauge("traffic.hedges_denied").Set(float64(st.HedgesDenied))
			s.Obs.Gauge("traffic.hedge_wins").Set(float64(st.HedgeWins))
		}
	}
	if o.alerts != nil && o.alerts.RuleCount() > 0 {
		st := o.alerts.Stats()
		res.Alerts = &st
		res.AlertHistory = o.alerts.History()
	}
	res.PoolsProvisioned = o.poolsCreated
	res.PoolMemberCreates, res.PoolMemberDrops = o.PopMgr.PoolStats()
	res.PoolMemberDrops += o.droppedMembers
	runSp.End(
		obs.Int("failovers", o.Cluster.UnplannedFailoverCount()),
		obs.Int("creates", res.Creates),
		obs.Int("drops", res.Drops),
		obs.Float("revenue", res.Revenue.Adjusted),
	)
	s.Obs.Log().Infof("core: run %q done: %d failovers, %d creates, %d drops", s.Name, o.Cluster.UnplannedFailoverCount(), res.Creates, res.Drops)
	return res, nil
}

// scoreRevenue computes per-database modeled adjusted revenue over the
// measured window (§5.1).
func scoreRevenue(o *Orchestrator, res *Result, measureStart time.Time) error {
	end := o.Clock.Now()
	sla := revenue.DefaultSLA()
	for _, svc := range o.Cluster.Services() {
		sl, err := o.Control.ServiceSLO(svc)
		if err != nil {
			return err
		}
		// Score only time inside the measured window.
		from := svc.Created
		if from.Before(measureStart) {
			from = measureStart
		}
		to := end
		if !svc.Dropped.IsZero() && svc.Dropped.Before(end) {
			to = svc.Dropped
		}
		if !to.After(from) {
			continue
		}
		lifetime := to.Sub(from)
		avgDisk := 0.0
		if gbs := o.DiskGBSeconds(svc.Name); gbs > 0 {
			avgDisk = gbs / svc.Lifetime(end).Seconds()
		}
		downtime := svc.Downtime
		if downtime > lifetime {
			downtime = lifetime
		}
		rev, err := revenue.Score(revenue.Usage{
			DB:                 svc.Name,
			SLO:                sl,
			Lifetime:           lifetime,
			AvgDiskGB:          avgDisk,
			Downtime:           downtime,
			PlannedDowntime:    svc.PlannedDowntime,
			UnplannedFailovers: svc.UnplannedFailovers,
		}, sla)
		if err != nil {
			return err
		}
		res.PerDB = append(res.PerDB, rev)
	}
	res.Revenue = revenue.Aggregate(res.PerDB)
	return nil
}

// cloneFrozen returns a shallow copy of set with the Frozen flag set.
// Models are immutable during a run, so sharing the inner pointers is
// safe.
func cloneFrozen(set *models.ModelSet, frozen bool) *models.ModelSet {
	c := *set
	c.Frozen = frozen
	return &c
}

// DensityStudy runs the same scenario at several density levels,
// reproducing the paper's §5 study. Run i takes seeds.DensityRun(i): the
// PLB seed steps per density, since the paper could not hold it fixed.
func DensityStudy(base func(density float64, seeds Seeds) *Scenario, densities []float64, seeds Seeds) ([]*Result, error) {
	var out []*Result
	for i, d := range densities {
		res, err := Run(base(d, seeds.DensityRun(i)))
		if err != nil {
			return nil, fmt.Errorf("core: density %.0f%%: %w", d*100, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// RepeatRun executes the identical scenario n times varying only the PLB
// seed, reproducing the paper's §5.3.4 repeatability analysis (three
// identical 18-hour experiments). Run i takes seeds.RepeatRun(i).
func RepeatRun(build func(seeds Seeds) *Scenario, seeds Seeds, n int) ([]*Result, error) {
	var out []*Result
	for i := 0; i < n; i++ {
		res, err := Run(build(seeds.RepeatRun(i)))
		if err != nil {
			return nil, fmt.Errorf("core: repeat %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}
