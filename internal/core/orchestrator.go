package core

import (
	"fmt"
	"time"

	"toto/internal/chaos"
	"toto/internal/controlplane"
	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/obs/alert"
	"toto/internal/obs/reqtrace"
	"toto/internal/obs/timeseries"
	"toto/internal/population"
	"toto/internal/rgmanager"
	"toto/internal/rng"
	"toto/internal/simclock"
	"toto/internal/slo"
	"toto/internal/telemetry"
	"toto/internal/traffic"
)

// The paper's sampling and reporting periods (§5.2): hourly cluster
// samples, 10-minute node samples (Figure 13; also the series store's
// resolution) and 20-minute memory and CPU reports.
const (
	telemetryInterval     = time.Hour
	nodeTelemetryInterval = 10 * time.Minute
	memoryReportInterval  = 20 * time.Minute
)

// Orchestrator assembles a benchmark deployment: the cluster, one
// RgManager per node, the reporting engine that drives replica metric
// reports through the managers, the Population Manager, and telemetry.
// It is the in-repo equivalent of the paper's "man behind the curtain"
// (§3): it instructs when databases are created and dropped and what each
// database's resource usage currently is — entirely through the same
// interfaces production components use (Naming Service XML, RgManager
// RPCs, control-plane CRUD).
type Orchestrator struct {
	Scenario *Scenario
	Clock    *simclock.Clock
	Cluster  *fabric.Cluster
	Control  *controlplane.ControlPlane
	PopMgr   *population.Manager
	Recorder *telemetry.Recorder

	// managers holds each node's RgManager at the node's Index; store is
	// their shared process memory.
	managers []*rgmanager.Manager
	store    *rgmanager.Store
	// dbs holds each registered live database at its service's Slot.
	dbs []dbEntry
	// droppedGBSeconds keeps the disk integral of dropped databases (see
	// dbEntry.diskGBSeconds) for the revenue score.
	droppedGBSeconds map[string]float64
	lastReport       time.Time
	// poolSeq numbers the pools the Population Manager provisions, one
	// per attempt; poolsCreated counts the pools created
	// (Result.PoolsProvisioned), and droppedMembers the members that
	// dropped pools took with them (part of Result.PoolMemberDrops).
	poolSeq, poolsCreated, droppedMembers int

	tickers []*simclock.Ticker
	obs     *obs.Obs

	// The optional layers, each built by NewOrchestrator when its spec is
	// set; collector samples series from Start to Stop.
	series    *timeseries.Store
	collector *timeseries.Collector
	alerts    *alert.Engine
	chaos     *chaos.Engine
	traffic   *traffic.Engine
}

// dbEntry is the orchestrator's record of one registered live database.
// It sits at the service's slot, and slots recycle, so svc guards it:
// entry returns it for svc alone.
type dbEntry struct {
	svc  *fabric.Service
	info rgmanager.DBInfo
	// poolCap, the pool SLO's MaxMemberDBs, marks an elastic pool (see
	// pools.go) when positive. A pool's disk reports sum its members;
	// members holds their metadata in name order, at most poolCap of
	// them, and is the only record of the pool's membership.
	poolCap int
	members []*rgmanager.DBInfo
	// diskGBSeconds integrates the primary's reported disk over time,
	// feeding the storage-revenue term.
	diskGBSeconds float64
}

// NewOrchestrator builds (but does not start) a deployment for scenario
// and every optional layer its specs turn on: a series store when Alerts,
// Traffic or Journal is set, an alert engine when Alerts is, and the
// chaos and traffic engines (with the trace recorder) when Chaos and
// Traffic are. Each call builds layers of its own and writes no field of
// s; Start and Run start them.
func NewOrchestrator(s *Scenario) (*Orchestrator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	clock := simclock.New(s.Start)
	// Bind the observability layer to the simulation clock before any
	// instrumented component runs, so every span and log line carries
	// simulated timestamps.
	s.Obs.SetNow(clock.Now)

	cfg := fabric.DefaultConfig()
	cfg.Density = s.Density
	cfg.PLBSeed = s.Seeds.PLB
	cfg.Obs = s.Obs
	cfg.FaultDomains = s.FaultDomains
	cfg.UpgradeDomains = s.UpgradeDomains
	if s.FabricOverrides != nil {
		s.FabricOverrides(&cfg)
	}
	capacity := map[fabric.MetricName]float64{
		fabric.MetricCores:    float64(s.NodeSpec.LogicalCores),
		fabric.MetricDiskGB:   s.NodeSpec.LogicalDiskGB,
		fabric.MetricMemoryGB: s.NodeSpec.LogicalMemoryGB,
	}
	cluster := fabric.NewCluster(clock, s.Nodes, capacity, cfg)
	if s.SlowNodeDetection != nil {
		// Arm before Start so the first PLB scan already runs the
		// detector's state machine; the traffic plane feeds it per-node
		// service latencies once the measured window opens.
		cluster.EnableSlowNodeDetection(*s.SlowNodeDetection)
	}
	if s.Journal != nil {
		// Attach before anything can emit: the journal must open with the
		// bootstrap placements, and subscribing the annotation listener is
		// what switches the fabric's causal-annotation paths on.
		s.Journal.Attach(cluster)
	}

	o := &Orchestrator{
		Scenario:         s,
		Clock:            clock,
		Cluster:          cluster,
		Control:          controlplane.New(cluster, s.Catalog),
		store:            rgmanager.NewStore(s.Obs),
		droppedGBSeconds: make(map[string]float64),
		lastReport:       s.Start,
		obs:              s.Obs,
	}

	// One RgManager per node, each with a unique seed split from the
	// model seed (§5.2).
	seedRoot := rng.New(s.Seeds.Models)
	for _, n := range cluster.Nodes() {
		mgr := rgmanager.New(n, cluster.Naming(), o.store, seedRoot.Split(n.ID).Uint64())
		mgr.SetObs(s.Obs)
		o.managers = append(o.managers, mgr)
	}

	o.Recorder = telemetry.NewRecorder(clock, cluster, telemetryInterval, nodeTelemetryInterval, func(svc *fabric.Service) slo.Edition {
		e, err := controlplane.ServiceEdition(svc)
		if err != nil {
			return slo.StandardGP
		}
		return e
	})
	o.Control.OnRedirect(func(db string, sl slo.SLO) {
		o.Recorder.RecordRedirect(db, sl.Edition, sl.Name, float64(sl.TotalCores()))
	})

	o.Recorder.RegisterMetrics(s.Obs.Registry())

	o.PopMgr = population.New(clock, cluster.Naming(), o.Control, s.Seeds.Population)
	o.PopMgr.SetObs(s.Obs)
	o.PopMgr.OnCreated(func(svc *fabric.Service, sl slo.SLO, initialDiskGB float64) {
		o.registerDB(svc, sl)
		o.seedInitialLoad(svc, sl, initialDiskGB)
	})
	o.PopMgr.SetPoolOps(poolOps{o})

	// Evict in-memory model state when a replica leaves a node, and all
	// of a database's state when it is dropped.
	cluster.Subscribe(func(ev fabric.Event) {
		switch ev.Kind {
		case fabric.EventFailover, fabric.EventBalanceMove:
			if i := ev.Replica.Index; i >= 0 && i < len(ev.Service.Replicas) {
				rep := ev.Service.Replicas[i]
				o.store.Evict(rep, rep.Incarnation-1)
			}
		case fabric.EventServiceDropped:
			o.dropDB(ev.Service)
		}
	})

	// The series store spans the whole run at the node-sampling
	// resolution, so nothing ages out of its rings mid-run.
	if s.Alerts != nil || s.Traffic != nil || s.Journal != nil {
		o.series = timeseries.NewStore(nodeTelemetryInterval, int((s.BootstrapDuration+s.Duration)/nodeTelemetryInterval)+2)
	}
	if s.Alerts != nil {
		o.alerts = alert.NewEngine(s.Alerts)
	}
	var err error
	if s.Chaos != nil {
		if o.chaos, err = chaos.NewEngine(clock, cluster, s.Chaos, s.Obs); err != nil {
			return nil, err
		}
	}
	if s.Traffic != nil {
		if o.traffic, err = traffic.NewEngine(clock, cluster, s.Traffic, o.series, s.Obs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// DiskGBSeconds returns the integral of a database's disk usage (GB·s).
func (o *Orchestrator) DiskGBSeconds(db string) float64 {
	if e := o.entryNamed(db); e != nil {
		return e.diskGBSeconds
	}
	return o.droppedGBSeconds[db]
}

// entry returns svc's registered database, or nil if svc is not
// registered (or no longer live).
func (o *Orchestrator) entry(svc *fabric.Service) *dbEntry {
	if i := svc.Slot(); i < len(o.dbs) && o.dbs[i].svc == svc {
		return &o.dbs[i]
	}
	return nil
}

// entryNamed returns the registered live database named db, or nil.
func (o *Orchestrator) entryNamed(db string) *dbEntry {
	if svc, ok := o.Cluster.Service(db); ok {
		return o.entry(svc)
	}
	return nil
}

// dropDB clears the persisted loads of a dropped database and of its pool
// members, evicts its replicas' in-memory state and retires its entry
// (a pool's members with it, counted as member drops), keeping its disk
// integral for the revenue score.
func (o *Orchestrator) dropDB(svc *fabric.Service) {
	naming := o.Cluster.Naming()
	rgmanager.ClearPersisted(naming, svc.Name)
	o.store.Drop(svc)
	if e := o.entry(svc); e != nil {
		for _, member := range e.members {
			rgmanager.ClearPersisted(naming, member.Name)
		}
		o.droppedMembers += len(e.members)
		o.droppedGBSeconds[svc.Name] = e.diskGBSeconds
		*e = dbEntry{}
	}
}

// RegisterDatabase records the metadata the RgManagers need to evaluate
// models for a database created outside the Population Manager (tools
// and repro harnesses drive the control plane directly).
func (o *Orchestrator) RegisterDatabase(svc *fabric.Service, sl slo.SLO) { o.registerDB(svc, sl) }

// registerDB records the metadata the RgManagers need for a live
// database, at its service's slot. A dropped service is never reported
// and its slot may already be another's, so it is not registered.
func (o *Orchestrator) registerDB(svc *fabric.Service, sl slo.SLO) {
	if !svc.Alive() {
		return
	}
	i := svc.Slot()
	if i >= len(o.dbs) {
		o.dbs = append(o.dbs, make([]dbEntry, i+1-len(o.dbs))...)
	}
	e := &o.dbs[i]
	if e.svc != svc {
		// A re-created name continues its predecessor's disk integral.
		*e = dbEntry{svc: svc, diskGBSeconds: o.droppedGBSeconds[svc.Name]}
		delete(o.droppedGBSeconds, svc.Name)
	}
	e.info = rgmanager.DBInfo{
		Name:        svc.Name,
		Edition:     sl.Edition,
		Created:     svc.Created,
		MaxDiskGB:   sl.MaxDiskGB,
		MaxMemoryGB: sl.MemoryGB,
	}
}

// seedInitialLoad reports an initial disk load for every replica of a new
// database and primes the model state so subsequent model evaluations
// grow from it.
func (o *Orchestrator) seedInitialLoad(svc *fabric.Service, sl slo.SLO, diskGB float64) {
	if diskGB < 0 {
		diskGB = 0
	}
	if diskGB > sl.MaxDiskGB {
		diskGB = sl.MaxDiskGB
	}
	e := o.entry(svc)
	for _, rep := range svc.Replicas {
		if rep.Node == nil {
			continue
		}
		if err := o.Cluster.ReportLoad(rep, fabric.MetricDiskGB, diskGB); err != nil {
			continue
		}
		if e != nil {
			o.managers[rep.Node.Index()].SeedLoad(rep, &e.info, diskGB)
		}
	}
}

// WriteModels validates set, stores a copy of it in the Naming Service
// and immediately refreshes every manager (production managers would pick
// it up within 15 minutes; the immediate refresh models the experiment
// operator waiting for propagation before proceeding). A set that fails
// Validate is not written. The copy is what parsing set's XML would give,
// so the caller may go on editing set.
func (o *Orchestrator) WriteModels(set *models.ModelSet) error {
	if err := set.Validate(); err != nil {
		return err
	}
	o.Cluster.Naming().PutValue(models.NamingKey, set.Clone())
	for _, mgr := range o.managers {
		if err := mgr.Refresh(); err != nil {
			return err
		}
	}
	return nil
}

// Start launches the PLB scan, the series collector and alert engine,
// the model-refresh tickers, and the metric-reporting engine. The
// Population Manager, chaos and traffic are started separately (the
// experiment protocol bootstraps first).
func (o *Orchestrator) Start() {
	o.Cluster.Start()
	if o.series != nil {
		o.collector = timeseries.NewCollector(o.Cluster, o.series)
		o.collector.Start(o.Clock)
	}
	// Start the alert engine after the collector so that, at equal tick
	// timestamps, sampling precedes rule evaluation.
	if o.alerts != nil {
		o.alerts.Bind(o.Cluster, o.series)
		o.alerts.Start(o.Clock)
	}
	if o.Scenario.ModelRefreshInterval > 0 {
		o.tickers = append(o.tickers, o.Clock.Every(o.Scenario.ModelRefreshInterval, func(time.Time) {
			for _, mgr := range o.managers {
				// An entry holding no model set leaves the previous
				// models active; production RgManager is similarly
				// defensive.
				_ = mgr.Refresh()
			}
		}))
	}
	interval := o.Scenario.Models.DiskReportInterval()
	o.tickers = append(o.tickers, o.Clock.Every(interval, func(now time.Time) {
		o.reportDisk(now)
	}))
	o.tickers = append(o.tickers, o.Clock.Every(memoryReportInterval, func(now time.Time) {
		o.reportMemory(now)
	}))
	if o.obs != nil {
		// Hourly heartbeat band on the sim timeline: each simulated hour
		// becomes one span carrying the headline cluster state, so a trace
		// viewer shows the run's coarse progression at a glance.
		o.tickers = append(o.tickers, o.Clock.Every(time.Hour, func(now time.Time) {
			o.obs.Emit("core.sim_hour", now.Add(-time.Hour), time.Hour,
				obs.Int("live_dbs", o.Cluster.LiveServiceCount()),
				obs.Float("reserved_cores", o.Cluster.ReservedCores()),
				obs.Float("disk_gb", o.Cluster.DiskUsage()),
				obs.Int("failovers_total", o.Cluster.UnplannedFailoverCount()),
			)
		}))
	}
}

// Series returns the run's series store, or nil when the scenario sets
// none of Alerts, Traffic and Journal.
func (o *Orchestrator) Series() *timeseries.Store { return o.series }

// Alerts returns the run's alert engine, or nil when the scenario has no
// Alerts spec.
func (o *Orchestrator) Alerts() *alert.Engine { return o.alerts }

// Traces returns the traffic plane's request-trace recorder, or nil when
// the scenario traces no requests.
func (o *Orchestrator) Traces() *reqtrace.Recorder {
	if o.traffic == nil {
		return nil
	}
	return o.traffic.Recorder()
}

// Stop halts what the orchestrator itself keeps on the clock: its report
// and refresh tickers, the alert engine, the series collector (after one
// closing sample), the cluster's PLB scans, the Population Manager and
// the telemetry recorder. The chaos and traffic engines that Run starts
// are left running: their tickers and pending faults stay on the clock,
// which is safe because nothing advances the clock after Run returns, and
// degraded mode stays as the chaos engine set it, so a metrics snapshot
// taken after the run still shows fabric.degraded_mode as the run ended.
func (o *Orchestrator) Stop() {
	for _, t := range o.tickers {
		t.Stop()
	}
	o.tickers = nil
	if o.alerts != nil {
		o.alerts.Stop()
	}
	if o.collector != nil {
		// One closing sample so the series end at the stop instant, then
		// detach from the clock.
		o.collector.Sample(o.Clock.Now())
		o.collector.Stop()
		o.collector = nil
	}
	o.Cluster.Stop()
	o.PopMgr.Stop()
	o.Recorder.Stop()
}

// reportDisk drives one disk-report round: every replica of every live
// database consults its node's RgManager and reports the computed load to
// the PLB. Primaries report before secondaries so persisted-metric
// secondaries read the freshly written value (§3.3.2).
func (o *Orchestrator) reportDisk(now time.Time) {
	sp := o.obs.Span("core.report_disk")
	reports := 0
	dt := now.Sub(o.lastReport).Seconds()
	o.lastReport = now
	// EachLiveService keeps this 20-minute sweep allocation-free; reports
	// never create or drop services, which the sweep forbids.
	o.Cluster.EachLiveService(func(svc *fabric.Service) {
		e := o.entry(svc)
		if e == nil {
			return
		}
		var primaryLoad float64
		eachPrimaryFirst(svc, func(rep *fabric.Replica) {
			if rep.Node == nil {
				return
			}
			mgr := o.managers[rep.Node.Index()]
			var value float64
			var modeled bool
			if e.poolCap > 0 {
				value, modeled = mgr.ReportPoolDisk(rep, &e.info, e.members, now)
			} else {
				value, modeled = mgr.ReportDisk(rep, &e.info, now)
			}
			if !modeled {
				return // no model: the replica reports actual usage
			}
			if err := o.Cluster.ReportLoad(rep, fabric.MetricDiskGB, value); err != nil {
				return
			}
			reports++
			if rep.Role == fabric.Primary {
				primaryLoad = value
			}
		})
		if dt > 0 {
			e.diskGBSeconds += primaryLoad * dt
		}
	})
	sp.End(obs.Int("reports", reports))
}

// reportMemory drives one memory-report round.
func (o *Orchestrator) reportMemory(now time.Time) {
	sp := o.obs.Span("core.report_memory")
	reports := 0
	o.Cluster.EachLiveService(func(svc *fabric.Service) {
		e := o.entry(svc)
		if e == nil {
			return
		}
		for _, rep := range svc.Replicas {
			if rep.Node == nil {
				continue
			}
			mgr := o.managers[rep.Node.Index()]
			if value, modeled := mgr.ReportMemory(rep, &e.info, now); modeled {
				_ = o.Cluster.ReportLoad(rep, fabric.MetricMemoryGB, value)
				reports++
			}
			if value, modeled := mgr.ReportCPU(rep, &e.info, svc.ReservedCoresPerReplica, now); modeled {
				_ = o.Cluster.ReportLoad(rep, fabric.MetricCPUUsedCores, value)
				reports++
			}
		}
	})
	sp.End(obs.Int("reports", reports))
}

// eachPrimaryFirst calls fn for a service's primary and then for its
// other replicas in order, without building a reordered slice.
func eachPrimaryFirst(svc *fabric.Service, fn func(*fabric.Replica)) {
	if p := svc.Primary(); p != nil {
		fn(p)
	}
	for _, r := range svc.Replicas {
		if r.Role != fabric.Primary {
			fn(r)
		}
	}
}

// BootstrapPopulation creates the scenario's initial population through
// the control plane with growth frozen, seeding each database's initial
// disk load. It returns the number of databases created per edition and
// an error if any creation failed outright (redirects during bootstrap
// indicate an over-packed initial population and are returned as errors).
func (o *Orchestrator) BootstrapPopulation() (map[slo.Edition]int, error) {
	pop := o.Scenario.Population
	src := rng.New(pop.Seed)
	created := make(map[slo.Edition]int)
	for _, e := range slo.Editions() {
		mix := pop.SLOMix[e]
		if len(mix) == 0 && pop.Counts[e] > 0 {
			return created, fmt.Errorf("core: no SLO mix for %s", e)
		}
		weights := make([]float64, len(mix))
		for i, sw := range mix {
			weights[i] = sw.Weight
		}
		// Initial disk loads are sampled stratified: one draw per
		// equal-probability slice of the configured range, assigned in
		// shuffled order. A plain i.i.d. sample of only ~33 draws from a
		// 1 TB-wide uniform would move the cluster's starting disk
		// utilization by several percent between seeds, but the paper's
		// protocol holds the starting state constant across experiments
		// (Table 3 reports 77% for every density level).
		n := pop.Counts[e]
		diskVals := make([]float64, n)
		if bin, ok := pop.InitialDiskGB[e]; ok && n > 0 {
			for i := 0; i < n; i++ {
				if bin.HiGB > bin.LoGB {
					diskVals[i] = bin.LoGB + (bin.HiGB-bin.LoGB)*(float64(i)+src.Float64())/float64(n)
				} else {
					diskVals[i] = bin.LoGB
				}
			}
			src.Shuffle(n, func(i, j int) { diskVals[i], diskVals[j] = diskVals[j], diskVals[i] })
		}
		for i := 0; i < n; i++ {
			sloName := mix[src.Choice(weights)].Name
			sl, _ := o.Scenario.Catalog.Lookup(sloName)
			db := fmt.Sprintf("init-%s-%04d", editionSlug(e), i)
			initial := diskVals[i]
			if initial > sl.MaxDiskGB {
				initial = sl.MaxDiskGB
			}
			svc, err := o.Control.CreateDatabaseSeeded(db, sloName, initial)
			if err != nil {
				return created, fmt.Errorf("core: bootstrap create %s: %w", db, err)
			}
			o.registerDB(svc, sl)
			o.seedInitialLoad(svc, sl, initial)
			created[e]++
		}
	}
	return created, nil
}

func editionSlug(e slo.Edition) string {
	if e == slo.PremiumBC {
		return "bc"
	}
	return "gp"
}

// ScaleDatabase applies a customer SLO change and returns its outcome,
// whose Latency is the §5.4 scale-up latency.
func (o *Orchestrator) ScaleDatabase(db, newSLOName string) (fabric.ResizeOutcome, error) {
	outcome, next, err := o.Control.ScaleDatabase(db, newSLOName)
	if err != nil {
		return outcome, err
	}
	if e := o.entryNamed(db); e != nil {
		e.info.MaxDiskGB = next.MaxDiskGB
		e.info.MaxMemoryGB = next.MemoryGB
	}
	return outcome, nil
}
