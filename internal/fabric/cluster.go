package fabric

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"toto/internal/obs"
	"toto/internal/rng"
	"toto/internal/simclock"
)

// ErrInsufficientCores is returned by CreateService when the cluster
// cannot reserve the requested cores on enough distinct nodes. The
// control plane reacts by redirecting the creation to another tenant ring
// (§5.3.1).
var ErrInsufficientCores = errors.New("fabric: insufficient core capacity")

// ErrServiceExists is returned when creating a service whose name is
// already in use.
var ErrServiceExists = errors.New("fabric: service already exists")

// ErrNoSuchService is returned for operations on unknown services.
var ErrNoSuchService = errors.New("fabric: no such service")

// Config tunes the cluster and its PLB.
type Config struct {
	// ScanInterval is how often the PLB scans for capacity violations.
	ScanInterval time.Duration
	// Density scales the logical core capacity used for admission and
	// placement. 1.0 is the conservative production default; 1.1 admits
	// 10% more reserved cores than logical capacity (§5).
	Density float64
	// PLBSeed seeds the PLB's simulated-annealing randomness. The paper
	// could not fix this seed across repeated experiments (§5.2); the
	// experiment harness varies it deliberately.
	PLBSeed uint64
	// SAIterations bounds the simulated-annealing search per placement.
	SAIterations int
	// SAInitialTemp is the starting annealing temperature.
	SAInitialTemp float64
	// SACooling is the per-iteration geometric cooling factor in (0,1).
	SACooling float64
	// BuildRateGBPerSec is the data-copy throughput when rebuilding a
	// local-store replica on a new node.
	BuildRateGBPerSec float64
	// PrimarySwapDowntime is the brief unavailability when a secondary is
	// promoted during a multi-replica primary failover.
	PrimarySwapDowntime time.Duration
	// SingleReplicaMoveDowntime is the unavailability when a single-
	// replica (remote-store) database is detached and reattached on a
	// new node.
	SingleReplicaMoveDowntime time.Duration
	// MaxMovesPerViolation bounds how many replicas the PLB moves to fix
	// one node's violation in one scan.
	MaxMovesPerViolation int
	// BalancingEnabled turns on proactive balancing moves when node disk
	// utilization spread exceeds BalanceSpread.
	BalancingEnabled bool
	// BalanceSpread is the max-minus-min node disk utilization fraction
	// that triggers a balancing move.
	BalanceSpread float64
	// GreedyPlacement disables simulated annealing and uses pure greedy
	// least-loaded placement (for the ablation bench).
	GreedyPlacement bool
	// CrashDetectionDelay is the extra unavailability a primary suffers
	// when its node crashes (failure detection + lease expiry) before the
	// usual promotion or reattach downtime begins. Only crash evacuations
	// charge it; planned drains move primaries gracefully.
	CrashDetectionDelay time.Duration
	// RetryMaxAttempts bounds the retry loop around replica builds and
	// Naming Service writes when a fault injector is active.
	RetryMaxAttempts int
	// RetryBackoffBase is the first retry's nominal backoff delay; each
	// further attempt doubles it up to RetryBackoffMax. The realized
	// delay is jittered in [0.5, 1.0) of nominal from a dedicated seeded
	// stream, so retries never perturb placement randomness.
	RetryBackoffBase time.Duration
	// RetryBackoffMax caps the exponential backoff delay.
	RetryBackoffMax time.Duration
	// DegradedMaxMovesPerScan caps the violation-fix moves a single PLB
	// scan may make while degraded mode is on, throttling failover storms
	// after correlated failures. 0 means no cap even when degraded.
	DegradedMaxMovesPerScan int
	// QuarantineWindow is how long a crashed node stays excluded from
	// placement and failover targets after restarting in degraded mode.
	QuarantineWindow time.Duration
	// LoadStalenessTimeout is how old a node's last load report may be
	// before the degraded-mode PLB stops firing failovers from its
	// last-known-good loads. 0 disables the staleness check.
	LoadStalenessTimeout time.Duration
	// DegradationFactor converts time a primary replica spends on a node
	// whose load exceeds logical capacity into customer-visible
	// unavailability ("a database temporarily needing to wait for
	// resources it has requested", §1): each violation scan adds
	// ScanInterval*DegradationFactor of downtime to every database whose
	// primary sits on the violating node. 0 disables the accounting.
	DegradationFactor float64
	// FaultDomains stripes the cluster's nodes across correlated-failure
	// groups (racks, power feeds): node i lands in fault domain
	// i % FaultDomains. 0 (the default) keeps every node in its own
	// domain and disables all topology-aware logic — placement, quorum
	// tracking, and the domain-spread cost term — so default runs are
	// bit-identical to a topology-free fabric.
	FaultDomains int
	// UpgradeDomains stripes the nodes across rolling-upgrade batches the
	// same way. 0 gives every node its own upgrade domain (the upgrade
	// walker then proceeds node at a time).
	UpgradeDomains int
	// DomainSpreadWeight scales the fault-domain crowding term added to
	// the PLB's node cost while a topology is configured: each node pays
	// weight * (domain aggregate core utilization)^2, biasing placement
	// toward emptier domains. Ignored when FaultDomains is 0.
	DomainSpreadWeight float64
	// Obs is the observability layer the cluster instruments itself with.
	// nil (the default) disables all tracing and metrics at zero cost.
	Obs *obs.Obs
}

// topologyEnabled reports whether fault-domain coordinates were
// configured; every topology-aware code path is gated on it.
func (cfg *Config) topologyEnabled() bool { return cfg.FaultDomains > 0 }

// DefaultConfig returns production-like PLB settings.
func DefaultConfig() Config {
	return Config{
		ScanInterval:              5 * time.Minute,
		Density:                   1.0,
		PLBSeed:                   1,
		SAIterations:              400,
		SAInitialTemp:             1.0,
		SACooling:                 0.98,
		BuildRateGBPerSec:         0.25, // ~0.9 TB/hour replica build
		PrimarySwapDowntime:       15 * time.Second,
		SingleReplicaMoveDowntime: 75 * time.Second,
		MaxMovesPerViolation:      4,
		CrashDetectionDelay:       30 * time.Second,
		RetryMaxAttempts:          4,
		RetryBackoffBase:          5 * time.Second,
		RetryBackoffMax:           2 * time.Minute,
		DegradedMaxMovesPerScan:   8,
		QuarantineWindow:          30 * time.Minute,
		LoadStalenessTimeout:      time.Hour,
		DegradationFactor:         0.20,
		DomainSpreadWeight:        0.25,
		BalancingEnabled:          false,
		BalanceSpread:             0.35,
	}
}

// Cluster is a single tenant ring: a fixed set of nodes, the services
// placed on them, the Naming Service metastore, and the PLB.
type Cluster struct {
	clock     *simclock.Clock
	cfg       Config
	nodes     []*Node
	services  map[string]*Service
	naming    *NamingService
	plb       *plb
	listeners []Listener
	scan      *simclock.Ticker

	// Causality state: one monotonic sequence shared by events and
	// annotations, plus the ambient cause context the current decision
	// path established (violation fix, drain, crash, chaos injection).
	// Annotations are only generated while annListeners is non-empty, so
	// unjournaled runs pay one integer increment per event and nothing
	// else.
	seq          uint64
	cause        CauseCtx
	annListeners []AnnotationListener

	// counters for telemetry convenience
	failoverEvents int
	balanceMoves   int

	// fault-hardening state (see faults.go); all zero-valued and inert
	// unless a fault injector is installed or degraded mode is enabled.
	injector FaultInjector
	degraded bool
	retryRnd *rng.Source

	// quorum-availability state (see topology.go); only maintained while
	// a topology is configured. The sweep is incremental: instead of
	// re-evaluating every live service on each node transition, it visits
	// only the services hosted on the triggering node, the dirty set
	// (services whose replicas moved since the last sweep), and the
	// services with an open quorum-loss window.
	quorumLosses   int
	quorumDowntime time.Duration
	quorumDirty    []*Service // replicas moved since the last sweep
	openQuorum     []*Service // open quorum-loss windows
	quorumScratch  []*Service // reused sweep candidate buffer

	// live indexes the live services in name order: create inserts by
	// binary search and drop removes, so every sweep walks it directly
	// instead of filtering and sorting the map of all services ever
	// created. liveGen counts those mutations and liveChanged names the
	// last service they touched, so a sweep can detect and report a create
	// or drop made under it.
	live        []*Service
	liveGen     uint64
	liveChanged string
	// bySlot maps each slot to the live service holding it (nil while
	// free), so ReportLoad checks liveness and ownership with one pointer
	// compare; freeSlots holds the slots of dropped services for reuse
	// (see Service.Slot).
	bySlot    []*Service
	freeSlots []int

	// upgrade is the in-flight domain-upgrade walker, nil otherwise (see
	// upgrade.go).
	upgrade *UpgradeWalker

	// slowDet is the gray-failure detector, nil unless
	// EnableSlowNodeDetection was called (see slownode.go).
	slowDet *slowNodeDetector

	obs     *obs.Obs
	metrics clusterMetrics
}

// clusterMetrics caches the cluster's registry handles so hot paths bump
// them with one atomic op and no map lookup. All handles are nil (free
// no-ops) when the cluster has no observability layer.
type clusterMetrics struct {
	placements      *obs.Counter   // fabric.placement_attempts
	placementFailed *obs.Counter   // fabric.placement_failures
	annealIters     *obs.Counter   // fabric.annealing_iterations
	failovers       *obs.Counter   // fabric.failovers
	balanceMoves    *obs.Counter   // fabric.balance_moves
	violationMoves  *obs.Counter   // fabric.violation_moves
	movedDiskGB     *obs.Histogram // fabric.moved_disk_gb
	buildSeconds    *obs.Histogram // fabric.build_seconds
	downtimeSeconds *obs.Histogram // fabric.downtime_seconds

	// fault-hardening instruments (see faults.go)
	unplannedFailovers *obs.Counter   // fabric.unplanned_failovers
	plannedMoves       *obs.Counter   // fabric.planned_moves
	nodeCrashes        *obs.Counter   // fabric.node_crashes
	quarantines        *obs.Counter   // fabric.node_quarantines
	buildRetries       *obs.Counter   // fabric.build_retries
	buildFailures      *obs.Counter   // fabric.build_failures
	buildAborts        *obs.Counter   // fabric.build_aborts
	reportsLost        *obs.Counter   // fabric.reports_lost
	throttledMoves     *obs.Counter   // fabric.throttled_moves
	staleSkips         *obs.Counter   // fabric.stale_node_skips
	degradedMode       *obs.Gauge     // fabric.degraded_mode
	backoffSeconds     *obs.Histogram // fabric.backoff_seconds

	// topology / upgrade instruments (see topology.go, upgrade.go)
	quorumLosses    *obs.Counter   // fabric.quorum_losses
	quorumSeconds   *obs.Histogram // fabric.quorum_loss_seconds
	upgradeDomains  *obs.Counter   // fabric.upgrade_domains_completed
	upgradeStalls   *obs.Counter   // fabric.upgrade_stalls
	upgradeRollback *obs.Counter   // fabric.upgrade_rollbacks

	// gray-failure detection instruments (see slownode.go)
	slowDetections  *obs.Counter // fabric.slow_node_detections
	slowQuarantines *obs.Counter // fabric.slow_node_quarantines
	slowDrainMoves  *obs.Counter // fabric.slow_node_drain_moves
	slowRecoveries  *obs.Counter // fabric.slow_node_recoveries
}

func newClusterMetrics(o *obs.Obs) clusterMetrics {
	return clusterMetrics{
		placements:      o.Counter("fabric.placement_attempts"),
		placementFailed: o.Counter("fabric.placement_failures"),
		annealIters:     o.Counter("fabric.annealing_iterations"),
		failovers:       o.Counter("fabric.failovers"),
		balanceMoves:    o.Counter("fabric.balance_moves"),
		violationMoves:  o.Counter("fabric.violation_moves"),
		movedDiskGB:     o.Histogram("fabric.moved_disk_gb"),
		buildSeconds:    o.Histogram("fabric.build_seconds"),
		downtimeSeconds: o.Histogram("fabric.downtime_seconds"),

		unplannedFailovers: o.Counter("fabric.unplanned_failovers"),
		plannedMoves:       o.Counter("fabric.planned_moves"),
		nodeCrashes:        o.Counter("fabric.node_crashes"),
		quarantines:        o.Counter("fabric.node_quarantines"),
		buildRetries:       o.Counter("fabric.build_retries"),
		buildFailures:      o.Counter("fabric.build_failures"),
		buildAborts:        o.Counter("fabric.build_aborts"),
		reportsLost:        o.Counter("fabric.reports_lost"),
		throttledMoves:     o.Counter("fabric.throttled_moves"),
		staleSkips:         o.Counter("fabric.stale_node_skips"),
		degradedMode:       o.Gauge("fabric.degraded_mode"),
		backoffSeconds:     o.Histogram("fabric.backoff_seconds"),

		quorumLosses:    o.Counter("fabric.quorum_losses"),
		quorumSeconds:   o.Histogram("fabric.quorum_loss_seconds"),
		upgradeDomains:  o.Counter("fabric.upgrade_domains_completed"),
		upgradeStalls:   o.Counter("fabric.upgrade_stalls"),
		upgradeRollback: o.Counter("fabric.upgrade_rollbacks"),

		slowDetections:  o.Counter("fabric.slow_node_detections"),
		slowQuarantines: o.Counter("fabric.slow_node_quarantines"),
		slowDrainMoves:  o.Counter("fabric.slow_node_drain_moves"),
		slowRecoveries:  o.Counter("fabric.slow_node_recoveries"),
	}
}

// NewCluster builds a cluster of nodeCount identical nodes with the given
// per-node logical capacities.
func NewCluster(clock *simclock.Clock, nodeCount int, nodeCapacity map[MetricName]float64, cfg Config) *Cluster {
	if nodeCount < 1 {
		panic("fabric: cluster needs at least one node")
	}
	if cfg.Density <= 0 {
		panic("fabric: non-positive density")
	}
	c := &Cluster{
		clock:    clock,
		cfg:      cfg,
		services: make(map[string]*Service),
		naming:   NewNamingService(),
		obs:      cfg.Obs,
		metrics:  newClusterMetrics(cfg.Obs),
	}
	c.naming.instrument(
		cfg.Obs.Counter("fabric.naming_reads"),
		cfg.Obs.Counter("fabric.naming_writes"),
		cfg.Obs.Counter("fabric.naming_write_retries"),
		cfg.Obs.Counter("fabric.naming_write_drops"),
	)
	capVec := vectorFromMap(nodeCapacity)
	for i := 0; i < nodeCount; i++ {
		n := newNode(fmt.Sprintf("node-%d", i), i, capVec)
		// A fresh node counts as freshly reported, so the degraded-mode
		// staleness check measures from cluster start, not the zero time.
		n.lastReport = clock.Now()
		// Topology coordinates: one node per domain unless configured,
		// index-striped otherwise (node-0 → FD 0, node-1 → FD 1, ...).
		n.FaultDomain, n.UpgradeDomain = i, i
		if cfg.FaultDomains > 0 {
			n.FaultDomain = i % cfg.FaultDomains
		}
		if cfg.UpgradeDomains > 0 {
			n.UpgradeDomain = i % cfg.UpgradeDomains
		}
		c.nodes = append(c.nodes, n)
	}
	c.plb = newPLB(c, cfg)
	return c
}

// Start begins the PLB's periodic violation scan on the cluster's clock.
func (c *Cluster) Start() {
	if c.scan != nil {
		return
	}
	c.scan = c.clock.Every(c.cfg.ScanInterval, func(now time.Time) {
		c.plb.scan(now)
	})
}

// Stop halts the PLB scan.
func (c *Cluster) Stop() {
	if c.scan != nil {
		c.scan.Stop()
		c.scan = nil
	}
}

// Naming returns the cluster's Naming Service.
func (c *Cluster) Naming() *NamingService { return c.naming }

// Density returns the current density factor.
func (c *Cluster) Density() float64 { return c.cfg.Density }

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Subscribe registers a listener for cluster events.
func (c *Cluster) Subscribe(l Listener) { c.listeners = append(c.listeners, l) }

// SubscribeAnnotations registers a listener for causal annotations (the
// event journal). Annotations are only generated — and only consume
// sequence numbers — while at least one annotation listener exists.
func (c *Cluster) SubscribeAnnotations(l AnnotationListener) {
	c.annListeners = append(c.annListeners, l)
}

// CauseCtx is a saved ambient cause context, returned by BeginCause for
// restoring via EndCause. The zero value is the no-cause context.
type CauseCtx struct {
	seq  uint64
	kind CauseKind
}

// BeginCause establishes the ambient cause context: every event emitted
// until the matching EndCause whose cause is not already set is stamped
// with kind and anchored at seq (the Seq of the causing event or
// annotation; 0 when no anchor exists). Returns the previous context.
// The chaos engine brackets its fault injections with this so crash
// evacuations chain back to the injection that scheduled them.
func (c *Cluster) BeginCause(kind CauseKind, seq uint64) CauseCtx {
	prev := c.cause
	c.cause = CauseCtx{seq: seq, kind: kind}
	return prev
}

// EndCause restores the cause context saved by BeginCause.
func (c *Cluster) EndCause(prev CauseCtx) { c.cause = prev }

// emit assigns the event its sequence number, stamps the ambient cause
// if the emitter did not set one, and delivers it to every listener. It
// returns the assigned Seq so follow-on annotations (replica builds) can
// chain to the event.
func (c *Cluster) emit(ev Event) uint64 {
	c.seq++
	ev.Seq = c.seq
	if ev.Cause == CauseNone && ev.CauseSeq == 0 {
		ev.Cause = c.cause.kind
		ev.CauseSeq = c.cause.seq
	}
	for _, l := range c.listeners {
		l(ev)
	}
	return ev.Seq
}

// Annotate records a causal anchor, assigning it the next sequence
// number and stamping the ambient cause like emit does for events. It
// returns the assigned Seq, or 0 when no annotation listener is
// subscribed (annotations then cost nothing and consume no sequence
// numbers, keeping unjournaled hot paths untouched).
func (c *Cluster) Annotate(a Annotation) uint64 {
	if len(c.annListeners) == 0 {
		return 0
	}
	c.seq++
	a.Seq = c.seq
	if a.Cause == CauseNone && a.CauseSeq == 0 {
		a.Cause = c.cause.kind
		a.CauseSeq = c.cause.seq
	}
	if a.Time.IsZero() {
		a.Time = c.clock.Now()
	}
	for _, l := range c.annListeners {
		l(a)
	}
	return a.Seq
}

// CoreCapacity returns the cluster-wide logical core capacity scaled by
// the density factor.
func (c *Cluster) CoreCapacity() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += n.Capacity[MetricCores] * c.cfg.Density
	}
	return total
}

// ReservedCores returns the cluster-wide reserved cores of live services.
func (c *Cluster) ReservedCores() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += n.Load(MetricCores)
	}
	return total
}

// FreeCores returns the remaining reservable cores at the current density.
func (c *Cluster) FreeCores() float64 { return c.CoreCapacity() - c.ReservedCores() }

// DiskUsage returns the cluster-wide reported disk load in GB.
func (c *Cluster) DiskUsage() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += n.Load(MetricDiskGB)
	}
	return total
}

// DiskCapacity returns the cluster-wide logical disk capacity in GB.
func (c *Cluster) DiskCapacity() float64 {
	total := 0.0
	for _, n := range c.nodes {
		total += n.Capacity[MetricDiskGB]
	}
	return total
}

// Service returns the live or dropped service with the given name.
func (c *Cluster) Service(name string) (*Service, bool) {
	s, ok := c.services[name]
	return s, ok
}

// Services returns all services (live and dropped) sorted by name.
func (c *Cluster) Services() []*Service {
	out := make([]*Service, 0, len(c.services))
	for _, s := range c.services {
		out = append(out, s)
	}
	sortServicesByName(out)
	return out
}

// LiveServices returns a copy of the services that have not been
// dropped, sorted by name.
func (c *Cluster) LiveServices() []*Service {
	return append(make([]*Service, 0, len(c.live)), c.live...)
}

// LiveServiceCount returns how many services are live.
func (c *Cluster) LiveServiceCount() int { return len(c.live) }

// sortServicesByName is the canonical service ordering every sweep uses;
// slices.SortFunc avoids the reflection (and its allocation) sort.Slice
// pays per call.
func sortServicesByName(svcs []*Service) {
	slices.SortFunc(svcs, func(a, b *Service) int { return strings.Compare(a.Name, b.Name) })
}

// cmpServiceName orders the live index by name for binary search.
func cmpServiceName(s *Service, name string) int { return strings.Compare(s.Name, name) }

// EachLiveService calls fn for every live service in name order. It walks
// the cluster's live index, so it neither allocates nor sorts; periodic
// loops (load reporting, churn) should prefer it over LiveServices, whose
// copy they would immediately discard. fn must neither create nor drop a
// service: the sweep panics, naming the service, if the index changes
// under it. Nested sweeps are fine.
func (c *Cluster) EachLiveService(fn func(*Service)) {
	gen := c.liveGen
	for _, s := range c.live {
		fn(s)
		if c.liveGen != gen {
			panic("fabric: service " + c.liveChanged + " created or dropped during EachLiveService")
		}
	}
}

// addLive inserts a newly placed service into the live index and gives
// it a slot, reusing the most recently freed one. Neither step allocates
// once the index and free list have reached their working size.
func (c *Cluster) addLive(svc *Service) {
	i, _ := slices.BinarySearchFunc(c.live, svc.Name, cmpServiceName)
	c.live = slices.Insert(c.live, i, svc)
	if n := len(c.freeSlots); n > 0 {
		svc.slot = c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		c.bySlot[svc.slot] = svc
	} else {
		svc.slot = len(c.bySlot)
		c.bySlot = append(c.bySlot, svc)
	}
	c.liveGen++
	c.liveChanged = svc.Name
}

// removeLive takes a dropped service out of the live index and frees its
// slot.
func (c *Cluster) removeLive(svc *Service) {
	if i, ok := slices.BinarySearchFunc(c.live, svc.Name, cmpServiceName); ok {
		c.live = slices.Delete(c.live, i, i+1)
	}
	c.bySlot[svc.slot] = nil
	c.freeSlots = append(c.freeSlots, svc.slot)
	c.liveGen++
	c.liveChanged = svc.Name
}

// CreateService places a new service with replicaCount replicas, each
// reserving reservedCores against node logical core capacity (scaled by
// density). Replicas of one service are placed on distinct nodes. On
// success the service is live and an EventServiceCreated fires; if the
// cluster cannot satisfy the core reservation, ErrInsufficientCores is
// returned and nothing changes.
func (c *Cluster) CreateService(name string, replicaCount int, reservedCores float64, labels map[string]string) (*Service, error) {
	return c.CreateServiceWithLoads(name, replicaCount, reservedCores, labels, nil)
}

// CreateServiceWithLoads is CreateService with known initial dynamic
// loads per replica (e.g. the seeded disk usage of a bootstrapped
// database, §5.2). The PLB sees these loads when choosing nodes, so a
// database restored with a terabyte of data is placed where that terabyte
// fits. Admission is still gated on cores only — disk pressure is
// relieved post-hoc via failovers, exactly the behaviour the paper
// studies.
func (c *Cluster) CreateServiceWithLoads(name string, replicaCount int, reservedCores float64, labels map[string]string, loads map[MetricName]float64) (*Service, error) {
	if existing, ok := c.services[name]; ok && existing.Alive() {
		return nil, fmt.Errorf("%w: %s", ErrServiceExists, name)
	}
	if replicaCount > len(c.nodes) {
		return nil, fmt.Errorf("%w: %d replicas > %d nodes", ErrInsufficientCores, replicaCount, len(c.nodes))
	}
	svc := newService(name, replicaCount, reservedCores, labels, c.clock.Now())
	for _, r := range svc.Replicas {
		for m, v := range loads {
			if m != MetricCores && m.Valid() && v > 0 {
				r.Loads[m] = v
			}
		}
	}
	placement, err := c.plb.place(svc)
	if err != nil {
		return nil, err
	}
	for i, node := range placement {
		node.attach(svc.Replicas[i])
	}
	c.services[name] = svc
	c.addLive(svc)
	c.emit(Event{Kind: EventServiceCreated, Time: c.clock.Now(), Service: svc})
	return svc, nil
}

// DropService removes a service and frees its resources.
func (c *Cluster) DropService(name string) error {
	svc, ok := c.services[name]
	if !ok || !svc.Alive() {
		return fmt.Errorf("%w: %s", ErrNoSuchService, name)
	}
	for _, r := range svc.Replicas {
		if r.Node != nil {
			r.Node.detach(r)
		}
	}
	// A service dropped mid-outage still pays for the unavailability it
	// saw up to the drop.
	if !svc.quorumLostAt.IsZero() {
		c.closeQuorumWindow(svc, nil, c.clock.Now(), "dropped")
	}
	svc.Dropped = c.clock.Now()
	c.removeLive(svc)
	c.emit(Event{Kind: EventServiceDropped, Time: c.clock.Now(), Service: svc})
	return nil
}

// ReportLoad records replica r's current value for metric m, as reported
// through RgManager (§3.2). Reporting for a nil replica, a replica of a
// dropped service or one of another cluster is an error; the check is one
// compare against the slot table, with no lookup by name.
func (c *Cluster) ReportLoad(r *Replica, m MetricName, value float64) error {
	if r == nil {
		return fmt.Errorf("%w: nil replica", ErrNoSuchService)
	}
	if svc := r.service; svc == nil || svc.slot >= len(c.bySlot) || c.bySlot[svc.slot] != svc {
		return fmt.Errorf("%w: %s", ErrNoSuchService, r.ID.Service)
	}
	if m == MetricCores {
		return errors.New("fabric: core reservation is static and cannot be reported")
	}
	if !m.Valid() {
		return fmt.Errorf("fabric: unknown metric %d", m)
	}
	if value < 0 {
		return fmt.Errorf("fabric: negative load %f for %s", value, m)
	}
	// A lost report leaves the PLB acting on the node's last-known-good
	// loads; degraded mode bounds how long it will keep doing so (see
	// the staleness check in fixViolations).
	if c.injector != nil && c.injector.ReportLost(r.ID, m) {
		c.metrics.reportsLost.Inc()
		return nil
	}
	if r.Node != nil {
		n := r.Node
		// Capacity-crossing detection only runs for the journal: the
		// listener check keeps the unjournaled report path allocation-free
		// and branch-cheap.
		track := len(c.annListeners) > 0 && m.Enforced()
		wasOver := track && n.Load(m) > c.plb.capacity(n, m)
		n.applyLoadDelta(m, value-r.Loads[m])
		n.lastReport = c.clock.Now()
		if track {
			c.noteCapacityCrossing(n, m, wasOver)
		}
	}
	r.Loads[m] = value
	return nil
}

// noteCapacityCrossing records a "capacity-crossed" annotation when a
// load report pushes node n over its enforced capacity for metric m —
// the load-report end of the report → violation → failover causal chain
// — and clears the anchor when a report brings the node back under.
func (c *Cluster) noteCapacityCrossing(n *Node, m MetricName, wasOver bool) {
	limit := c.plb.capacity(n, m)
	isOver := n.Load(m) > limit
	if isOver == wasOver {
		return
	}
	if !isOver {
		n.overSince[m] = 0
		return
	}
	n.overSince[m] = c.Annotate(Annotation{
		Kind:   "capacity-crossed",
		Node:   n.ID,
		Metric: m,
		Value:  n.Load(m),
		Limit:  limit,
	})
}

// ForceMove relocates a replica to a named node with full failover
// bookkeeping — the equivalent of Service Fabric's administrative
// Move-Replica commands. The move is refused if the target already hosts
// a sibling replica.
func (c *Cluster) ForceMove(id ReplicaID, targetNode string) error {
	svc, ok := c.services[id.Service]
	if !ok || !svc.Alive() {
		return fmt.Errorf("%w: %s", ErrNoSuchService, id.Service)
	}
	if id.Index < 0 || id.Index >= len(svc.Replicas) {
		return fmt.Errorf("fabric: replica index %d out of range for %s", id.Index, id.Service)
	}
	r := svc.Replicas[id.Index]
	var target *Node
	for _, n := range c.nodes {
		if n.ID == targetNode {
			target = n
			break
		}
	}
	if target == nil {
		return fmt.Errorf("fabric: no such node %q", targetNode)
	}
	if target == r.Node {
		return fmt.Errorf("fabric: replica %s already on %s", id, targetNode)
	}
	for _, other := range r.service.Replicas {
		if other != r && other.Node == target {
			return fmt.Errorf("fabric: node %s already hosts a replica of %s", targetNode, id.Service)
		}
	}
	if c.plb.fdConflict(target, r.service, r) {
		return fmt.Errorf("fabric: fault domain %d of node %s already hosts a replica of %s",
			target.FaultDomain, targetNode, id.Service)
	}
	prev := c.BeginCause(CauseForced, c.Annotate(Annotation{
		Kind: "force-move", Replica: id, Node: targetNode,
	}))
	c.moveReplica(r, target, MetricDiskGB, EventFailover)
	c.EndCause(prev)
	return nil
}

// moveCause refines an EventKind with why the movement happened, for
// downtime accounting: planned moves (balancing, maintenance drains) are
// operator-chosen and excluded from SLA penalties; unplanned moves
// (violations, resizes, ForceMove) are forced; crash evacuations are
// unplanned and additionally charge the failure-detection delay.
type moveCause int

const (
	moveCausePlanned moveCause = iota
	moveCauseUnplanned
	moveCauseCrash
)

// moveReplica relocates r from its current node to target, performing the
// failover bookkeeping: role swap, downtime, build time, counters, and
// event emission. kind selects failover vs balancing accounting; the
// cause is inferred from it (crash evacuations call moveReplicaCause
// directly).
func (c *Cluster) moveReplica(r *Replica, target *Node, metric MetricName, kind EventKind) {
	cause := moveCausePlanned
	if kind == EventFailover {
		cause = moveCauseUnplanned
	}
	c.moveReplicaCause(r, target, metric, kind, cause)
}

func (c *Cluster) moveReplicaCause(r *Replica, target *Node, metric MetricName, kind EventKind, cause moveCause) {
	svc := r.service
	from := r.Node
	fromID := ""
	if from != nil {
		fromID = from.ID
		from.detach(r)
	}

	movedDisk := r.Loads[MetricDiskGB]
	var downtime time.Duration
	if r.Role == Primary {
		if cause == moveCauseCrash {
			// The node died under the primary: customers wait through
			// failure detection before promotion or reattach even starts.
			downtime += c.cfg.CrashDetectionDelay
		}
		if svc.ReplicaCount > 1 {
			// Promote a placed secondary; the moved replica rejoins as a
			// secondary ("a secondary replica is becoming the primary",
			// §3.1).
			for _, other := range svc.Replicas {
				if other != r && other.Role == Secondary && other.Node != nil {
					other.Role = Primary
					r.Role = Secondary
					break
				}
			}
			downtime += c.cfg.PrimarySwapDowntime
		} else {
			// Single-replica remote-store database: detach/reattach the
			// remote storage on the new node.
			downtime += c.cfg.SingleReplicaMoveDowntime
		}
	}

	// Local-store replicas physically copy their data to the new node;
	// remote-store replicas only rebuild tempDB state, which is
	// effectively instant at this granularity.
	var build time.Duration
	if svc.ReplicaCount > 1 && c.cfg.BuildRateGBPerSec > 0 {
		build = time.Duration(movedDisk / c.cfg.BuildRateGBPerSec * float64(time.Second))
	}
	// Under fault injection the copy may fail and retry with backoff,
	// stretching the build; without an injector this returns build as-is.
	build = c.buildWithRetries(r, target, build)

	// Dynamic loads reset on the new node: the fresh replica reports its
	// own state at the next interval (persisted metrics are restored from
	// the Naming Service by RgManager, non-persisted ones restart, §3.3.2).
	r.Loads[MetricDiskGB] = 0
	r.Loads[MetricMemoryGB] = 0
	r.Incarnation++
	target.attach(r)
	now := c.clock.Now()
	if build > 0 {
		r.buildDoneAt = now.Add(build)
	} else {
		r.buildDoneAt = time.Time{}
	}
	// A crash evacuation rebuilds from surviving peers or backup — the
	// copy that existed on the dead node is gone. A planned move's source
	// copy keeps serving conceptually (make-before-break), so only crash
	// rebuilds mark the replica as restoring; ServingStateAt uses this to
	// tell a routine copy from a service with no intact data left.
	r.restoring = cause == moveCauseCrash && build > 0

	svc.FailoverCount++
	svc.FailedOverCores += svc.ReservedCoresPerReplica
	// The move changed which nodes host this replica set; the next quorum
	// sweep must re-evaluate it even if no replica sits on the node whose
	// transition triggers that sweep.
	c.markQuorumDirty(svc)
	spanName := "fabric.failover"
	if kind == EventFailover {
		// Unplanned: the SLA model prices this downtime (§5.1).
		svc.UnplannedFailovers++
		svc.Downtime += downtime
		c.failoverEvents++
		c.metrics.failovers.Inc()
		c.metrics.unplannedFailovers.Inc()
	} else {
		// Planned: reported, never priced — real SLAs exclude scheduled
		// maintenance windows.
		svc.PlannedMoves++
		svc.PlannedDowntime += downtime
		c.balanceMoves++
		c.metrics.balanceMoves.Inc()
		c.metrics.plannedMoves.Inc()
		spanName = "fabric.balance_move"
	}
	c.metrics.movedDiskGB.Observe(movedDisk)
	c.metrics.buildSeconds.Observe(build.Seconds())
	c.metrics.downtimeSeconds.Observe(downtime.Seconds())

	// The move decision is instantaneous in sim time; its customer-visible
	// downtime window and the replica rebuild are the regions worth seeing
	// on the simulated timeline.
	c.obs.Emit(spanName, now, downtime,
		obs.Str("replica", r.ID.String()),
		obs.Str("metric", metric.String()),
		obs.Str("from", fromID),
		obs.Str("to", target.ID),
		obs.Float("moved_disk_gb", movedDisk),
		obs.DurMS("downtime_ms", downtime),
	)
	if build > 0 {
		c.obs.Emit("fabric.replica_build", now, build,
			obs.Str("replica", r.ID.String()),
			obs.Str("node", target.ID),
			obs.Float("disk_gb", movedDisk),
		)
	}

	evSeq := c.emit(Event{
		Kind:          kind,
		Time:          c.clock.Now(),
		Service:       svc,
		Replica:       r.ID,
		From:          fromID,
		To:            target.ID,
		Metric:        metric,
		MovedCores:    svc.ReservedCoresPerReplica,
		MovedDiskGB:   movedDisk,
		BuildDuration: build,
		Downtime:      downtime,
	})
	if build > 0 && len(c.annListeners) > 0 {
		// The data copy the move started, and its completion, as causal
		// anchors chained off the movement event — the decision → build →
		// completion tail of the journal's failover chains.
		bseq := c.Annotate(Annotation{
			Kind:     "replica-build",
			CauseSeq: evSeq,
			Replica:  r.ID,
			Node:     target.ID,
			Value:    movedDisk,
		})
		c.Annotate(Annotation{
			Kind:     "build-complete",
			Time:     now.Add(build),
			CauseSeq: bseq,
			Replica:  r.ID,
			Node:     target.ID,
		})
	}
}
