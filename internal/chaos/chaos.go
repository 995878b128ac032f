// Package chaos is a deterministic, seeded fault-injection engine for
// the Toto simulation. It schedules faults against the simulation clock
// — node crashes and restarts, transient flaps, correlated fault-domain
// outages, replica-build failures and slowdowns, lost load reports, and
// Naming Service write errors — from a JSON scenario spec, and implements
// fabric.FaultInjector so the fabric's hardened paths (bounded retries,
// degraded-mode PLB) consult it at decision time.
//
// Determinism is the whole point: every random choice the engine makes
// draws from streams split off one seed by fixed labels, one stream per
// fault channel, so a build-failure draw can never perturb which node a
// crash picks. Given the same spec, seed, and workload, a chaos run is
// bit-for-bit reproducible — the property the chaos golden-hash test
// locks down.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs"
	"toto/internal/rng"
	"toto/internal/simclock"
)

// Fault kinds accepted in a Spec.
const (
	KindNodeCrash     = "node-crash"     // one node fails abruptly, restarts after DownMinutes (0 = never)
	KindNodeFlap      = "node-flap"      // one node crash/restart cycles Count times
	KindDomainOutage  = "domain-outage"  // every node with index % Domains == Domain crashes together
	KindBuildFailures = "build-failures" // replica build attempts fail with probability Rate for DurationHours
	KindBuildSlowdown = "build-slowdown" // replica builds take Factor times longer for DurationHours
	KindReportLoss    = "report-loss"    // load reports are dropped with probability Rate for DurationHours
	KindNamingErrors  = "naming-errors"  // naming write attempts fail with probability Rate for DurationHours
	KindFailSlow      = "fail-slow"      // gray failure: nodes serve at up to Factor× latency through an onset/plateau/recovery window
)

// Spec is the JSON-configurable fault schedule. Times are relative to
// the engine's start instant (the measured window in a scenario run).
type Spec struct {
	// Seed drives every random choice the engine makes. Two runs of the
	// same spec, seed, and workload inject identical faults.
	Seed uint64 `json:"seed"`
	// DisableDegradedMode leaves the PLB in its normal posture instead
	// of enabling storm throttling, quarantine, and staleness checks.
	DisableDegradedMode bool `json:"disableDegradedMode,omitempty"`
	// DisableInvariantChecks skips attaching the continuous invariant
	// checker (it validates the full cluster after every event).
	DisableInvariantChecks bool `json:"disableInvariantChecks,omitempty"`
	// Faults is the schedule.
	Faults []Fault `json:"faults"`
}

// Fault is one scheduled fault. Which fields apply depends on Kind.
type Fault struct {
	Kind string `json:"kind"`
	// AtHours is when the fault fires, in hours after engine start.
	AtHours float64 `json:"atHours"`
	// DurationHours is the active window for rate-based faults.
	DurationHours float64 `json:"durationHours,omitempty"`
	// DownMinutes is how long a crashed node (or domain) stays down;
	// 0 means it never restarts.
	DownMinutes float64 `json:"downMinutes,omitempty"`
	// UpMinutes is the recovery gap between flap cycles.
	UpMinutes float64 `json:"upMinutes,omitempty"`
	// Count is the number of flap cycles.
	Count int `json:"count,omitempty"`
	// Node names the target node; empty picks a random up node.
	Node string `json:"node,omitempty"`
	// Domain and Domains define a fault domain for domain-outage faults.
	// With Domains >= 2 the legacy index-modulo grouping applies: nodes
	// whose index modulo Domains equals Domain fail together. With
	// Domains omitted (0) the fault targets the cluster's real topology
	// instead: every node whose FaultDomain coordinate equals Domain
	// crashes together, which requires a topology-enabled cluster.
	Domain  int `json:"domain,omitempty"`
	Domains int `json:"domains,omitempty"`
	// Rate is the per-operation failure probability in (0, 1].
	Rate float64 `json:"rate,omitempty"`
	// Factor is the build-slowdown (or fail-slow service-latency)
	// multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`
	// OnsetHours is a fail-slow fault's ramp-up: the multiplier climbs
	// linearly from 1 to Factor over this window (0 = instant onset).
	OnsetHours float64 `json:"onsetHours,omitempty"`
	// RecoveryHours is the symmetric ramp-down after the plateau
	// (0 = instant recovery).
	RecoveryHours float64 `json:"recoveryHours,omitempty"`
	// CorrelateDomain makes a fail-slow fault hit a whole fault domain at
	// once — one seed node is picked (Node or random) and every up node
	// sharing its FaultDomain slows together, the gray-failure analogue of
	// a domain outage. Requires a topology-enabled cluster.
	CorrelateDomain bool `json:"correlateDomain,omitempty"`
}

// ParseSpec decodes and validates a JSON spec, rejecting unknown fields
// so a typoed fault knob fails loudly instead of silently injecting
// nothing.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("chaos: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks every fault for the fields its kind requires. Field
// checks fall in two tiers: a generic pass rejecting any negative (or
// otherwise out-of-domain) value by its JSON field name — so a bad knob
// fails loudly even on a kind that would silently ignore it — followed
// by per-kind requirements.
func (s *Spec) Validate() error {
	for i, f := range s.Faults {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("chaos: fault %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
		}
		switch {
		case f.AtHours < 0:
			return fail("negative atHours %v", f.AtHours)
		case f.DurationHours < 0:
			return fail("negative durationHours %v", f.DurationHours)
		case f.DownMinutes < 0:
			return fail("negative downMinutes %v", f.DownMinutes)
		case f.UpMinutes < 0:
			return fail("negative upMinutes %v", f.UpMinutes)
		case f.Count < 0:
			return fail("negative count %d", f.Count)
		case f.Domain < 0:
			return fail("negative domain %d", f.Domain)
		case f.Domains < 0:
			return fail("negative domains %d", f.Domains)
		case f.Rate < 0:
			return fail("negative rate %v", f.Rate)
		case f.Factor < 0:
			return fail("negative factor %v", f.Factor)
		case f.OnsetHours < 0:
			return fail("negative onsetHours %v", f.OnsetHours)
		case f.RecoveryHours < 0:
			return fail("negative recoveryHours %v", f.RecoveryHours)
		}
		switch f.Kind {
		case KindNodeCrash:
			// Generic pass covers the fields; DownMinutes 0 = never restart.
		case KindNodeFlap:
			if f.Count < 1 {
				return fail("flap needs count >= 1")
			}
			if f.DownMinutes <= 0 || f.UpMinutes <= 0 {
				return fail("flap needs positive downMinutes and upMinutes")
			}
		case KindDomainOutage:
			// Domains == 0 selects topology mode (the node's FaultDomain
			// coordinate); whether the cluster actually has a topology is
			// checked by NewEngine, which can see the cluster.
			if f.Domains != 0 && f.Domains < 2 {
				return fail("domain outage needs domains >= 2 (or omitted for topology mode)")
			}
			if f.Domains != 0 && f.Domain >= f.Domains {
				return fail("domain %d out of range [0, %d)", f.Domain, f.Domains)
			}
		case KindBuildFailures, KindReportLoss, KindNamingErrors:
			if f.Rate <= 0 || f.Rate > 1 {
				return fail("rate %v outside (0, 1]", f.Rate)
			}
			if f.DurationHours <= 0 {
				return fail("rate fault needs positive durationHours")
			}
		case KindBuildSlowdown:
			if f.Factor <= 1 {
				return fail("slowdown factor %v must exceed 1", f.Factor)
			}
			if f.DurationHours <= 0 {
				return fail("slowdown needs positive durationHours")
			}
		case KindFailSlow:
			if f.Factor <= 1 || f.Factor > 100 {
				return fail("fail-slow factor %v outside (1, 100]", f.Factor)
			}
			if f.DurationHours <= 0 {
				return fail("fail-slow needs positive durationHours (the plateau)")
			}
			if f.CorrelateDomain && f.Count > 1 {
				return fail("correlateDomain picks the whole fault domain; count %d conflicts", f.Count)
			}
		default:
			return fail("unknown fault kind")
		}
	}
	return nil
}

// Stats summarizes what a schedule actually injected, plus the
// continuous invariant checker's verdict.
type Stats struct {
	FaultsScheduled       int
	Crashes               int
	Restarts              int
	CrashesSkipped        int // guarded: too few up nodes to crash another
	DomainOutages         int
	SlowNodesInjected     int // nodes placed under a fail-slow latency window
	BuildFailuresInjected int
	ReportsLostInjected   int
	NamingErrorsInjected  int
	InvariantChecks       int
	InvariantViolations   []string
}

// Engine schedules a Spec's faults on the simulation clock and answers
// the fabric's fault-injection queries. It must only be used from the
// simulation goroutine.
type Engine struct {
	clock   *simclock.Clock
	cluster *fabric.Cluster
	spec    Spec
	o       *obs.Obs

	// One independent stream per fault channel: the schedule's node
	// picks, build failures, report losses, naming errors, and fail-slow
	// target picks never contend for the same randomness.
	scheduleRnd *rng.Source
	buildRnd    *rng.Source
	reportRnd   *rng.Source
	namingRnd   *rng.Source
	slowRnd     *rng.Source

	// Active rate windows (0 / 1 when inactive).
	buildFailRate   float64
	buildSlowFactor float64
	reportLossRate  float64
	namingFailRate  float64

	// slowNodes maps a node ID to its active fail-slow latency window;
	// nil/empty whenever no fail-slow fault is live, so SlowFactor is a
	// single length check on the unconfigured path.
	slowNodes map[string]*slowWindow

	checker *fabric.InvariantChecker
	stats   Stats
	started bool
}

// NewEngine builds an engine for the given cluster. The spec is
// validated; an invalid spec returns an error rather than a partially
// scheduled run.
func NewEngine(clock *simclock.Clock, cluster *fabric.Cluster, spec *Spec, o *obs.Obs) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Topology-mode domain outages (and domain-correlated fail-slow
	// faults) need the cluster's real coordinates.
	for i, f := range spec.Faults {
		if f.Kind == KindFailSlow && f.CorrelateDomain && !cluster.TopologyEnabled() {
			return nil, fmt.Errorf("chaos: fault %d (%s): correlateDomain requires a cluster with configured fault domains", i, f.Kind)
		}
		if f.Kind != KindDomainOutage || f.Domains != 0 {
			continue
		}
		if !cluster.TopologyEnabled() {
			return nil, fmt.Errorf("chaos: fault %d (%s): topology mode (domains omitted) requires a cluster with configured fault domains", i, f.Kind)
		}
		if f.Domain >= cluster.FaultDomainCount() {
			return nil, fmt.Errorf("chaos: fault %d (%s): domain %d out of range [0, %d)",
				i, f.Kind, f.Domain, cluster.FaultDomainCount())
		}
	}
	root := rng.New(spec.Seed)
	return &Engine{
		clock:       clock,
		cluster:     cluster,
		spec:        *spec,
		o:           o,
		scheduleRnd: root.Split("schedule"),
		buildRnd:    root.Split("build"),
		reportRnd:   root.Split("report"),
		namingRnd:   root.Split("naming"),
		slowRnd:     root.Split("failslow"),
	}, nil
}

// Start installs the engine as the cluster's fault injector, switches
// the PLB into degraded mode, attaches the continuous invariant checker,
// and schedules every fault relative to from (which must not precede the
// clock's current time).
func (e *Engine) Start(from time.Time) {
	if e.started {
		return
	}
	e.started = true
	e.cluster.SetFaultInjector(e)
	if !e.spec.DisableDegradedMode {
		e.cluster.EnableDegradedMode()
	}
	if !e.spec.DisableInvariantChecks {
		e.checker = fabric.NewInvariantChecker(e.cluster)
	}
	for i := range e.spec.Faults {
		e.scheduleFault(from, e.spec.Faults[i])
		e.stats.FaultsScheduled++
	}
	e.o.Instant("chaos.start",
		obs.Int("faults", len(e.spec.Faults)),
		obs.I64("seed", int64(e.spec.Seed)),
	)
}

// Stop uninstalls the injector, closes every rate window, and leaves
// degraded mode. Scheduled-but-unfired faults still fire; they will find
// the rates zeroed and inject nothing through the injector paths, but
// crashes and restarts still apply (the schedule is part of the run).
func (e *Engine) Stop() {
	e.cluster.SetFaultInjector(nil)
	e.cluster.DisableDegradedMode()
	e.buildFailRate, e.buildSlowFactor, e.reportLossRate, e.namingFailRate = 0, 0, 0, 0
	e.slowNodes = nil
}

// Stats returns what the schedule injected so far, with the invariant
// checker's results folded in.
func (e *Engine) Stats() Stats {
	s := e.stats
	if e.checker != nil {
		s.InvariantChecks = e.checker.Checks()
		s.InvariantViolations = e.checker.Violations()
	}
	return s
}

func hours(h float64) time.Duration { return time.Duration(h * float64(time.Hour)) }
func minutes(m float64) time.Duration {
	return time.Duration(m * float64(time.Minute))
}

func (e *Engine) scheduleFault(from time.Time, f Fault) {
	at := from.Add(hours(f.AtHours))
	switch f.Kind {
	case KindNodeCrash:
		e.clock.At(at, func(now time.Time) {
			e.crashOne(now, f.Node, minutes(f.DownMinutes))
		})
	case KindNodeFlap:
		e.clock.At(at, func(now time.Time) {
			e.flap(now, f.Node, f.Count, minutes(f.DownMinutes), minutes(f.UpMinutes))
		})
	case KindDomainOutage:
		e.clock.At(at, func(now time.Time) {
			e.domainOutage(now, f.Domain, f.Domains, minutes(f.DownMinutes))
		})
	case KindBuildFailures:
		e.rateWindow(at, hours(f.DurationHours), f.Kind, func(active bool) {
			if active {
				e.buildFailRate = f.Rate
			} else {
				e.buildFailRate = 0
			}
		})
	case KindBuildSlowdown:
		e.rateWindow(at, hours(f.DurationHours), f.Kind, func(active bool) {
			if active {
				e.buildSlowFactor = f.Factor
			} else {
				e.buildSlowFactor = 0
			}
		})
	case KindReportLoss:
		e.rateWindow(at, hours(f.DurationHours), f.Kind, func(active bool) {
			if active {
				e.reportLossRate = f.Rate
			} else {
				e.reportLossRate = 0
			}
		})
	case KindNamingErrors:
		e.rateWindow(at, hours(f.DurationHours), f.Kind, func(active bool) {
			if active {
				e.namingFailRate = f.Rate
			} else {
				e.namingFailRate = 0
			}
		})
	case KindFailSlow:
		e.clock.At(at, func(now time.Time) {
			e.failSlow(now, f)
		})
	}
}

// rateWindow toggles a rate-based fault on at start and off at
// start+duration. Overlapping windows of the same kind are last-write-
// wins; schedule them disjoint for additive effects.
func (e *Engine) rateWindow(start time.Time, duration time.Duration, kind string, set func(active bool)) {
	e.clock.At(start, func(time.Time) {
		set(true)
		e.o.Instant("chaos.window_open", obs.Str("kind", kind))
	})
	e.clock.At(start.Add(duration), func(time.Time) {
		set(false)
		e.o.Instant("chaos.window_close", obs.Str("kind", kind))
	})
}

// pickUpNode returns the named node if given, else a seeded-random up,
// non-quarantined node; nil when none qualifies.
func (e *Engine) pickUpNode(now time.Time, named string) *fabric.Node {
	nodes := e.cluster.Nodes()
	if named != "" {
		for _, n := range nodes {
			if n.ID == named {
				return n
			}
		}
		return nil
	}
	up := make([]*fabric.Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Up() {
			up = append(up, n)
		}
	}
	if len(up) == 0 {
		return nil
	}
	return up[e.scheduleRnd.Intn(len(up))]
}

// inject records a chaos-injection annotation in the cluster's causal
// journal and establishes it as the ambient cause, so every event the
// fault produces (crash, evacuation failovers, restart) chains back to
// the injection. The returned restore function must be called when the
// injected operation completes.
func (e *Engine) inject(kind, node string) (seq uint64, restore func()) {
	seq = e.cluster.Annotate(fabric.Annotation{
		Kind:   "chaos-injection",
		Node:   node,
		Detail: kind,
	})
	prev := e.cluster.BeginCause(fabric.CauseChaos, seq)
	return seq, func() { e.cluster.EndCause(prev) }
}

// restartAs brackets a scheduled restart with the injection that caused
// the outage, so recovery events chain to the same root.
func (e *Engine) restartAs(seq uint64, id string) bool {
	prev := e.cluster.BeginCause(fabric.CauseChaos, seq)
	ok := e.cluster.RestartNode(id) == nil
	e.cluster.EndCause(prev)
	return ok
}

// crashOne crashes one node and schedules its restart. The crash is
// skipped (counted, logged) when it would leave fewer than two up nodes
// — a schedule that kills the whole cluster measures nothing.
func (e *Engine) crashOne(now time.Time, named string, down time.Duration) string {
	n := e.pickUpNode(now, named)
	if n == nil || !n.Up() || e.cluster.UpNodes() <= 2 {
		e.stats.CrashesSkipped++
		e.o.Instant("chaos.crash_skipped", obs.Str("node", named))
		return ""
	}
	seq, restore := e.inject(KindNodeCrash, n.ID)
	_, _, err := e.cluster.CrashNode(n.ID)
	restore()
	if err != nil {
		e.stats.CrashesSkipped++
		return ""
	}
	e.stats.Crashes++
	e.o.Instant("chaos.node_crash", obs.Str("node", n.ID), obs.DurMS("down_ms", down))
	if down > 0 {
		id := n.ID
		e.clock.At(now.Add(down), func(time.Time) {
			if e.restartAs(seq, id) {
				e.stats.Restarts++
			}
		})
	}
	return n.ID
}

// flap crash/restart cycles one node `count` times. The node is chosen
// once (first cycle) so the same machine flaps throughout — that is what
// quarantine exists to contain.
func (e *Engine) flap(now time.Time, named string, count int, down, up time.Duration) {
	n := e.pickUpNode(now, named)
	if n == nil {
		e.stats.CrashesSkipped++
		return
	}
	id := n.ID
	var cycle func(now time.Time, remaining int)
	cycle = func(now time.Time, remaining int) {
		if remaining <= 0 {
			return
		}
		if !n.Up() || e.cluster.UpNodes() <= 2 {
			e.stats.CrashesSkipped++
			return
		}
		seq, restore := e.inject(KindNodeFlap, id)
		_, _, err := e.cluster.CrashNode(id)
		restore()
		if err != nil {
			e.stats.CrashesSkipped++
			return
		}
		e.stats.Crashes++
		e.o.Instant("chaos.node_flap", obs.Str("node", id), obs.Int("remaining", remaining-1))
		e.clock.At(now.Add(down), func(restartAt time.Time) {
			if e.restartAs(seq, id) {
				e.stats.Restarts++
			}
			if remaining > 1 {
				e.clock.At(restartAt.Add(up), func(next time.Time) {
					cycle(next, remaining-1)
				})
			}
		})
	}
	cycle(now, count)
}

// domainOutage crashes every node in the fault domain together (a rack
// or power domain failing), restarting them all after down. Nodes
// already down are left alone. The guard never lets the outage reduce
// the cluster below two up nodes. With domains >= 2 membership is the
// legacy index-modulo grouping (kept byte-identical — the golden chaos
// event stream schedules one); with domains == 0 it is the node's real
// FaultDomain coordinate.
func (e *Engine) domainOutage(now time.Time, domain, domains int, down time.Duration) {
	e.stats.DomainOutages++
	member := func(i int, n *fabric.Node) bool {
		if domains > 0 {
			return i%domains == domain
		}
		return n.FaultDomain == domain
	}
	detail := fmt.Sprintf("domain-%d/%d", domain, domains)
	if domains == 0 {
		detail = fmt.Sprintf("fault-domain-%d", domain)
	}
	// One injection annotation covers the whole domain: every node crash
	// in the outage (and every restart) chains to the same root.
	seq, restore := e.inject(KindDomainOutage, detail)
	var crashed []string
	for i, n := range e.cluster.Nodes() {
		if !member(i, n) || !n.Up() {
			continue
		}
		if e.cluster.UpNodes() <= 2 {
			e.stats.CrashesSkipped++
			continue
		}
		if _, _, err := e.cluster.CrashNode(n.ID); err == nil {
			e.stats.Crashes++
			crashed = append(crashed, n.ID)
		}
	}
	restore()
	e.o.Instant("chaos.domain_outage",
		obs.Int("domain", domain),
		obs.Int("nodes", len(crashed)),
		obs.DurMS("down_ms", down),
	)
	if down <= 0 {
		return
	}
	for _, id := range crashed {
		id := id
		e.clock.At(now.Add(down), func(time.Time) {
			if e.restartAs(seq, id) {
				e.stats.Restarts++
			}
		})
	}
}

// slowWindow is one node's active fail-slow latency profile: a linear
// onset ramp from 1 to factor, a plateau, and a linear recovery ramp
// back to 1. Everything is a pure function of sim time, so SlowFactor
// consumes no randomness and two runs agree bit for bit.
type slowWindow struct {
	start            time.Time
	onset, hold, rec time.Duration
	factor           float64
}

// factorAt evaluates the piecewise-linear multiplier at now.
func (w *slowWindow) factorAt(now time.Time) float64 {
	d := now.Sub(w.start)
	if d < 0 {
		return 1
	}
	if d < w.onset {
		return 1 + (w.factor-1)*float64(d)/float64(w.onset)
	}
	d -= w.onset
	if d < w.hold {
		return w.factor
	}
	d -= w.hold
	if d < w.rec {
		return w.factor - (w.factor-1)*float64(d)/float64(w.rec)
	}
	return 1
}

// SlowFactor reports the service-latency multiplier the fail-slow layer
// imposes on node at now: 1 whenever the node is healthy or no fail-slow
// fault is live. The traffic plane multiplies its modeled per-node
// service time by this — the injection side of the gray-failure loop the
// fabric's slow-node detector closes.
func (e *Engine) SlowFactor(node string, now time.Time) float64 {
	if len(e.slowNodes) == 0 {
		return 1
	}
	w := e.slowNodes[node]
	if w == nil {
		return 1
	}
	return w.factorAt(now)
}

// slowTargets resolves a fail-slow fault's victim set. Named node → that
// node; correlateDomain → every up node sharing the seed node's fault
// domain; otherwise Count (default 1) distinct random up nodes. All
// random picks draw from the dedicated failslow stream so scheduling a
// fail-slow fault never perturbs which node a crash picks.
func (e *Engine) slowTargets(f Fault) []*fabric.Node {
	nodes := e.cluster.Nodes()
	up := make([]*fabric.Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Up() {
			up = append(up, n)
		}
	}
	seed := func() *fabric.Node {
		if f.Node != "" {
			for _, n := range up {
				if n.ID == f.Node {
					return n
				}
			}
			return nil
		}
		if len(up) == 0 {
			return nil
		}
		return up[e.slowRnd.Intn(len(up))]
	}
	if f.CorrelateDomain {
		s := seed()
		if s == nil {
			return nil
		}
		var out []*fabric.Node
		for _, n := range up {
			if n.FaultDomain == s.FaultDomain {
				out = append(out, n)
			}
		}
		return out
	}
	if f.Node != "" {
		s := seed()
		if s == nil {
			return nil
		}
		return []*fabric.Node{s}
	}
	count := f.Count
	if count < 1 {
		count = 1
	}
	if count > len(up) {
		count = len(up)
	}
	out := make([]*fabric.Node, 0, count)
	for i := 0; i < count; i++ {
		j := e.slowRnd.Intn(len(up))
		out = append(out, up[j])
		up[j] = up[len(up)-1]
		up = up[:len(up)-1]
	}
	return out
}

// failSlow opens a fail-slow window over the fault's victim set. Like a
// domain outage, one chaos-injection annotation covers every slowed node
// so detection, quarantine, and hedge bursts downstream all chain to the
// same root. The window tears itself down when the recovery ramp ends.
func (e *Engine) failSlow(now time.Time, f Fault) {
	targets := e.slowTargets(f)
	if len(targets) == 0 {
		e.o.Instant("chaos.failslow_skipped", obs.Str("node", f.Node))
		return
	}
	detail := targets[0].ID
	if f.CorrelateDomain {
		detail = fmt.Sprintf("fault-domain-%d", targets[0].FaultDomain)
	} else if len(targets) > 1 {
		detail = fmt.Sprintf("%d-nodes", len(targets))
	}
	seq, restore := e.inject(KindFailSlow, detail)
	restore()
	onset, hold, rec := hours(f.OnsetHours), hours(f.DurationHours), hours(f.RecoveryHours)
	if e.slowNodes == nil {
		e.slowNodes = make(map[string]*slowWindow)
	}
	ids := make([]string, len(targets))
	for i, n := range targets {
		e.slowNodes[n.ID] = &slowWindow{start: now, onset: onset, hold: hold, rec: rec, factor: f.Factor}
		e.cluster.NoteSlowNodeAnchor(n, seq)
		e.stats.SlowNodesInjected++
		ids[i] = n.ID
	}
	e.o.Instant("chaos.fail_slow",
		obs.Int("nodes", len(targets)),
		obs.Float("factor", f.Factor),
		obs.Str("detail", detail),
	)
	e.clock.At(now.Add(onset+hold+rec), func(time.Time) {
		for _, id := range ids {
			delete(e.slowNodes, id)
		}
		e.o.Instant("chaos.fail_slow_over", obs.Int("nodes", len(ids)))
	})
}

// --- fabric.FaultInjector ---

// BuildAttemptFails fails replica builds at the active window's rate.
func (e *Engine) BuildAttemptFails(id fabric.ReplicaID, node string, attempt int) bool {
	if e.buildFailRate <= 0 {
		return false
	}
	if e.buildRnd.Bernoulli(e.buildFailRate) {
		e.stats.BuildFailuresInjected++
		return true
	}
	return false
}

// BuildSlowdownFactor reports the active slowdown multiplier.
func (e *Engine) BuildSlowdownFactor() float64 { return e.buildSlowFactor }

// ReportLost drops load reports at the active window's rate.
func (e *Engine) ReportLost(id fabric.ReplicaID, m fabric.MetricName) bool {
	if e.reportLossRate <= 0 {
		return false
	}
	if e.reportRnd.Bernoulli(e.reportLossRate) {
		e.stats.ReportsLostInjected++
		return true
	}
	return false
}

// NamingWriteFails fails naming writes at the active window's rate.
func (e *Engine) NamingWriteFails(key string, attempt int) bool {
	if e.namingFailRate <= 0 {
		return false
	}
	if e.namingRnd.Bernoulli(e.namingFailRate) {
		e.stats.NamingErrorsInjected++
		return true
	}
	return false
}
