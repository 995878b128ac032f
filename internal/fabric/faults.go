package fabric

import (
	"fmt"
	"sort"
	"time"

	"toto/internal/obs"
	"toto/internal/rng"
)

// This file is the fabric's fault-hardening layer. A FaultInjector (wired
// by internal/chaos) decides which replica builds fail, which load
// reports are lost, and which Naming Service writes error out; the
// fabric responds with bounded retries (exponential backoff + seeded
// jitter, all in sim time) and, under degraded mode, a PLB that
// throttles failover storms, quarantines flapping nodes, and distrusts
// stale load reports. Crashed nodes drain through the same sorted-order
// evacuation path as maintenance, so crash handling inherits the
// determinism the maintenance path already guarantees.
//
// Every hook is inert by default: with no injector and degraded mode
// off, none of this code consumes randomness or changes a decision, so
// the no-chaos golden event-stream hash is provably unaffected.

// EventNodeCrashed and EventNodeRestarted extend the event kinds for
// abrupt (unplanned) node failures, alongside the maintenance kinds.
const (
	EventNodeCrashed EventKind = iota + 102
	EventNodeRestarted
)

// FaultInjector decides, deterministically for a given seed, which
// fabric operations fail. The fabric consults it at well-defined points;
// a nil injector means no faults and zero overhead. Implementations must
// be deterministic functions of their own seeded state — the fabric
// calls them in simulation event order.
type FaultInjector interface {
	// BuildAttemptFails reports whether the attempt-th try (1-based) of
	// replica id's data copy onto node fails.
	BuildAttemptFails(id ReplicaID, node string, attempt int) bool
	// BuildSlowdownFactor scales replica-build durations; values <= 1
	// mean no slowdown.
	BuildSlowdownFactor() float64
	// ReportLost reports whether replica id's load report for metric m is
	// dropped before reaching the PLB.
	ReportLost(id ReplicaID, m MetricName) bool
	// NamingWriteFails reports whether the attempt-th try (1-based) of a
	// Naming Service write under key fails.
	NamingWriteFails(key string, attempt int) bool
}

// SetFaultInjector installs (or, with nil, removes) the fault injector
// consulted by replica builds, load reports, and naming writes. The
// backoff jitter stream is re-derived from the configured retry seed so
// installing an injector never perturbs the PLB's annealing randomness.
func (c *Cluster) SetFaultInjector(fi FaultInjector) {
	if fi != nil && c.retryRnd == nil {
		c.retryRnd = rng.New(c.cfg.PLBSeed).Split("retry-jitter")
	}
	c.injector = fi
	pol := c.retryPolicy()
	c.naming.setInjector(fi, pol, func(attempt int) time.Duration {
		d := pol.backoff(attempt, c.retryRnd)
		c.metrics.backoffSeconds.Observe(d.Seconds())
		return d
	})
}

// EnableDegradedMode switches the PLB into its defensive posture:
// failover moves per scan are capped, restarting crashed nodes are
// quarantined from placement targets, and nodes with stale load reports
// are not failed over on last-known-good data. The chaos engine enables
// it for the duration of a fault schedule.
func (c *Cluster) EnableDegradedMode() {
	c.degraded = true
	c.metrics.degradedMode.Set(1)
}

// Quarantined reports whether the node is excluded from placement and
// failover targets at now (set when a crashed node restarts while the
// PLB is degraded; see RestartNode).
func (n *Node) Quarantined(now time.Time) bool { return n.quarantinedUntil.After(now) }

// retryPolicy bundles the cluster's bounded-retry settings.
type retryPolicy struct {
	maxAttempts int
	base        time.Duration
	max         time.Duration
}

func (c *Cluster) retryPolicy() retryPolicy {
	return retryPolicy{
		maxAttempts: c.cfg.RetryMaxAttempts,
		base:        c.cfg.RetryBackoffBase,
		max:         c.cfg.RetryBackoffMax,
	}
}

// backoff returns the sim-time delay before retry attempt (1-based):
// exponential in the attempt number, capped, with seeded jitter in
// [0.5, 1.0) of the nominal delay — the classic "equal jitter" scheme
// that decorrelates retry storms without ever halving below base/2.
func (p retryPolicy) backoff(attempt int, rnd *rng.Source) time.Duration {
	d := p.base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.max {
			d = p.max
			break
		}
	}
	if d > p.max {
		d = p.max
	}
	if rnd != nil {
		d = time.Duration(float64(d) * (0.5 + 0.5*rnd.Float64()))
	}
	return d
}

// buildWithRetries models the bounded-retry loop around a replica's data
// copy. Each failed attempt costs the wasted copy time plus a backoff
// delay, all folded into the total build duration the event reports.
// After maxAttempts the build is escalated (counter + warning) and the
// final attempt is assumed to succeed via the slow restore-from-backup
// path — the move itself never reverses at this point.
func (c *Cluster) buildWithRetries(r *Replica, target *Node, build time.Duration) time.Duration {
	if build <= 0 || c.injector == nil {
		return build
	}
	if f := c.injector.BuildSlowdownFactor(); f > 1 {
		build = time.Duration(float64(build) * f)
	}
	pol := c.retryPolicy()
	total := build
	for attempt := 1; attempt <= pol.maxAttempts; attempt++ {
		if !c.injector.BuildAttemptFails(r.ID, target.ID, attempt) {
			return total
		}
		c.metrics.buildRetries.Inc()
		delay := pol.backoff(attempt, c.retryRnd)
		c.metrics.backoffSeconds.Observe(delay.Seconds())
		// The failed copy ran to some point before erroring; charge a full
		// attempt (pessimistic, keeps the model simple) plus the backoff.
		total += delay + build
	}
	c.metrics.buildFailures.Inc()
	if log := c.obs.Log(); log.Enabled(obs.LevelWarn) {
		log.Warnf("fabric: build of %s on %s failed %d attempts; escalated to backup restore",
			r.ID, target.ID, pol.maxAttempts)
	}
	return total
}

// CrashNode abruptly fails a node: unlike a maintenance drain, the
// replicas hosted there lose their data copies and any in-flight build
// onto the node is aborted (load accounting rolled back, replica
// re-placed deterministically). Evacuations are unplanned failovers —
// they carry the crash-detection delay on top of the usual promotion
// downtime and are priced by the SLA model. Replicas with no feasible
// target stay stranded on the dead node, exactly as maintenance leaves
// them.
func (c *Cluster) CrashNode(id string) (evacuated, stranded int, err error) {
	n := c.nodeByID(id)
	if n == nil {
		return 0, 0, fmt.Errorf("fabric: no such node %q", id)
	}
	if n.down {
		return 0, 0, fmt.Errorf("fabric: node %q already down", id)
	}
	sp := c.obs.Span("fabric.node_crash", obs.Str("node", id))
	c.metrics.nodeCrashes.Inc()
	now := c.clock.Now()
	n.down = true
	// The crash anchor inherits the ambient cause (a chaos injection when
	// the chaos engine bracketed this call) and becomes the cause of every
	// evacuation failover and of the EventNodeCrashed itself — so a
	// journal chain reads injection → crash → evacuation → build.
	prevCause := c.BeginCause(CauseCrash, c.Annotate(Annotation{
		Kind: "node-crash", Node: id, Detail: "crash",
	}))
	evacuated, stranded = c.evacuateNode(n, EventFailover, true)
	if stranded > 0 {
		c.obs.Log().Warnf("fabric: crash of %s stranded %d replicas", id, stranded)
	}
	c.emit(Event{Kind: EventNodeCrashed, Time: now, From: id})
	// Sampled after the evacuation inside the crash bracket: replicas
	// that found targets are back up, so only genuinely stranded ones
	// count against quorum, and a quorum-lost annotation chains to the
	// crash. No-op without a configured topology.
	c.updateQuorum(n)
	c.EndCause(prevCause)
	sp.End(obs.Int("evacuated", evacuated), obs.Int("stranded", stranded))
	return evacuated, stranded, nil
}

// RestartNode returns a crashed (or drained) node to service. If the PLB
// is in degraded mode the node re-enters under quarantine: it serves its
// stranded replicas but is excluded from placement and failover targets
// for QuarantineWindow, so a flapping node cannot re-absorb load it will
// drop again on the next flap.
func (c *Cluster) RestartNode(id string) error {
	n := c.nodeByID(id)
	if n == nil {
		return fmt.Errorf("fabric: no such node %q", id)
	}
	if !n.down {
		return fmt.Errorf("fabric: node %q is not down", id)
	}
	now := c.clock.Now()
	n.down = false
	if c.degraded && c.cfg.QuarantineWindow > 0 {
		n.quarantinedUntil = now.Add(c.cfg.QuarantineWindow)
		c.metrics.quarantines.Inc()
	}
	c.obs.Instant("fabric.node_restart", obs.Str("node", id),
		obs.Bool("quarantined", n.Quarantined(now)))
	c.emit(Event{Kind: EventNodeRestarted, Time: now, To: id})
	// Stranded replicas are reachable again; close any quorum-loss
	// windows the crash opened. No-op without a configured topology.
	c.updateQuorum(n)
	return nil
}

// evacuateNode moves every replica off n in sorted replica-ID order —
// the shared deterministic drain used by maintenance (SetNodeDown) and
// crashes (CrashNode). Node.Replicas() surfaces Go map order, and the
// evacuation order decides both how the annealer's randomness is
// consumed and which targets fill first — iterating the raw map would
// make this the one nondeterministic path in the run. kind selects
// planned vs unplanned accounting; crash evacuations additionally abort
// in-flight builds onto the node before re-placing the replica.
func (c *Cluster) evacuateNode(n *Node, kind EventKind, crash bool) (evacuated, stranded int) {
	replicas := n.Replicas()
	sort.Slice(replicas, func(i, j int) bool {
		if replicas[i].ID.Service != replicas[j].ID.Service {
			return replicas[i].ID.Service < replicas[j].ID.Service
		}
		return replicas[i].ID.Index < replicas[j].ID.Index
	})
	now := c.clock.Now()
	for _, r := range replicas {
		if crash && r.Building(now) {
			// The half-built copy dies with the node: abort it so the
			// re-placement below starts a fresh build instead of leaving a
			// replica attached to a dead node with a build that will never
			// finish. detach (inside moveReplica) rolls the node's load
			// accounting back.
			r.buildDoneAt = time.Time{}
			c.metrics.buildAborts.Inc()
			c.obs.Instant("fabric.build_aborted",
				obs.Str("replica", r.ID.String()), obs.Str("node", n.ID))
		}
		target := c.plb.chooseTarget(r)
		if target == nil {
			stranded++
			continue
		}
		cause := moveCausePlanned
		if crash {
			cause = moveCauseCrash
		}
		c.moveReplicaCause(r, target, MetricCores, kind, cause)
		evacuated++
	}
	return evacuated, stranded
}

// UnplannedFailoverCount returns the total unplanned movements (capacity
// violations, resizes, crash evacuations, ForceMove) so far.
func (c *Cluster) UnplannedFailoverCount() int { return c.failoverEvents }

// PlannedMoveCount returns the total planned movements (balancing moves
// and maintenance drains) so far.
func (c *Cluster) PlannedMoveCount() int { return c.balanceMoves }
