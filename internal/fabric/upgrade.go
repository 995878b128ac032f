package fabric

// Rolling-upgrade orchestration over upgrade domains, the machinery the
// paper's platform uses for the "cluster maintenance upgrade" outliers of
// Figure 11. Unlike the legacy node-at-a-time ScheduleRollingUpgrade
// (maintenance.go, kept verbatim — the golden event streams schedule it),
// this walker takes down one *upgrade domain* at a time and refuses to
// proceed blindly: each domain is preceded by a safety check (every node
// up, every replica set quorum-safe, capacity headroom on the remaining
// nodes for the evacuated load), drained through the shared evacuateNode
// path, held down for the simulated upgrade duration, and verified
// healthy before the walk moves on. A safety or health check that fails
// stalls the walk and retries; a walk that outlives its timeout rolls
// back (restores whatever it drained and stops). Composing with the
// chaos engine therefore cannot violate quorum safety: a crash
// mid-upgrade fails the next check and stalls the walk until the node
// returns or the timeout fires.

import (
	"errors"
	"fmt"
	"time"

	"toto/internal/obs"
)

// Upgrade-lifecycle event kinds, offset like the other auxiliary blocks
// so core kinds can grow without renumbering.
const (
	EventUpgradeStarted EventKind = iota + 110
	EventUpgradeDomainStarted
	EventUpgradeDomainCompleted
	EventUpgradeCompleted
	EventUpgradeRolledBack
)

// UpgradeSpec configures a domain-walking rolling upgrade.
type UpgradeSpec struct {
	// PerDomain is the simulated upgrade duration each domain stays down.
	PerDomain time.Duration
	// RetryInterval is how long the walker waits before retrying a failed
	// safety or health check, and the settle period between domains.
	RetryInterval time.Duration
	// Timeout bounds the whole walk; exceeding it triggers rollback.
	Timeout time.Duration
	// CapacityHeadroom is the fraction of the surviving nodes' core
	// capacity that must remain free after absorbing the drained domain's
	// load, or the safety check stalls the walk.
	CapacityHeadroom float64
}

// DefaultUpgradeSpec returns production-like upgrade pacing.
func DefaultUpgradeSpec() UpgradeSpec {
	return UpgradeSpec{
		PerDomain:        20 * time.Minute,
		RetryInterval:    10 * time.Minute,
		Timeout:          12 * time.Hour,
		CapacityHeadroom: 0.10,
	}
}

// UpgradeState is the walker's lifecycle state.
type UpgradeState int

const (
	UpgradePending UpgradeState = iota
	UpgradeRunning
	UpgradeCompleted
	UpgradeRolledBack
)

// String returns the state name.
func (s UpgradeState) String() string {
	switch s {
	case UpgradePending:
		return "pending"
	case UpgradeRunning:
		return "running"
	case UpgradeCompleted:
		return "completed"
	case UpgradeRolledBack:
		return "rolled-back"
	default:
		return "unknown"
	}
}

// UpgradeStatus is a snapshot of the walker's progress.
type UpgradeStatus struct {
	State                          UpgradeState
	DomainsCompleted, DomainsTotal int
	// Stalls counts failed safety/health checks (each retried after
	// RetryInterval).
	Stalls int
	// Evacuated and Stranded total the replicas the domain drains moved
	// and failed to move.
	Evacuated, Stranded int
}

// UpgradeWalker executes one rolling upgrade across the cluster's
// upgrade domains. All transitions run on the simulation clock; the
// walker is as deterministic as the drains it performs.
type UpgradeWalker struct {
	c    *Cluster
	spec UpgradeSpec

	domains  []int     // distinct upgrade domains, walk order
	byDomain [][]*Node // nodes per walk position

	state    UpgradeState
	deadline time.Time
	current  int
	stalls   int
	evac     int
	stranded int
	rootSeq  uint64   // Seq of the walk's "upgrade" anchor annotation
	drained  []string // node IDs this walker took down for the current UD
}

// ScheduleDomainUpgrade schedules a rolling upgrade to begin at start.
// Only one upgrade may be pending or running at a time.
func (c *Cluster) ScheduleDomainUpgrade(start time.Time, spec UpgradeSpec) (*UpgradeWalker, error) {
	if c.upgrade != nil && (c.upgrade.state == UpgradePending || c.upgrade.state == UpgradeRunning) {
		return nil, errors.New("fabric: a rolling upgrade is already in progress")
	}
	def := DefaultUpgradeSpec()
	if spec.PerDomain <= 0 {
		spec.PerDomain = def.PerDomain
	}
	if spec.RetryInterval <= 0 {
		spec.RetryInterval = def.RetryInterval
	}
	if spec.Timeout <= 0 {
		spec.Timeout = def.Timeout
	}
	u := &UpgradeWalker{c: c, spec: spec}
	// Walk domains in ascending order; within a domain, nodes keep
	// cluster slice order. Both are deterministic by construction.
	for ud := 0; ud < c.UpgradeDomainCount(); ud++ {
		var nodes []*Node
		for _, n := range c.nodes {
			if n.UpgradeDomain == ud {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) > 0 {
			u.domains = append(u.domains, ud)
			u.byDomain = append(u.byDomain, nodes)
		}
	}
	c.upgrade = u
	c.clock.At(start, u.begin)
	return u, nil
}

// UpgradeStatus returns the current (or last) walker's progress; ok is
// false when no upgrade was ever scheduled.
func (c *Cluster) UpgradeStatus() (UpgradeStatus, bool) {
	if c.upgrade == nil {
		return UpgradeStatus{}, false
	}
	return c.upgrade.Status(), true
}

// Status returns a snapshot of the walker's progress.
func (u *UpgradeWalker) Status() UpgradeStatus {
	return UpgradeStatus{
		State:            u.state,
		DomainsCompleted: u.current,
		DomainsTotal:     len(u.domains),
		Stalls:           u.stalls,
		Evacuated:        u.evac,
		Stranded:         u.stranded,
	}
}

func (u *UpgradeWalker) begin(now time.Time) {
	u.state = UpgradeRunning
	u.deadline = now.Add(u.spec.Timeout)
	u.rootSeq = u.c.Annotate(Annotation{
		Kind: "upgrade", Detail: fmt.Sprintf("%d domains", len(u.domains)),
	})
	prev := u.c.BeginCause(CauseUpgrade, u.rootSeq)
	u.c.emit(Event{Kind: EventUpgradeStarted, Time: now})
	u.c.EndCause(prev)
	u.step(now)
}

// step attempts the next upgrade domain: timeout check, safety check,
// then drain.
func (u *UpgradeWalker) step(now time.Time) {
	if u.state != UpgradeRunning {
		return
	}
	if !now.Before(u.deadline) {
		u.rollback(now, "timeout")
		return
	}
	if u.current >= len(u.domains) {
		u.finish(now)
		return
	}
	if reason := u.safetyCheck(u.domains[u.current]); reason != "" {
		u.stall(now, "upgrade-safety-check", reason, u.step)
		return
	}

	ud := u.domains[u.current]
	domSeq := u.c.Annotate(Annotation{
		Kind: "upgrade-domain", CauseSeq: u.rootSeq, Cause: CauseUpgrade,
		Detail: fmt.Sprintf("ud-%d", ud), Value: float64(u.current),
	})
	prev := u.c.BeginCause(CauseUpgrade, domSeq)
	u.c.emit(Event{Kind: EventUpgradeDomainStarted, Time: now, From: fmt.Sprintf("ud-%d", ud)})
	u.drained = u.drained[:0]
	for _, n := range u.byDomain[u.current] {
		if !n.Up() {
			continue // already down (concurrent fault); not ours to restore
		}
		ev, st, err := u.c.SetNodeDown(n.ID)
		if err != nil {
			continue
		}
		u.evac += ev
		u.stranded += st
		u.drained = append(u.drained, n.ID)
	}
	u.c.EndCause(prev)
	u.c.clock.At(now.Add(u.spec.PerDomain), func(t time.Time) {
		u.restoreDomain(t, domSeq, ud)
	})
}

// restoreDomain brings the drained domain back after its simulated
// upgrade duration and hands off to the health check.
func (u *UpgradeWalker) restoreDomain(now time.Time, domSeq uint64, ud int) {
	if u.state != UpgradeRunning {
		return
	}
	prev := u.c.BeginCause(CauseUpgrade, domSeq)
	for _, id := range u.drained {
		_ = u.c.SetNodeUp(id)
	}
	u.drained = u.drained[:0]
	u.c.EndCause(prev)
	u.verifyDomain(now, domSeq, ud)
}

// verifyDomain runs the post-upgrade health check, retrying until the
// cluster is healthy or the walk times out.
func (u *UpgradeWalker) verifyDomain(now time.Time, domSeq uint64, ud int) {
	if u.state != UpgradeRunning {
		return
	}
	if !now.Before(u.deadline) {
		u.rollback(now, "timeout")
		return
	}
	if reason := u.healthCheck(); reason != "" {
		u.stall(now, "upgrade-health-check", reason, func(t time.Time) {
			u.verifyDomain(t, domSeq, ud)
		})
		return
	}
	u.c.metrics.upgradeDomains.Inc()
	prev := u.c.BeginCause(CauseUpgrade, domSeq)
	u.c.emit(Event{Kind: EventUpgradeDomainCompleted, Time: now, To: fmt.Sprintf("ud-%d", ud)})
	u.c.EndCause(prev)
	u.current++
	// Settle period before the next domain's safety check, so the next
	// drain never lands at the same instant as this domain's restore.
	u.c.clock.At(now.Add(u.spec.RetryInterval), u.step)
}

func (u *UpgradeWalker) finish(now time.Time) {
	u.state = UpgradeCompleted
	prev := u.c.BeginCause(CauseUpgrade, u.rootSeq)
	u.c.emit(Event{Kind: EventUpgradeCompleted, Time: now})
	u.c.EndCause(prev)
}

// stall records a failed check and schedules retry after RetryInterval.
func (u *UpgradeWalker) stall(now time.Time, kind, reason string, retry func(time.Time)) {
	u.stalls++
	u.c.metrics.upgradeStalls.Inc()
	u.c.Annotate(Annotation{
		Kind: kind, CauseSeq: u.rootSeq, Cause: CauseUpgrade,
		Detail: reason, Value: float64(u.stalls),
	})
	if log := u.c.obs.Log(); log.Enabled(obs.LevelWarn) {
		log.Warnf("fabric: upgrade stalled (%s): %s", kind, reason)
	}
	u.c.clock.At(now.Add(u.spec.RetryInterval), retry)
}

// rollback aborts the walk: whatever the walker drained is restored,
// nothing else changes, and the walk terminates in UpgradeRolledBack.
func (u *UpgradeWalker) rollback(now time.Time, reason string) {
	u.state = UpgradeRolledBack
	u.c.metrics.upgradeRollback.Inc()
	seq := u.c.Annotate(Annotation{
		Kind: "upgrade-rollback", CauseSeq: u.rootSeq, Cause: CauseUpgrade, Detail: reason,
	})
	prev := u.c.BeginCause(CauseUpgrade, seq)
	for _, id := range u.drained {
		_ = u.c.SetNodeUp(id)
	}
	u.drained = u.drained[:0]
	u.c.emit(Event{Kind: EventUpgradeRolledBack, Time: now})
	u.c.EndCause(prev)
}

// safetyCheck decides whether upgrade domain ud may go down right now.
// It returns "" when safe, or the reason to stall: every node must be up
// (a concurrent crash stalls the walk rather than stacking outages),
// every live replica set must currently hold quorum, and the nodes
// outside ud must retain CapacityHeadroom of their core capacity after
// absorbing the domain's entire load.
func (u *UpgradeWalker) safetyCheck(ud int) string {
	c := u.c
	for _, n := range c.nodes {
		if !n.Up() {
			return fmt.Sprintf("node %s down", n.ID)
		}
	}
	for _, svc := range c.live {
		if !svc.QuorumAvailable() {
			return fmt.Sprintf("service %s lacks quorum", svc.Name)
		}
	}
	moving, capOut, loadOut := 0.0, 0.0, 0.0
	for _, n := range c.nodes {
		if n.UpgradeDomain == ud {
			moving += n.Load(MetricCores)
			continue
		}
		capOut += c.plb.capacity(n, MetricCores)
		loadOut += n.Load(MetricCores)
	}
	if capOut-loadOut-moving < u.spec.CapacityHeadroom*capOut {
		return fmt.Sprintf("headroom: %.0f free cores outside ud-%d for %.0f moving + %.0f reserve",
			capOut-loadOut, ud, moving, u.spec.CapacityHeadroom*capOut)
	}
	return ""
}

// healthCheck validates the cluster after a domain came back: structural
// invariants hold, no replica is stranded on a down node, and every live
// replica set holds quorum.
func (u *UpgradeWalker) healthCheck() string {
	if err := CheckInvariants(u.c); err != nil {
		return err.Error()
	}
	for _, svc := range u.c.live {
		for _, r := range svc.Replicas {
			if r.Node != nil && !r.Node.Up() {
				return fmt.Sprintf("replica %s stranded on down node %s", r.ID, r.Node.ID)
			}
		}
		if !svc.QuorumAvailable() {
			return fmt.Sprintf("service %s lacks quorum", svc.Name)
		}
	}
	return ""
}
