package fabric

// Gray-failure (fail-slow) detection: the fabric-side half of the
// resilience story whose faults internal/chaos injects and whose
// mitigation internal/traffic performs. The request plane feeds every
// node's observed service-latency contribution into a per-node EWMA
// (ObserveNodeLatency); each PLB scan compares the EWMAs against the
// cluster median and walks a detect → quarantine → drain → recover state
// machine per node:
//
//   - a node whose EWMA exceeds Threshold × median is *detected*
//     ("slow-node-detected", chained to the chaos injection anchor when
//     one exists, so attribution roots at chaos);
//   - a node detected for Sustain is *quarantined*: its quarantinedUntil
//     is raised (composing with the flapper quarantine — the later
//     deadline wins), which the PLB's search/chooseTarget/balance paths
//     already honor, so no new load lands on it;
//   - a node still quarantined after DrainAfter has its replicas drained
//     through planned moves (make-before-break, never SLA-priced),
//     bounded per scan and gated on the same quorum + capacity-headroom
//     safety conditions the upgrade walker checks before taking a
//     domain down;
//   - when probation lapses the node is re-judged on fresh samples:
//     still slow re-detects, otherwise "slow-node-recovered" closes the
//     episode and the node rejoins placement.
//
// Everything here is inert until EnableSlowNodeDetection is called: the
// detector pointer is nil, ObserveNodeLatency and NoteSlowNodeAnchor
// return immediately, and the scan hook is a single nil check — the
// golden event streams cannot see it.

import (
	"slices"
	"time"

	"toto/internal/obs"
)

// SlowNodeConfig tunes fail-slow detection. Zero fields take the
// defaults from DefaultSlowNodeConfig.
type SlowNodeConfig struct {
	// EWMAAlpha is the smoothing factor of each node's latency EWMA in
	// (0, 1]: higher weighs recent observations more.
	EWMAAlpha float64
	// Threshold is the EWMA-over-cluster-median ratio at which a node is
	// flagged slow (> 1).
	Threshold float64
	// MinSamples is how many latency observations a node needs before it
	// is judged at all — and how many nodes need that many before a
	// median exists.
	MinSamples int
	// Sustain is how long a node must stay over threshold before it is
	// quarantined; transient interference shorter than this never
	// triggers mitigation.
	Sustain time.Duration
	// Probation is the quarantine length. While it runs the node accepts
	// no placements, failover targets, or balancing moves.
	Probation time.Duration
	// DrainAfter is the quarantine age at which the detector starts
	// draining the node's replicas through planned moves.
	DrainAfter time.Duration
	// MaxDrainMoves bounds the drain moves per PLB scan, so draining a
	// slow node can never itself become a failover storm.
	MaxDrainMoves int
	// DrainHeadroom is the fraction of the other nodes' core capacity
	// that must remain free after absorbing the slow node's load, or the
	// drain stalls until the next scan — the upgrade walker's safety
	// condition applied to a single node.
	DrainHeadroom float64
}

// DefaultSlowNodeConfig returns production-like detection thresholds.
func DefaultSlowNodeConfig() SlowNodeConfig {
	return SlowNodeConfig{
		EWMAAlpha:     0.2,
		Threshold:     1.75,
		MinSamples:    8,
		Sustain:       10 * time.Minute,
		Probation:     30 * time.Minute,
		DrainAfter:    10 * time.Minute,
		MaxDrainMoves: 4,
		DrainHeadroom: 0.10,
	}
}

// SlowNodeStats counts the detector's lifecycle transitions.
type SlowNodeStats struct {
	// Detections is how many times a node crossed the slow threshold.
	Detections int
	// Quarantines is how many probationary quarantines were imposed.
	Quarantines int
	// DrainMoves is how many replicas were drained off quarantined nodes.
	DrainMoves int
	// Recoveries is how many slow-node episodes closed healthy.
	Recoveries int
}

// slowNodeState is one node's detector state, indexed by Node.idx.
type slowNodeState struct {
	ewma    float64
	samples int
	// overSince is when the node first exceeded the threshold in the
	// current episode; zero while under.
	overSince time.Time
	// quarantinedAt is when the current slow-node quarantine was imposed;
	// zero outside one. Distinct from Node.quarantinedUntil, which the
	// flapper quarantine shares.
	quarantinedAt time.Time
	// anchorSeq is the chaos fail-slow injection annotation this node's
	// slowness chains to (set via NoteSlowNodeAnchor; 0 when the slowness
	// has no injected cause).
	anchorSeq uint64
	// detectedSeq and quarSeq anchor the episode's own annotations.
	detectedSeq uint64
	quarSeq     uint64
}

// slowNodeDetector owns the per-node health scores and the state
// machine check runs each PLB scan.
type slowNodeDetector struct {
	c      *Cluster
	cfg    SlowNodeConfig
	state  []slowNodeState
	median []float64 // sorted-EWMA scratch, reused across checks
	stats  SlowNodeStats
}

// EnableSlowNodeDetection installs the fail-slow detector. Zero config
// fields take defaults. Calling it again replaces the detector and
// resets all episode state.
func (c *Cluster) EnableSlowNodeDetection(cfg SlowNodeConfig) {
	def := DefaultSlowNodeConfig()
	if cfg.EWMAAlpha <= 0 || cfg.EWMAAlpha > 1 {
		cfg.EWMAAlpha = def.EWMAAlpha
	}
	if cfg.Threshold <= 1 {
		cfg.Threshold = def.Threshold
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = def.MinSamples
	}
	if cfg.Sustain <= 0 {
		cfg.Sustain = def.Sustain
	}
	if cfg.Probation <= 0 {
		cfg.Probation = def.Probation
	}
	if cfg.DrainAfter <= 0 {
		cfg.DrainAfter = def.DrainAfter
	}
	if cfg.MaxDrainMoves <= 0 {
		cfg.MaxDrainMoves = def.MaxDrainMoves
	}
	if cfg.DrainHeadroom <= 0 {
		cfg.DrainHeadroom = def.DrainHeadroom
	}
	c.slowDet = &slowNodeDetector{
		c:     c,
		cfg:   cfg,
		state: make([]slowNodeState, len(c.nodes)),
	}
}

// SlowNodeDetectionEnabled reports whether the detector is installed.
func (c *Cluster) SlowNodeDetectionEnabled() bool { return c.slowDet != nil }

// SlowNodeStats returns the detector's lifecycle counters (zero when
// detection is not enabled).
func (c *Cluster) SlowNodeStats() SlowNodeStats {
	if c.slowDet == nil {
		return SlowNodeStats{}
	}
	return c.slowDet.stats
}

// ObserveNodeLatency feeds one observed service-latency contribution
// (milliseconds) for node n into its health EWMA. The request plane
// calls this once per service tick for every replica node. A nil
// detector makes it a two-instruction no-op, so traffic runs without
// detection pay nothing; a node that is not this cluster's is ignored.
func (c *Cluster) ObserveNodeLatency(n *Node, ms float64) {
	d := c.slowDet
	if d == nil || ms <= 0 {
		return
	}
	st := d.stateOf(n)
	if st == nil {
		return
	}
	if st.samples == 0 {
		st.ewma = ms
	} else {
		st.ewma += d.cfg.EWMAAlpha * (ms - st.ewma)
	}
	st.samples++
}

// NoteSlowNodeAnchor records the journal Seq of the chaos injection that
// made n slow, so the detection annotation — whenever it fires — chains
// back to the injection and attribution roots at chaos. Safe (and a
// no-op) when detection is not enabled or n is not this cluster's.
func (c *Cluster) NoteSlowNodeAnchor(n *Node, seq uint64) {
	d := c.slowDet
	if d == nil {
		return
	}
	if st := d.stateOf(n); st != nil {
		st.anchorSeq = seq
	}
}

// stateOf returns n's detector state, or nil when n is not one of the
// detector's cluster nodes.
func (d *slowNodeDetector) stateOf(n *Node) *slowNodeState {
	if n == nil || n.idx >= len(d.state) || d.c.nodes[n.idx] != n {
		return nil
	}
	return &d.state[n.idx]
}

// clusterMedian returns the median latency EWMA across up, unquarantined
// nodes with enough samples, or 0 when too few nodes qualify to judge
// anyone. Quarantined nodes are excluded so a slow node serving out its
// probation cannot drag the baseline toward itself.
func (d *slowNodeDetector) clusterMedian(now time.Time) float64 {
	vals := d.median[:0]
	for _, n := range d.c.nodes {
		st := &d.state[n.idx]
		if n.Up() && !n.Quarantined(now) && st.samples >= d.cfg.MinSamples {
			vals = append(vals, st.ewma)
		}
	}
	d.median = vals
	if len(vals) < 3 {
		return 0
	}
	slices.Sort(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 0 {
		return (vals[mid-1] + vals[mid]) / 2
	}
	return vals[mid]
}

// check runs the per-node state machine. Called at the top of every PLB
// scan while a detector is installed.
func (d *slowNodeDetector) check(now time.Time) {
	c := d.c
	med := d.clusterMedian(now)
	for _, n := range c.nodes {
		st := &d.state[n.idx]
		if !st.quarantinedAt.IsZero() {
			if n.Quarantined(now) {
				// Serving out probation: once the quarantine is old enough,
				// actively drain what still lives there.
				if now.Sub(st.quarantinedAt) >= d.cfg.DrainAfter && n.Up() && n.ReplicaCount() > 0 {
					d.drain(n, st, now)
				}
				continue
			}
			// Probation lapsed: judge the node on what it did since.
			if med > 0 && n.Up() && st.samples >= d.cfg.MinSamples && st.ewma >= d.cfg.Threshold*med {
				// Relapse — still slow on fresh samples. Open a new episode
				// immediately; Sustain runs again before re-quarantine.
				st.quarantinedAt, st.quarSeq = time.Time{}, 0
				d.detect(n, st, now, med)
				continue
			}
			d.recover(n, st, st.quarSeq)
			continue
		}
		if med <= 0 || !n.Up() || st.samples < d.cfg.MinSamples {
			continue
		}
		if st.ewma >= d.cfg.Threshold*med {
			if st.overSince.IsZero() {
				d.detect(n, st, now, med)
			} else if now.Sub(st.overSince) >= d.cfg.Sustain {
				d.quarantine(n, st, now, med)
			}
			continue
		}
		if !st.overSince.IsZero() {
			// Back under threshold before quarantine ever triggered.
			d.recover(n, st, st.detectedSeq)
		}
	}
}

// detect opens a slow-node episode: the node's EWMA crossed the
// threshold. The annotation chains to the chaos injection anchor when
// one was noted, so the journal reads injection → detection.
func (d *slowNodeDetector) detect(n *Node, st *slowNodeState, now time.Time, med float64) {
	st.overSince = now
	a := Annotation{
		Kind:  "slow-node-detected",
		Node:  n.ID,
		Value: st.ewma,
		Limit: d.cfg.Threshold * med,
	}
	if st.anchorSeq != 0 {
		a.CauseSeq, a.Cause = st.anchorSeq, CauseChaos
	}
	st.detectedSeq = d.c.Annotate(a)
	d.stats.Detections++
	d.c.metrics.slowDetections.Inc()
	d.c.obs.Instant("fabric.slow_node_detected",
		obs.Str("node", n.ID), obs.Float("ewma_ms", st.ewma), obs.Float("median_ms", med))
}

// quarantine imposes the probationary quarantine on a sustained slow
// node. The node's samples reset so the post-probation judgement runs on
// fresh evidence, not the episode that got it quarantined.
func (d *slowNodeDetector) quarantine(n *Node, st *slowNodeState, now time.Time, med float64) {
	until := now.Add(d.cfg.Probation)
	// Compose with the flapper quarantine: the later deadline wins.
	if until.After(n.quarantinedUntil) {
		n.quarantinedUntil = until
	}
	st.quarantinedAt = now
	st.overSince = time.Time{}
	a := Annotation{
		Kind:   "slow-node-quarantined",
		Node:   n.ID,
		Value:  st.ewma,
		Limit:  d.cfg.Threshold * med,
		Detail: "probation",
	}
	if st.detectedSeq != 0 {
		a.CauseSeq, a.Cause = st.detectedSeq, CauseSlowNode
	}
	st.quarSeq = d.c.Annotate(a)
	st.ewma, st.samples = 0, 0
	d.stats.Quarantines++
	d.c.metrics.slowQuarantines.Inc()
	d.c.metrics.quarantines.Inc()
	d.c.obs.Instant("fabric.slow_node_quarantined",
		obs.Str("node", n.ID), obs.DurMS("probation_ms", d.cfg.Probation))
}

// recover closes a slow-node episode healthy: annotate, count, and wipe
// the episode state (the chaos anchor survives — a still-running
// injection re-anchors the next detection).
func (d *slowNodeDetector) recover(n *Node, st *slowNodeState, causeSeq uint64) {
	a := Annotation{Kind: "slow-node-recovered", Node: n.ID, Value: st.ewma}
	if causeSeq != 0 {
		a.CauseSeq, a.Cause = causeSeq, CauseSlowNode
	}
	d.c.Annotate(a)
	st.overSince, st.quarantinedAt = time.Time{}, time.Time{}
	st.detectedSeq, st.quarSeq = 0, 0
	d.stats.Recoveries++
	d.c.metrics.slowRecoveries.Inc()
	d.c.obs.Instant("fabric.slow_node_recovered", obs.Str("node", n.ID))
}

// drainSafety decides whether draining node n is safe right now,
// mirroring the upgrade walker's conditions scaled to one scan's work:
// every service hosted on n must currently hold quorum, and the other
// placeable nodes must keep DrainHeadroom of their core capacity after
// absorbing the replicas this scan would actually move (up to
// MaxDrainMoves — not the whole node, which an over-reserved cluster
// could never absorb at once). Returns "" when safe.
func (d *slowNodeDetector) drainSafety(n *Node, now time.Time) string {
	c := d.c
	for _, r := range n.replicas {
		if r.service.Alive() && !r.service.QuorumAvailable() {
			return "quorum"
		}
	}
	moving, movable := 0.0, 0
	for _, r := range c.plb.sortedNodeReplicas(n) {
		if !r.Building(now) && r.service.Alive() {
			moving += r.Load(MetricCores)
			if movable++; movable == d.cfg.MaxDrainMoves {
				break
			}
		}
	}
	capOut, loadOut := 0.0, 0.0
	for _, o := range c.nodes {
		if o == n || !o.Up() || o.Quarantined(now) {
			continue
		}
		capOut += c.plb.capacity(o, MetricCores)
		loadOut += o.Load(MetricCores)
	}
	if capOut-loadOut-moving < d.cfg.DrainHeadroom*capOut {
		return "headroom"
	}
	return ""
}

// drain moves up to MaxDrainMoves replicas off the quarantined node
// through planned (never SLA-priced) moves, each bracketed under the
// quarantine annotation so the journal reads injection → detection →
// quarantine → drain move. Replicas mid-build are left to finish; a
// failed safety check skips the whole scan's drain (retried next scan).
func (d *slowNodeDetector) drain(n *Node, st *slowNodeState, now time.Time) {
	if reason := d.drainSafety(n, now); reason != "" {
		if log := d.c.obs.Log(); log.Enabled(obs.LevelWarn) {
			log.Warnf("fabric: slow-node drain of %s deferred: %s", n.ID, reason)
		}
		return
	}
	c := d.c
	prev := c.BeginCause(CauseSlowNode, st.quarSeq)
	for moves := 0; moves < d.cfg.MaxDrainMoves; moves++ {
		var victim *Replica
		for _, r := range c.plb.sortedNodeReplicas(n) {
			if !r.Building(now) && r.service.Alive() {
				victim = r
				break
			}
		}
		if victim == nil {
			break
		}
		target := c.plb.chooseTarget(victim)
		if target == nil {
			break // cluster-wide pressure: nowhere to land
		}
		c.moveReplicaCause(victim, target, MetricCores, EventBalanceMove, moveCausePlanned)
		d.stats.DrainMoves++
		c.metrics.slowDrainMoves.Inc()
	}
	c.EndCause(prev)
}
