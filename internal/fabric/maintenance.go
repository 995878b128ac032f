package fabric

import (
	"fmt"
	"time"

	"toto/internal/obs"
)

// The paper's experiments ran on a live stage cluster "still subject to
// internal code upgrades ... and intermittent failures that also happen
// in production" (§5.2), and Figure 11 calls out its outliers as the
// moments "when a cluster maintenance upgrade was occurring". This file
// implements that machinery: nodes can be taken down (draining their
// replicas to the rest of the cluster) and brought back, so a rolling
// upgrade can be scheduled over a benchmark run.

// EventNodeDown and EventNodeUp extend the event kinds for maintenance.
const (
	EventNodeDown EventKind = iota + 100
	EventNodeUp
)

// Up reports whether the node is in service. Nodes start up; maintenance
// takes them down temporarily.
func (n *Node) Up() bool { return !n.down }

// SetNodeDown drains a node for maintenance: every hosted replica is
// moved to an up node (a forced failover with the usual promotion and
// downtime semantics), and the node stops accepting placements until
// SetNodeUp. Replicas that cannot be placed anywhere stay put — a real
// upgrade would block on them; the count of stranded replicas is
// returned so the operator can decide.
func (c *Cluster) SetNodeDown(id string) (evacuated, stranded int, err error) {
	n := c.nodeByID(id)
	if n == nil {
		return 0, 0, fmt.Errorf("fabric: no such node %q", id)
	}
	if n.down {
		return 0, 0, fmt.Errorf("fabric: node %q already down", id)
	}
	sp := c.obs.Span("fabric.node_drain", obs.Str("node", id))
	c.obs.Counter("fabric.node_drains").Inc()
	n.down = true // placement and targets exclude it from here on
	// The sorted-order evacuation is shared with CrashNode (faults.go);
	// drains account their moves as planned. The drain anchor makes every
	// evacuation move (and the EventNodeDown) causally attributable to
	// this maintenance decision.
	prevCause := c.BeginCause(CauseDrain, c.Annotate(Annotation{
		Kind: "drain", Node: id,
	}))
	evacuated, stranded = c.evacuateNode(n, EventBalanceMove, false)
	if stranded > 0 {
		c.obs.Log().Warnf("fabric: drain of %s stranded %d replicas", id, stranded)
	}
	c.emit(Event{Kind: EventNodeDown, Time: c.clock.Now(), From: id})
	// A drain that strands replicas can break a replica set's quorum;
	// sampled inside the cause bracket so a quorum-lost annotation chains
	// to the drain decision. No-op without a configured topology.
	c.updateQuorum(n)
	c.EndCause(prevCause)
	sp.End(obs.Int("evacuated", evacuated), obs.Int("stranded", stranded))
	return evacuated, stranded, nil
}

// SetNodeUp returns a drained node to service.
func (c *Cluster) SetNodeUp(id string) error {
	n := c.nodeByID(id)
	if n == nil {
		return fmt.Errorf("fabric: no such node %q", id)
	}
	if !n.down {
		return fmt.Errorf("fabric: node %q is not down", id)
	}
	n.down = false
	c.obs.Instant("fabric.node_up", obs.Str("node", id))
	c.emit(Event{Kind: EventNodeUp, Time: c.clock.Now(), To: id})
	// Stranded replicas are reachable again; close any quorum-loss
	// windows the outage opened. No-op without a configured topology.
	c.updateQuorum(n)
	return nil
}

// UpNodes returns the number of nodes currently in service.
func (c *Cluster) UpNodes() int {
	up := 0
	for _, n := range c.nodes {
		if n.Up() {
			up++
		}
	}
	return up
}

func (c *Cluster) nodeByID(id string) *Node {
	for _, n := range c.nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// ScheduleRollingUpgrade drains and restores each node in turn, starting
// at start, keeping each node down for perNode. This is the "cluster
// maintenance upgrade" visible as outliers in Figure 11. The schedule is
// strictly sequential: node i+1 goes down only after node i is back.
func (c *Cluster) ScheduleRollingUpgrade(start time.Time, perNode time.Duration) {
	at := start
	for _, n := range c.nodes {
		id := n.ID
		down := at
		up := at.Add(perNode)
		c.clock.At(down, func(time.Time) {
			// Best effort: a node already down (operator action) is left
			// alone.
			_, _, _ = c.SetNodeDown(id)
		})
		c.clock.At(up, func(time.Time) {
			_ = c.SetNodeUp(id)
		})
		at = up
	}
}
