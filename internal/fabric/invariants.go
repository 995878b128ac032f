package fabric

import (
	"fmt"
	"math"
)

// The invariants below started life as test-only assertions
// (invariants_test.go). Fault injection promotes them to a production
// facility: a chaos run attaches an InvariantChecker that re-validates
// the whole cluster after every emitted event, so any bookkeeping drift
// a fault path introduces is caught at the event that caused it, not at
// the end of a week-long schedule.

// CheckInvariants validates the structural invariants every cluster
// state must satisfy, regardless of the operation or fault history,
// returning the first violation found (nil when consistent):
//
//  1. cached node totals equal the sum of hosted replica loads;
//  2. replicas of one service sit on distinct nodes;
//  3. every live service has exactly one primary;
//  4. cluster-wide reserved cores equal the sum over live services;
//  5. every live replica is attached to the node it points at
//     (crashed nodes may still host stranded replicas — that is
//     consistent state, not a violation);
//  6. the Naming Service's global version bounds every entry version;
//  7. with a configured topology, replicas of one service sit in
//     distinct fault domains whenever the cluster has enough domains to
//     make that feasible (the placement paths treat domain spread as a
//     hard constraint, so any overlap is a bookkeeping bug).
func CheckInvariants(c *Cluster) error {
	for _, n := range c.nodes {
		if err := checkNodeTotals(n); err != nil {
			return err
		}
	}
	totalCores := 0.0
	for _, svc := range c.live {
		if err := checkServiceInvariants(c, svc); err != nil {
			return err
		}
		totalCores += svc.TotalReservedCores()
	}
	if math.Abs(totalCores-c.ReservedCores()) > 1e-6 {
		return fmt.Errorf("cluster reserved %v != service sum %v", c.ReservedCores(), totalCores)
	}
	if maxEntry, version := c.naming.MaxEntryVersion(), c.naming.CurrentVersion(); maxEntry > version {
		return fmt.Errorf("naming entry version %d exceeds store version %d", maxEntry, version)
	}
	return nil
}

// checkNodeTotals validates invariant 1 for a single node: the cached
// per-metric totals equal the sum of the hosted replicas' loads.
func checkNodeTotals(n *Node) error {
	for _, m := range AllMetrics() {
		sum := 0.0
		for _, r := range n.replicas {
			sum += r.Loads[m]
		}
		if math.Abs(sum-n.Load(m)) > 1e-6 {
			return fmt.Errorf("node %s metric %s: cached total %v != replica sum %v",
				n.ID, m, n.Load(m), sum)
		}
	}
	return nil
}

// checkServiceInvariants validates invariants 2, 3, 5, and 7 for a single
// live service: distinct nodes (and fault domains where required), exactly
// one primary, every replica placed and attached to the node it points at.
func checkServiceInvariants(c *Cluster, svc *Service) error {
	primaries := 0
	for i, r := range svc.Replicas {
		if r.Role == Primary {
			primaries++
		}
		if r.Node == nil {
			return fmt.Errorf("live service %s has an unplaced replica", svc.Name)
		}
		for _, other := range svc.Replicas[:i] {
			if other.Node == r.Node {
				return fmt.Errorf("service %s has two replicas on %s", svc.Name, r.Node.ID)
			}
			if c.domainSpreadRequired(svc) && other.Node.FaultDomain == r.Node.FaultDomain {
				return fmt.Errorf("service %s has two replicas in fault domain %d (%s, %s)",
					svc.Name, r.Node.FaultDomain, other.Node.ID, r.Node.ID)
			}
		}
		if r.Node.replicas[r.ID] != r {
			return fmt.Errorf("replica %s not attached to its node", r.ID)
		}
	}
	if primaries != 1 {
		return fmt.Errorf("service %s has %d primaries", svc.Name, primaries)
	}
	return nil
}

// InvariantChecker continuously validates a cluster: it subscribes to
// the cluster's event stream and validates after every event, plus a
// monotonicity check on the Naming Service version. Violations accumulate
// (deduplicated by message) rather than aborting the run, so a chaos
// schedule reports every distinct inconsistency it provoked.
//
// Validation is incremental. The high-frequency event kinds (service
// creation, failovers, balance moves) touch exactly one replica set and
// at most two nodes, so only that scope is re-checked — O(touched)
// instead of O(cluster) per event. The rare structural kinds (drops,
// node lifecycle transitions, upgrade walks) and every
// invariantFullInterval-th scoped event still run the full cluster sweep,
// which also covers the two global invariants (reserved-core sum, naming
// version bound) the scoped check cannot see.
type InvariantChecker struct {
	c           *Cluster
	lastVersion int64
	checks      int
	sinceFull   int
	violations  []string
	seen        map[string]bool
}

// invariantFullInterval bounds how many consecutive scoped checks may run
// before a full cluster sweep: a global drift a scoped check cannot see
// is caught at most this many events after it was introduced.
const invariantFullInterval = 64

// NewInvariantChecker attaches a continuous checker to the cluster. It
// begins validating with the next emitted event.
func NewInvariantChecker(c *Cluster) *InvariantChecker {
	ic := &InvariantChecker{
		c:           c,
		lastVersion: c.naming.CurrentVersion(),
		seen:        make(map[string]bool),
	}
	c.Subscribe(func(ev Event) { ic.onEvent(ev) })
	return ic
}

func (ic *InvariantChecker) onEvent(ev Event) {
	ic.checks++
	scoped := false
	switch ev.Kind {
	case EventServiceCreated, EventFailover, EventBalanceMove:
		ic.sinceFull++
		scoped = ic.sinceFull < invariantFullInterval
	}
	var err error
	if scoped {
		err = ic.checkEventScope(ev)
	} else {
		ic.sinceFull = 0
		err = CheckInvariants(ic.c)
	}
	if err != nil {
		ic.record(fmt.Sprintf("after %s at %s: %v", ev.Kind, ev.Time.Format("2006-01-02T15:04:05"), err))
	}
	if v := ic.c.naming.CurrentVersion(); v < ic.lastVersion {
		ic.record(fmt.Sprintf("naming version regressed: %d -> %d", ic.lastVersion, v))
	} else {
		ic.lastVersion = v
	}
}

// checkEventScope validates only the replica set and nodes the event
// touched: the event's service with every node hosting one of its
// replicas, plus the movement endpoints (From lost load on a move and no
// longer appears among the service's replica nodes).
func (ic *InvariantChecker) checkEventScope(ev Event) error {
	c := ic.c
	if svc := ev.Service; svc != nil && svc.Alive() {
		if err := checkServiceInvariants(c, svc); err != nil {
			return err
		}
		for _, r := range svc.Replicas {
			if r.Node != nil {
				if err := checkNodeTotals(r.Node); err != nil {
					return err
				}
			}
		}
	}
	if ev.From != "" {
		if n := c.nodeByID(ev.From); n != nil {
			if err := checkNodeTotals(n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ic *InvariantChecker) record(msg string) {
	if ic.seen[msg] {
		return
	}
	ic.seen[msg] = true
	ic.violations = append(ic.violations, msg)
}

// Checks returns how many events have been validated.
func (ic *InvariantChecker) Checks() int { return ic.checks }

// Violations returns the distinct violations observed so far (nil when
// the cluster has stayed consistent).
func (ic *InvariantChecker) Violations() []string { return ic.violations }

// Err returns an error summarizing the violations, or nil when green.
func (ic *InvariantChecker) Err() error {
	if len(ic.violations) == 0 {
		return nil
	}
	return fmt.Errorf("invariant checker: %d violation(s), first: %s",
		len(ic.violations), ic.violations[0])
}
