package traffic

import (
	"time"

	"toto/internal/fabric"
)

// This file is the gray-failure resilience layer of the traffic plane:
// traffic-class resolution, load-aware replica routing, the fail-slow
// latency hook, and the token budget that hedges share with retries.
// Apart from the retry budget, everything here is reached only when the
// corresponding sub-spec is configured — a plain spec keeps the engine's
// behavior byte-identical to a build predating this file.

// maxHedgeBudgetRatio is the hard ceiling on HedgeSpec.BudgetRatio:
// hedged requests may never add more than 5% of offered load.
const maxHedgeBudgetRatio = 0.05

// tokenBudget is the token bucket behind both retries and hedges; each
// service holds one of each, and the two never trade tokens. Tokens
// accrue only from fresh arrivals at the configured ratio and are capped
// at a few ticks of refill, so cumulative grants can never exceed
// ratio × cumulative fresh arrivals — no amplification, by construction.
// It is deliberately free of engine state so the fuzz target can hammer
// the invariant in isolation.
type tokenBudget struct {
	tokens float64
}

// refill accrues tokens for fresh arrivals. mean is the tick's expected
// arrival count, sizing the burst cap at budgetBurstTicks of refill.
func (b *tokenBudget) refill(fresh int, mean, ratio float64) {
	b.tokens += float64(fresh) * ratio
	if limit := mean*ratio*budgetBurstTicks + 1; b.tokens > limit {
		b.tokens = limit
	}
}

// grant returns how many of desired attempts the budget allows,
// consuming that many tokens.
func (b *tokenBudget) grant(desired int) int {
	g := desired
	if t := int(b.tokens); t < g {
		g = t
	}
	if g < 0 {
		g = 0
	}
	b.tokens -= float64(g)
	return g
}

// SetSlowFactor wires a fail-slow view into the latency model: fn
// returns the service-time multiplier of a node at a simulated time (1
// for healthy nodes). The chaos engine's SlowFactor is the intended
// source. A nil fn (the default) leaves node service times untouched.
// Must be set before Start; sim goroutine only, like everything here.
func (e *Engine) SetSlowFactor(fn func(node string, now time.Time) float64) {
	e.slowFn = fn
}

// isPremium resolves a service's traffic class from its labels.
func (e *Engine) isPremium(s *fabric.Service) bool {
	c := e.spec.Classes
	if c == nil || s.Labels == nil {
		return false
	}
	v := s.Labels[c.Label]
	for _, p := range c.PremiumEditions {
		if v == p {
			return true
		}
	}
	return false
}

// leastLoadedReplica picks the healthiest dispatch target for a service:
// the up, non-quarantined, fully built replica whose node has the lowest
// routingUtil, excluding exclude (for hedge-alternate selection).
// First-wins on ties keeps the choice deterministic. Returns nil when no
// replica qualifies. Deliberately load-aware rather than latency-aware:
// a fail-slow node keeps winning routing until it is quarantined, which
// is exactly the gap hedging covers. Node state comes from the tick's
// node table.
func (e *Engine) leastLoadedReplica(s *fabric.Service, now time.Time, exclude *fabric.Node) *fabric.Node {
	var best *fabric.Node
	bestUtil := 0.0
	for _, r := range s.Replicas {
		n := r.Node
		if n == nil || n == exclude {
			continue
		}
		t := &e.nodes[n.Index()]
		if !t.routable || r.Building(now) {
			continue
		}
		if best == nil || t.routeUtil < bestUtil {
			best, bestUtil = n, t.routeUtil
		}
	}
	return best
}

// routingUtil is the core utilization that routing ranks n by: its core
// load over capacity×density, or 1 when n has no core capacity.
func (e *Engine) routingUtil(n *fabric.Node) float64 {
	capc := n.Capacity[fabric.MetricCores] * e.cluster.Density()
	if capc > 0 {
		return n.Load(fabric.MetricCores) / capc
	}
	return 1
}

// nodeLoadMs models the service time that n's observable state alone
// predicts — the base latency inflated by core utilization and replica
// co-location, with no fail-slow contribution. Returns that expected
// service time and the utilization.
func (e *Engine) nodeLoadMs(n *fabric.Node) (float64, float64) {
	capc := n.Capacity[fabric.MetricCores] * e.cluster.Density()
	util := 0.0
	if capc > 0 {
		util = n.Load(fabric.MetricCores) / capc
	}
	if util > 0.95 {
		util = 0.95
	}
	coloc := 1 + colocLatencyFactor*float64(n.ReplicaCount()-1)
	return e.spec.BaseLatencyMs / (1 - util) * coloc, util
}

// nodeServiceMs models the node-attributable service time of one
// request on n this tick: the load-expected time, times the node's slow
// factor when a fail-slow hook is attached. Returns the service time
// and the utilization.
func (e *Engine) nodeServiceMs(n *fabric.Node) (float64, float64) {
	t := &e.nodes[n.Index()]
	return t.svcMs, t.util
}

// feedSlowNodeDetector reports every replica node's load-normalized
// service time to the fabric's gray-failure detector: the observed
// service time divided by what the node's utilization and co-location
// alone predict, rescaled to base-latency units. A healthy node reports
// ~BaseLatencyMs no matter how loaded it is, so the detector's
// EWMA-over-cluster-median ratio isolates exactly the slowness that
// load cannot explain — the defining signal of a gray failure — instead
// of false-firing on natural utilization imbalance. Each service
// observes all its replica nodes (replication traffic touches every
// copy), so the detector keeps seeing a slow node even after routing
// steers dispatch away from it. No-op unless detection is enabled on
// the cluster.
func (e *Engine) feedSlowNodeDetector(s *fabric.Service) {
	for _, r := range s.Replicas {
		if n := r.Node; n != nil && n.Up() {
			t := &e.nodes[n.Index()]
			e.cluster.ObserveNodeLatency(n, t.svcMs/t.loadMs*e.spec.BaseLatencyMs)
		}
	}
}
