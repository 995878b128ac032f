package fabric

import (
	"fmt"
	"strconv"
	"time"
)

// ReplicaRole distinguishes the primary replica (which serves writes and
// whose movement causes customer-visible unavailability) from secondaries.
type ReplicaRole int

const (
	// Primary is the replica serving the customer workload.
	Primary ReplicaRole = iota
	// Secondary is a standby replica of a local-store database.
	Secondary
)

// String returns the role name.
func (r ReplicaRole) String() string {
	if r == Primary {
		return "primary"
	}
	return "secondary"
}

// ReplicaID identifies one replica of one service.
type ReplicaID struct {
	Service string
	Index   int
}

// String formats the ID as "service/index". Built by hand rather than
// fmt.Sprintf: service churn formats every new replica's ID (and its
// precomputed sortKey), and the fmt path costs three allocations where
// one suffices.
func (id ReplicaID) String() string {
	return id.Service + "/" + strconv.Itoa(id.Index)
}

// Replica is one instance of a service placed on a node, carrying the
// dynamic load metrics it last reported to the PLB.
type Replica struct {
	// ID identifies the replica within the cluster.
	ID ReplicaID
	// Role is Primary or Secondary.
	Role ReplicaRole
	// Node is the node currently hosting the replica (nil while a
	// placement is pending).
	Node *Node
	// Loads holds the last reported value for each metric, indexed by
	// MetricName. MetricCores is written once at placement from the
	// service reservation; the others change as the replica reports.
	Loads LoadVector
	// Incarnation counts how many times the replica has been (re)placed.
	// It distinguishes a fresh replica from a stale one that returned to
	// a node it lived on before, so per-node in-memory state (RgManager's
	// non-persisted metric store) is never wrongly reused.
	Incarnation int

	service *Service
	// sortKey is ID.String() precomputed once, so the PLB's deterministic
	// tie-breaking comparators never format strings (or allocate) inside
	// a sort loop.
	sortKey string
	// buildDoneAt is when the replica's in-flight data copy finishes; zero
	// when no build is pending. A node crash before this instant aborts
	// the build and forces a deterministic re-placement (see faults.go).
	buildDoneAt time.Time
	// restoring marks an in-flight build whose source copy died with a
	// crashed node: until buildDoneAt this replica has no usable data,
	// unlike a planned move's copy whose source keeps serving. Stale once
	// the build completes (Building returns false first).
	restoring bool
}

// Building reports whether the replica has a data copy in flight at now.
func (r *Replica) Building(now time.Time) bool { return r.buildDoneAt.After(now) }

// Service returns the service this replica belongs to.
func (r *Replica) Service() *Service { return r.service }

// Load returns the replica's last reported value for metric m (0 when
// never reported or when m is not a tracked metric).
func (r *Replica) Load(m MetricName) float64 {
	if !m.Valid() {
		return 0
	}
	return r.Loads[m]
}

// Service is a deployed application — in SQL DB terms, one database. A
// service has a fixed replica count (1 for remote-store databases, 4 for
// local-store, §2) and per-replica static reservations (cores).
type Service struct {
	// Name uniquely identifies the service in the cluster.
	Name string
	// Labels carries application metadata the fabric itself does not
	// interpret (Toto stores the database's edition and SLO name here).
	Labels map[string]string
	// ReplicaCount is the number of replicas the service runs.
	ReplicaCount int
	// ReservedCoresPerReplica is the static core reservation each replica
	// holds against its node's logical core capacity.
	ReservedCoresPerReplica float64
	// Replicas are the service's replicas; index 0 starts as primary.
	Replicas []*Replica
	// Created is the simulated time the service was placed.
	Created time.Time
	// Dropped is the simulated drop time; zero while the service lives.
	Dropped time.Time
	// Downtime accumulates customer-visible unavailability from
	// unplanned failovers and resource-wait degradation, feeding the SLA
	// penalty in the revenue model (§5.1). Planned movements (balancing,
	// maintenance drains) accrue into PlannedDowntime instead — real SLAs
	// exclude scheduled maintenance windows from the credit calculation.
	Downtime time.Duration
	// PlannedDowntime accumulates unavailability caused by planned
	// movements: balancing moves and maintenance drains. It is reported
	// but never priced by the SLA model.
	PlannedDowntime time.Duration
	// FailoverCount is the total number of replica movements the service
	// suffered after initial placement, planned and unplanned alike. It
	// is always UnplannedFailovers + PlannedMoves.
	FailoverCount int
	// UnplannedFailovers counts movements forced on the service: capacity
	// violations, resizes, crash evacuations, administrative ForceMove.
	UnplannedFailovers int
	// PlannedMoves counts movements the orchestrator chose to make:
	// balancing moves and maintenance drains.
	PlannedMoves int
	// FailedOverCores accumulates the core reservation moved across all
	// of this service's failovers (the paper's Fig. 2 x-axis and Fig. 12b
	// quantity counts capacity moved, so each moved replica contributes
	// its per-replica core reservation).
	FailedOverCores float64
	// QuorumLosses counts the times the service's replica set lost write
	// quorum (primary plus a majority of replicas on up nodes). Only
	// maintained while the cluster has a configured topology.
	QuorumLosses int
	// quorumLostAt is when the current quorum-loss window opened; zero
	// while the service holds quorum. The window's duration is added to
	// Downtime (SLA-priced) when quorum is regained.
	quorumLostAt time.Time
	// quorumDirty marks the service as enqueued in the cluster's
	// quorum dirty set: a replica moved since the last quorum sweep, so
	// its availability must be re-evaluated at the next sweep even if no
	// replica sits on the triggering node.
	quorumDirty bool
	// quorumQueued dedupes the service within a single quorum sweep's
	// candidate collection (a service can arrive via the trigger node,
	// the dirty set, and the open-window set at once).
	quorumQueued bool
	// slot is the service's dense index among live services (see Slot).
	slot int
}

// Slot returns the service's dense index among live services: a small
// integer the cluster assigns when the service is created and recycles
// once it is dropped, so per-service side tables can be slices instead of
// maps keyed by name. Slots are unique among live services only; a
// dropped service's slot may already belong to a newer one.
func (s *Service) Slot() int { return s.slot }

// QuorumAvailable reports whether the replica set can serve writes: its
// primary sits on an up node and a majority of its replicas (primary
// included) do too. Single-replica services reduce to "the primary's
// node is up".
func (s *Service) QuorumAvailable() bool {
	up := 0
	primaryUp := false
	for _, r := range s.Replicas {
		if r.Node == nil || !r.Node.Up() {
			continue
		}
		up++
		if r.Role == Primary {
			primaryUp = true
		}
	}
	return primaryUp && up >= s.ReplicaCount/2+1
}

// ServingState classifies a service's ability to serve requests at an
// instant — the error-surfacing hook the request-level traffic plane
// reads. It is derived on demand from replica placement, so computing it
// adds nothing to the fabric's event paths.
type ServingState int

const (
	// ServingHealthy means the primary is placed, up, and not rebuilding.
	ServingHealthy ServingState = iota
	// ServingDegraded means the primary is up but has a data copy in
	// flight (a mid-build failover window): requests partially fail.
	ServingDegraded
	// ServingDown means the primary is unplaced or on a down node, or the
	// replica set has lost write quorum: requests fail.
	ServingDown
)

// String returns the serving-state name.
func (s ServingState) String() string {
	switch s {
	case ServingHealthy:
		return "healthy"
	case ServingDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// ServingStateAt reports whether the service can serve requests at now:
// down when the primary is unplaced, on a down node, or the replica set
// lacks write quorum; degraded while the primary has a data copy in
// flight; healthy otherwise. A primary restoring after a crash (its data
// died with the old node) can only limp along if another intact copy
// survives — when a correlated outage forces the whole replica set into
// restores at once there is nothing to serve from, and the service is
// down. Planned moves never cause a down state by themselves: their
// source copies conceptually keep serving (make-before-break), and
// single-replica remote-store services never build at all.
func (s *Service) ServingStateAt(now time.Time) ServingState {
	p := s.Primary()
	if p == nil || p.Node == nil || !p.Node.Up() || !s.QuorumAvailable() {
		return ServingDown
	}
	if p.Building(now) {
		if !p.restoring {
			return ServingDegraded
		}
		for _, r := range s.Replicas {
			if r != p && r.Node != nil && r.Node.Up() && !(r.Building(now) && r.restoring) {
				return ServingDegraded
			}
		}
		return ServingDown
	}
	return ServingHealthy
}

// newService builds a service and its replica shells (unplaced).
//
// The service struct, its replica structs, and the replica-pointer slice
// share one lifetime, so for the paper's two replica counts (1 for
// remote-store, 4 for local-store databases) they are packed into a
// single allocation: service churn is the dominant allocator in a
// simulated day, and this turns ~4 (or ~11) heap objects per service
// into 2 (or 5, counting the per-replica sortKey strings).
func newService(name string, replicaCount int, reservedCores float64, labels map[string]string, created time.Time) *Service {
	if replicaCount < 1 {
		panic(fmt.Sprintf("fabric: service %q with replica count %d", name, replicaCount))
	}
	var (
		s    *Service
		reps []Replica
	)
	switch replicaCount {
	case 1:
		b := new(struct {
			svc  Service
			reps [1]Replica
			ptrs [1]*Replica
		})
		s, reps = &b.svc, b.reps[:]
		s.Replicas = b.ptrs[:0]
	case 4:
		b := new(struct {
			svc  Service
			reps [4]Replica
			ptrs [4]*Replica
		})
		s, reps = &b.svc, b.reps[:]
		s.Replicas = b.ptrs[:0]
	default:
		s = new(Service)
		reps = make([]Replica, replicaCount)
		s.Replicas = make([]*Replica, 0, replicaCount)
	}
	s.Name = name
	s.Labels = labels
	s.ReplicaCount = replicaCount
	s.ReservedCoresPerReplica = reservedCores
	s.Created = created
	for i := range reps {
		role := Secondary
		if i == 0 {
			role = Primary
		}
		id := ReplicaID{Service: name, Index: i}
		reps[i] = Replica{
			ID:      id,
			Role:    role,
			Loads:   LoadVector{MetricCores: reservedCores},
			service: s,
			sortKey: id.String(),
		}
		s.Replicas = append(s.Replicas, &reps[i])
	}
	return s
}

// Primary returns the service's current primary replica.
func (s *Service) Primary() *Replica {
	for _, r := range s.Replicas {
		if r.Role == Primary {
			return r
		}
	}
	return nil // unreachable for a well-formed service
}

// TotalReservedCores returns the core reservation across all replicas.
func (s *Service) TotalReservedCores() float64 {
	return s.ReservedCoresPerReplica * float64(s.ReplicaCount)
}

// Alive reports whether the service has not been dropped.
func (s *Service) Alive() bool { return s.Dropped.IsZero() }

// Lifetime returns how long the service has existed as of now (or until
// it was dropped, if earlier).
func (s *Service) Lifetime(now time.Time) time.Duration {
	end := now
	if !s.Dropped.IsZero() && s.Dropped.Before(now) {
		end = s.Dropped
	}
	if end.Before(s.Created) {
		return 0
	}
	return end.Sub(s.Created)
}

// Node is one machine in the cluster. Capacities are "logical": the
// conservatively-set thresholds the PLB enforces, not the physical limits
// (§3.1).
type Node struct {
	// ID names the node ("node-0", ...).
	ID string
	// Capacity holds the node's logical capacity per metric, indexed by
	// MetricName. The PLB multiplies the cores capacity by the cluster's
	// density factor (§5: density 110% reserves more cores than logical
	// capacity).
	Capacity LoadVector

	// FaultDomain and UpgradeDomain are the node's topology coordinates:
	// which correlated-failure group (rack, power feed) and which
	// rolling-upgrade batch it belongs to. With no configured topology
	// every node is its own domain (both equal idx), which keeps all
	// domain-aware logic inert.
	FaultDomain   int
	UpgradeDomain int

	// idx is the node's position in the cluster's node slice; the PLB
	// uses it to key per-node scratch tables (cached capacities, cost
	// memos) without map lookups.
	idx int

	replicas map[ReplicaID]*Replica
	// down marks the node as drained for maintenance or crashed (see
	// maintenance.go and faults.go).
	down bool
	// quarantinedUntil excludes a recently-flapped node from placement
	// and failover targets until the given instant. Only the degraded-mode
	// restart path ever sets it, so the zero value keeps the no-chaos
	// decision stream untouched.
	quarantinedUntil time.Time
	// lastReport is the last simulated time any replica on this node
	// reported a load. The degraded-mode PLB stops trusting a node's
	// last-known-good loads once this is older than the staleness timeout.
	lastReport time.Time
	// totals caches the aggregate load per metric, maintained on
	// attach/detach/report. Summing the replica map on demand would make
	// the floating-point result depend on map iteration order, breaking
	// bit-for-bit run reproducibility (§5.2); the running total follows
	// deterministic event order.
	totals LoadVector
	// overSince holds, per metric, the Seq of the "capacity-crossed"
	// annotation recorded when a load report pushed the node over its
	// enforced capacity (0 while under capacity, or when no journal is
	// attached). The PLB's violation anchor chains to it, linking
	// load report → violation → failover in the causal journal.
	overSince [NumMetrics]uint64
}

func newNode(id string, idx int, capacity LoadVector) *Node {
	return &Node{
		ID:       id,
		idx:      idx,
		Capacity: capacity,
		replicas: make(map[ReplicaID]*Replica),
	}
}

// Load returns the node's aggregate reported load for metric m.
func (n *Node) Load(m MetricName) float64 {
	if !m.Valid() {
		return 0
	}
	v := n.totals[m]
	if v < 0 {
		// Guard against floating-point residue from repeated +=/-=.
		return 0
	}
	return v
}

// applyLoadDelta adjusts the cached total when a replica's reported load
// for metric m changes by delta.
func (n *Node) applyLoadDelta(m MetricName, delta float64) {
	n.totals[m] += delta
}

// Index returns the node's position in Cluster.Nodes, a dense handle for
// per-node side tables.
func (n *Node) Index() int { return n.idx }

// ReplicaCount returns the number of replicas currently on the node.
func (n *Node) ReplicaCount() int { return len(n.replicas) }

// Replicas returns the replicas on the node (order unspecified).
func (n *Node) Replicas() []*Replica {
	out := make([]*Replica, 0, len(n.replicas))
	for _, r := range n.replicas {
		out = append(out, r)
	}
	return out
}

// attach places replica r on the node.
func (n *Node) attach(r *Replica) {
	n.replicas[r.ID] = r
	r.Node = n
	for m := range r.Loads {
		n.totals[m] += r.Loads[m]
	}
}

// detach removes replica r from the node.
func (n *Node) detach(r *Replica) {
	if _, present := n.replicas[r.ID]; present {
		for m := range r.Loads {
			n.totals[m] -= r.Loads[m]
		}
	}
	delete(n.replicas, r.ID)
	if r.Node == n {
		r.Node = nil
	}
}
