// Package controlplane implements the public CRUD surface of the
// database service for one tenant ring: database create and drop requests
// with admission control. When the ring cannot reserve the cores a
// creation needs, the request is redirected to another tenant ring
// (paper §5.3.1) — in this single-ring benchmark the redirect is recorded
// and the database simply does not land here, exactly as the measured
// cluster would experience it.
package controlplane

import (
	"errors"
	"fmt"

	"toto/internal/fabric"
	"toto/internal/slo"
)

// ErrRedirected is returned when a creation request could not be admitted
// and was redirected to another tenant ring.
var ErrRedirected = errors.New("controlplane: creation redirected to another tenant ring")

// Labels the control plane stamps onto fabric services so downstream
// consumers (telemetry, RgManager wiring) can recover database metadata.
const (
	LabelEdition = "edition"
	LabelSLO     = "slo"
)

// RedirectFunc observes a creation redirect.
type RedirectFunc func(db string, s slo.SLO)

// DropPolicy chooses which live database to drop for a sampled drop
// event; it returns the database name or "" when none is eligible.
type DropPolicy func(edition slo.Edition) string

// ControlPlane fronts one cluster with CRUD APIs.
type ControlPlane struct {
	cluster    *fabric.Cluster
	catalog    *slo.Catalog
	onRedirect []RedirectFunc
}

// New builds a control plane over cluster using catalog for SLO lookups.
func New(cluster *fabric.Cluster, catalog *slo.Catalog) *ControlPlane {
	return &ControlPlane{cluster: cluster, catalog: catalog}
}

// OnRedirect registers a redirect observer.
func (cp *ControlPlane) OnRedirect(fn RedirectFunc) {
	cp.onRedirect = append(cp.onRedirect, fn)
}

// Catalog returns the SLO catalog.
func (cp *ControlPlane) Catalog() *slo.Catalog { return cp.catalog }

// CreateDatabase admits and places a database named db with the given
// SLO. Placement is blind to the database's eventual disk usage — the
// orchestrator learns a new database's size only from later metric
// reports, which is exactly how a restore-heavy database ends up
// ballooning on a nearly full node and forcing failovers (§5.3.2). On
// capacity exhaustion it records a redirect and returns ErrRedirected.
func (cp *ControlPlane) CreateDatabase(db string, sloName string) (*fabric.Service, error) {
	return cp.create(db, sloName, 0)
}

// CreateDatabaseSeeded is CreateDatabase for bootstrap populations whose
// disk usage is initialized up front (§5.2): the operator knows the
// seeded sizes, so the PLB places with them visible and the cluster
// starts balanced.
func (cp *ControlPlane) CreateDatabaseSeeded(db string, sloName string, initialDiskGB float64) (*fabric.Service, error) {
	return cp.create(db, sloName, initialDiskGB)
}

func (cp *ControlPlane) create(db string, sloName string, initialDiskGB float64) (*fabric.Service, error) {
	s, ok := cp.catalog.Lookup(sloName)
	if !ok {
		return nil, fmt.Errorf("controlplane: unknown SLO %q", sloName)
	}
	if initialDiskGB > s.MaxDiskGB {
		initialDiskGB = s.MaxDiskGB
	}
	labels := map[string]string{
		LabelEdition: s.Edition.String(),
		LabelSLO:     s.Name,
	}
	var loads map[fabric.MetricName]float64
	if initialDiskGB > 0 {
		loads = map[fabric.MetricName]float64{fabric.MetricDiskGB: initialDiskGB}
	}
	svc, err := cp.cluster.CreateServiceWithLoads(db, s.Edition.ReplicaCount(), float64(s.Cores), labels, loads)
	if err != nil {
		if errors.Is(err, fabric.ErrInsufficientCores) {
			for _, fn := range cp.onRedirect {
				fn(db, s)
			}
			return nil, fmt.Errorf("%w: %s (%s)", ErrRedirected, db, s.Name)
		}
		return nil, err
	}
	return svc, nil
}

// ScaleDatabase changes a database's SLO within its edition (a customer
// scale-up or scale-down). The fabric applies the new core reservation,
// moving replicas off full nodes when necessary; the returned outcome
// carries the §5.4 scale-up latency.
func (cp *ControlPlane) ScaleDatabase(db string, newSLOName string) (fabric.ResizeOutcome, slo.SLO, error) {
	svc, ok := cp.cluster.Service(db)
	if !ok || !svc.Alive() {
		return fabric.ResizeOutcome{}, slo.SLO{}, fmt.Errorf("controlplane: no such database %q", db)
	}
	next, ok := cp.catalog.Lookup(newSLOName)
	if !ok {
		return fabric.ResizeOutcome{}, slo.SLO{}, fmt.Errorf("controlplane: unknown SLO %q", newSLOName)
	}
	current, err := cp.ServiceSLO(svc)
	if err != nil {
		return fabric.ResizeOutcome{}, slo.SLO{}, err
	}
	if next.Edition != current.Edition || next.Pool != current.Pool {
		return fabric.ResizeOutcome{}, slo.SLO{}, fmt.Errorf(
			"controlplane: cannot scale %s from %s to %s (edition/pool change)", db, current.Name, next.Name)
	}
	outcome, err := cp.cluster.ResizeService(db, float64(next.Cores))
	if err != nil {
		return outcome, slo.SLO{}, err
	}
	svc.Labels[LabelSLO] = next.Name
	return outcome, next, nil
}

// DropDatabase removes a database.
func (cp *ControlPlane) DropDatabase(db string) error {
	return cp.cluster.DropService(db)
}

// ServiceSLO recovers the SLO of a placed service from its labels.
func (cp *ControlPlane) ServiceSLO(svc *fabric.Service) (slo.SLO, error) {
	name := svc.Labels[LabelSLO]
	s, ok := cp.catalog.Lookup(name)
	if !ok {
		return slo.SLO{}, fmt.Errorf("controlplane: service %s has unknown SLO label %q", svc.Name, name)
	}
	return s, nil
}

// ServiceEdition recovers the edition of a placed service.
func ServiceEdition(svc *fabric.Service) (slo.Edition, error) {
	label := svc.Labels[LabelEdition]
	for _, e := range slo.Editions() {
		if e.String() == label {
			return e, nil
		}
	}
	return 0, fmt.Errorf("controlplane: service %s has unknown edition label %q", svc.Name, label)
}

// LiveDatabases appends to dst the names of live databases of the given
// edition (or all editions when edition is nil), in sorted order, and
// returns the extended slice. A caller that passes the same buffer back,
// truncated to length 0, allocates nothing once it has reached the live
// population's size.
func (cp *ControlPlane) LiveDatabases(dst []string, edition *slo.Edition) []string {
	cp.cluster.EachLiveService(func(svc *fabric.Service) {
		if edition != nil {
			e, err := ServiceEdition(svc)
			if err != nil || e != *edition {
				return
			}
		}
		dst = append(dst, svc.Name)
	})
	return dst
}
