// Package pools implements Elastic Pools — the multi-tenancy offering
// the paper lists as its environment-accuracy extension (§5.5: "other
// offerings such as Elastic Pools (which allow for multi-tenancy inside
// a single SQL DB instance) will add to environment accuracy").
//
// An elastic pool is one SQL instance (one fabric service with a pool
// SLO) whose core reservation and storage quota are shared by many
// member databases. Members are not fabric services: they exist only in
// the pool registry and in the disk models — the cluster sees a single
// replica set whose reported disk is the sum of its members' modeled
// usage. That is exactly the efficiency proposition the paper's density
// study prices: more customer databases per reserved core.
package pools

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"toto/internal/controlplane"
	"toto/internal/fabric"
	"toto/internal/slo"
)

// ErrPoolFull is returned when a pool has reached its SLO's member cap.
var ErrPoolFull = errors.New("pools: pool is at its member cap")

// ErrNoSuchPool is returned for operations on unknown pools.
var ErrNoSuchPool = errors.New("pools: no such pool")

// ErrNoSuchMember is returned when removing a database that is not a
// member of the named pool.
var ErrNoSuchMember = errors.New("pools: no such member")

// LabelPool marks a fabric service as an elastic pool.
const LabelPool = "pool"

// Member is one database living inside a pool.
type Member struct {
	// DB is the member database name.
	DB string
	// Added is when the member joined the pool.
	Added time.Time
	// MaxDiskGB caps the member's modeled disk usage.
	MaxDiskGB float64
}

// Pool tracks one elastic pool's membership.
type Pool struct {
	// Name is the pool's service name.
	Name string
	// SLO is the pool's purchased configuration.
	SLO slo.SLO
	// Created is the pool's creation time.
	Created time.Time

	members map[string]Member
}

// Members returns the pool's members sorted by name.
func (p *Pool) Members() []Member {
	out := make([]Member, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DB < out[j].DB })
	return out
}

// HasRoom reports whether another member fits under the SLO cap.
func (p *Pool) HasRoom() bool { return len(p.members) < p.SLO.MaxMemberDBs }

// Manager owns the pool registry of one cluster and fronts pool CRUD.
type Manager struct {
	cp    *controlplane.ControlPlane
	pools map[string]*Pool
	// memberPool maps a member database name to its pool name.
	memberPool map[string]string
	seq        int
}

// NewManager builds a pool manager over a control plane.
func NewManager(cp *controlplane.ControlPlane) *Manager {
	return &Manager{
		cp:         cp,
		pools:      make(map[string]*Pool),
		memberPool: make(map[string]string),
	}
}

// CreatePool provisions an elastic pool: one fabric service reserving
// the pool SLO's cores, admitted (or redirected) exactly like a database
// creation.
func (m *Manager) CreatePool(name, sloName string) (*Pool, error) {
	s, ok := m.cp.Catalog().Lookup(sloName)
	if !ok || !s.Pool {
		return nil, fmt.Errorf("pools: %q is not a pool SLO", sloName)
	}
	if _, exists := m.pools[name]; exists {
		return nil, fmt.Errorf("pools: pool %q already exists", name)
	}
	svc, err := m.cp.CreateDatabase(name, sloName)
	if err != nil {
		return nil, err
	}
	svc.Labels[LabelPool] = "true"
	p := &Pool{
		Name:    name,
		SLO:     s,
		Created: svc.Created,
		members: make(map[string]Member),
	}
	m.pools[name] = p
	return p, nil
}

// AddMember places a database into a pool. The member consumes no
// cluster cores of its own — that is the pooling economics — but its
// modeled disk usage counts against the pool's reported load.
func (m *Manager) AddMember(pool, db string, maxDiskGB float64, now time.Time) error {
	p, ok := m.pools[pool]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchPool, pool)
	}
	if !p.HasRoom() {
		return fmt.Errorf("%w: %s (%d members)", ErrPoolFull, pool, len(p.members))
	}
	if existing, taken := m.memberPool[db]; taken {
		return fmt.Errorf("pools: %s is already a member of %s", db, existing)
	}
	p.members[db] = Member{DB: db, Added: now, MaxDiskGB: maxDiskGB}
	m.memberPool[db] = pool
	return nil
}

// RemoveMember drops a database from its pool.
func (m *Manager) RemoveMember(pool, db string) error {
	p, ok := m.pools[pool]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchPool, pool)
	}
	if _, ok := p.members[db]; !ok {
		return fmt.Errorf("%w: %s in %s", ErrNoSuchMember, db, pool)
	}
	delete(p.members, db)
	delete(m.memberPool, db)
	return nil
}

// Pool returns a pool by name.
func (m *Manager) Pool(name string) (*Pool, bool) {
	p, ok := m.pools[name]
	return p, ok
}

// Pools returns all pools sorted by name.
func (m *Manager) Pools() []*Pool {
	out := make([]*Pool, 0, len(m.pools))
	for _, p := range m.pools {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PoolWithRoom returns the first pool (by name) of the given edition
// with member capacity left, or "" when none has room.
func (m *Manager) PoolWithRoom(e slo.Edition) string {
	for _, p := range m.Pools() {
		if p.SLO.Edition == e && p.HasRoom() {
			return p.Name
		}
	}
	return ""
}

// NextPoolName returns a fresh deterministic pool name.
func (m *Manager) NextPoolName(e slo.Edition) string {
	m.seq++
	slug := "gp"
	if e == slo.PremiumBC {
		slug = "bc"
	}
	return fmt.Sprintf("pool-%s-%03d", slug, m.seq)
}

// IsPoolService reports whether a fabric service is an elastic pool.
func IsPoolService(svc *fabric.Service) bool { return svc.Labels[LabelPool] == "true" }

// MemberRef identifies one member database and its pool.
type MemberRef struct {
	Pool string
	DB   string
}

// MembersByEdition returns every member of every pool of edition e, in a
// stable (pool, db) order — the deterministic candidate list drop
// sampling indexes into.
func (m *Manager) MembersByEdition(e slo.Edition) []MemberRef {
	var out []MemberRef
	for _, p := range m.Pools() {
		if p.SLO.Edition != e {
			continue
		}
		for _, mem := range p.Members() {
			out = append(out, MemberRef{Pool: p.Name, DB: mem.DB})
		}
	}
	return out
}
