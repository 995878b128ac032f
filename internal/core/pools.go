package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"toto/internal/fabric"
	"toto/internal/population"
	"toto/internal/rgmanager"
	"toto/internal/slo"
)

// Elastic pools are the multi-tenancy offering the paper lists as its
// environment-accuracy extension (§5.5: "other offerings such as Elastic
// Pools (which allow for multi-tenancy inside a single SQL DB instance)
// will add to environment accuracy").
//
// A pool is one fabric service with a pool SLO whose core reservation
// and storage quota its member databases share. Members are not fabric
// services: each lives only in its pool's dbEntry.members and in the disk
// models, so the cluster sees one replica set whose reported disk is the
// sum of its members' modeled usage. That entry is the only pool
// registry: dropping the pool's service retires the entry and its
// members with it.

// labelPool marks a fabric service as an elastic pool, so label readers
// such as the traffic plane's request classes can select pools.
const labelPool = "pool"

var (
	errNoSuchPool   = errors.New("core: no such pool")
	errPoolFull     = errors.New("core: pool is at its member cap")
	errNoSuchMember = errors.New("core: no such pool member")
)

// CreatePool provisions an elastic pool: one fabric service reserving the
// pool SLO's cores, admitted (or redirected) exactly like a database
// creation, with room for the SLO's MaxMemberDBs members.
func (o *Orchestrator) CreatePool(name, sloName string) error {
	sl, ok := o.Control.Catalog().Lookup(sloName)
	if !ok || !sl.Pool || sl.MaxMemberDBs < 1 {
		return fmt.Errorf("core: %q is not a pool SLO that admits members", sloName)
	}
	svc, err := o.Control.CreateDatabase(name, sloName)
	if err != nil {
		return err
	}
	svc.Labels[labelPool] = "true"
	o.registerDB(svc, sl)
	o.entry(svc).poolCap = sl.MaxMemberDBs
	o.poolsCreated++
	return nil
}

// AddPoolMember places a member database into a live pool with room and
// seeds its initial reported disk. The member reserves no cluster cores
// of its own, which is the pooling economics, but its modeled disk counts
// against the pool's reported load. A database joins at most one pool.
func (o *Orchestrator) AddPoolMember(pool, db string, maxDiskGB, initialDiskGB float64) error {
	e := o.poolNamed(pool)
	if e == nil {
		return fmt.Errorf("%w: %s", errNoSuchPool, pool)
	}
	if len(e.members) >= e.poolCap {
		return fmt.Errorf("%w: %s (%d members)", errPoolFull, pool, len(e.members))
	}
	var taken string
	o.eachPool(func(p *dbEntry) {
		if _, ok := slices.BinarySearchFunc(p.members, db, cmpDBName); ok {
			taken = p.svc.Name
		}
	})
	if taken != "" {
		return fmt.Errorf("core: %s is already a member of %s", db, taken)
	}
	member := &rgmanager.DBInfo{Name: db, Edition: e.info.Edition, Created: o.Clock.Now(), MaxDiskGB: maxDiskGB}
	i, _ := slices.BinarySearchFunc(e.members, db, cmpDBName)
	e.members = slices.Insert(e.members, i, member)
	if initialDiskGB > maxDiskGB && maxDiskGB > 0 {
		initialDiskGB = maxDiskGB
	}
	for _, rep := range e.svc.Replicas {
		if rep.Node == nil {
			continue
		}
		o.managers[rep.Node.Index()].SeedMemberLoad(rep, &e.info, member, initialDiskGB)
	}
	return nil
}

// RemovePoolMember drops a member database from its pool and clears its
// persisted state.
func (o *Orchestrator) RemovePoolMember(pool, db string) error {
	e := o.poolNamed(pool)
	if e == nil {
		return fmt.Errorf("%w: %s", errNoSuchPool, pool)
	}
	i, ok := slices.BinarySearchFunc(e.members, db, cmpDBName)
	if !ok {
		return fmt.Errorf("%w: %s in %s", errNoSuchMember, db, pool)
	}
	e.members = slices.Delete(e.members, i, i+1)
	rgmanager.ClearPersisted(o.Cluster.Naming(), db)
	return nil
}

// cmpDBName orders pool members by name, the order their disks sum in.
func cmpDBName(info *rgmanager.DBInfo, db string) int { return strings.Compare(info.Name, db) }

// poolNamed returns the entry of the live pool named name, or nil.
func (o *Orchestrator) poolNamed(name string) *dbEntry {
	if e := o.entryNamed(name); e != nil && e.poolCap > 0 {
		return e
	}
	return nil
}

// eachPool calls fn with the entry of every live pool, in name order.
func (o *Orchestrator) eachPool(fn func(*dbEntry)) {
	o.Cluster.EachLiveService(func(svc *fabric.Service) {
		if e := o.entry(svc); e != nil && e.poolCap > 0 {
			fn(e)
		}
	})
}

// poolOps adapts the orchestrator to the Population Manager's pool
// surface.
type poolOps struct{ o *Orchestrator }

// EnsurePoolWithRoom returns the first live pool (by name) of edition e
// with member room, or else provisions pool-<edition>-NNN with sloName.
// NNN counts provisioning attempts, redirected ones included.
func (p poolOps) EnsurePoolWithRoom(e slo.Edition, sloName string) (string, error) {
	var name string
	p.o.eachPool(func(pool *dbEntry) {
		if name == "" && pool.info.Edition == e && len(pool.members) < pool.poolCap {
			name = pool.svc.Name
		}
	})
	if name != "" {
		return name, nil
	}
	p.o.poolSeq++
	name = fmt.Sprintf("pool-%s-%03d", editionSlug(e), p.o.poolSeq)
	if err := p.o.CreatePool(name, sloName); err != nil {
		return "", err
	}
	return name, nil
}

func (p poolOps) AddMember(pool, db string, maxDiskGB, initialDiskGB float64) error {
	return p.o.AddPoolMember(pool, db, maxDiskGB, initialDiskGB)
}

// Members lists the members of every live pool of edition e, by pool
// name and then member name: the candidate list drop sampling indexes
// into.
func (p poolOps) Members(e slo.Edition) []population.MemberRef {
	var out []population.MemberRef
	p.o.eachPool(func(pool *dbEntry) {
		if pool.info.Edition != e {
			return
		}
		for _, m := range pool.members {
			out = append(out, population.MemberRef{Pool: pool.svc.Name, DB: m.Name})
		}
	})
	return out
}

func (p poolOps) RemoveMember(pool, db string) error { return p.o.RemovePoolMember(pool, db) }
