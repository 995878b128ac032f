// Package rgmanager implements the per-node resource-governance helper
// service of Azure SQL DB (paper §3.2) with Toto's model-injection hook
// built in (§3.3.1-3.3.2).
//
// One Manager runs on every cluster node. When a SQL replica needs to
// report its metric loads to the PLB it consults the co-located Manager;
// with Toto enabled, the Manager computes the value from declarative
// models instead of the replica's actual usage. Models arrive as XML
// through the Naming Service and are re-read every refresh interval
// (15 minutes by default), so behaviour can be reconfigured mid-benchmark
// by overwriting one key. The XML is decoded once per distinct blob in
// the process (models.DecodeShared, behind the Naming Service's
// per-version memo), so every node's Manager, and every cluster in the
// process that reads the same bytes, shares one read-only decoded set.
//
// Persisted metrics (local-store disk) round-trip the previously reported
// value through the Naming Service, stored there as a number entry (no
// text encoding or parse on the report path): only the primary replica
// executes the model and writes the new value back; secondaries just read
// and report it. On failover the newly promoted primary therefore
// continues from exactly the disk usage the old primary last reported —
// production behaviour for Premium/BC databases. Non-persisted metrics
// (remote-store tempDB disk, memory) live in the Manager's process
// memory, so a replica landing on a new node starts cold, which is also
// production behaviour.
//
// Reports address their state by handle, never by name. Process memory is
// one Store per cluster holding one record per live replica, indexed by the
// service's slot and the replica's index and tagged with the node and
// incarnation that wrote it. Per-database derivations (the hash keys the
// models draw from and the Naming key of the persisted load) are cached
// on the caller's DBInfo. Everything cached is recomputable from the
// model seed, the node seeds, the database and the Naming Service, so the
// Managers stay stateless in the paper's sense.
package rgmanager

import (
	"fmt"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/slo"
)

// DBInfo is the database metadata a Manager needs to evaluate models for
// one replica. The caller (Toto's orchestrator) owns one DBInfo per
// database for the database's life and passes it by pointer: the Managers
// cache on it what they derive from the name — the Naming key of the
// persisted disk load, the model-seed key (derived again if the model seed
// changes) and, for an elastic-pool member, the member's tempDB state on
// each pool replica. A DBInfo must not be shared between clusters.
type DBInfo struct {
	// Name is the database name (equals the fabric service name).
	Name string
	// Edition selects which per-edition model applies.
	Edition slo.Edition
	// Created is the database creation time (growth phases key off it).
	Created time.Time
	// MaxDiskGB caps reported disk at the SLO's maximum allowable size.
	MaxDiskGB float64
	// MaxMemoryGB caps reported memory at the SLO's DRAM allotment.
	MaxMemoryGB float64

	loadKey string       // Naming key of the persisted disk load; "" until first use
	keyed   bool         // key holds NewDBKey(seed, Name)
	seed    uint64       // the model seed key was derived from
	key     models.DBKey // the model-seed key persisted metrics draw from
	tempDB  []record     // pool member: tempDB disk per pool replica index
}

// namingKey returns the Naming Service key holding the database's
// persisted disk load, building it on first use.
func (info *DBInfo) namingKey() string {
	if info.loadKey == "" {
		info.loadKey = loadNamingKey(info.Name)
	}
	return info.loadKey
}

// modelKey returns NewDBKey(seed, info.Name), deriving it only when the
// model seed differs from the one it was last derived from.
func (info *DBInfo) modelKey(seed uint64) models.DBKey {
	if !info.keyed || info.seed != seed {
		info.key, info.seed, info.keyed = models.NewDBKey(seed, info.Name), seed, true
	}
	return info.key
}

// record is the in-memory (non-persisted) load state of one replica, as
// one node's Manager last wrote it.
type record struct {
	live bool         // written since the last eviction
	node int          // index of the node whose Manager wrote it
	inc  int          // the replica incarnation it belongs to
	key  models.DBKey // NewDBKey(node seed, database)
	disk float64      // tempDB disk (remote-store editions)
	mem  float64      // buffer-pool memory
}

// Store is the process memory of one cluster's Managers: one record per
// live replica, indexed by the replica's service slot (fabric.Service.Slot)
// and replica index. Production keeps this state inside each node's
// RgManager process (§3.3.2); one table reproduces that exactly because
// every record carries the node and incarnation that wrote it. A replica
// is only ever reported by the Manager of the node hosting it, every move
// bumps its incarnation, and a Manager that finds any other tag starts the
// replica cold, as a fresh process would. A store serves one cluster and
// is not safe for concurrent use.
type Store struct {
	slots []slotRecords

	cEvictions *obs.Counter // rgmanager.evictions
}

// slotRecords holds the records of the service occupying one slot. Slots
// recycle, so svc guards them: a new service finds no records.
type slotRecords struct {
	svc  *fabric.Service
	reps []record
}

// NewStore returns an empty store; o (nil disables) counts evictions.
func NewStore(o *obs.Obs) *Store {
	return &Store{cEvictions: o.Counter("rgmanager.evictions")}
}

// at returns rep's record slot, claiming the service's slot for it if the
// slot still holds a previous service's records.
func (s *Store) at(rep *fabric.Replica) *record {
	svc := rep.Service()
	i := svc.Slot()
	if i >= len(s.slots) {
		s.slots = append(s.slots, make([]slotRecords, i+1-len(s.slots))...)
	}
	sl := &s.slots[i]
	if sl.svc != svc {
		sl.svc = svc
		sl.reps = append(sl.reps[:0], make([]record, len(svc.Replicas))...)
	}
	return &sl.reps[rep.ID.Index]
}

// Evict drops the in-memory state a replica incarnation left behind. The
// orchestrator calls it when the replica leaves a node; the record is
// found by handle, so eviction is O(1). Forgetting to evict is safe for
// correctness — the next report finds a stale tag and starts cold — but
// it keeps state proportional to the live replicas.
func (s *Store) Evict(rep *fabric.Replica, incarnation int) {
	s.cEvictions.Inc()
	svc := rep.Service()
	if i := svc.Slot(); i < len(s.slots) && s.slots[i].svc == svc {
		if r := &s.slots[i].reps[rep.ID.Index]; r.inc == incarnation {
			*r = record{}
		}
	}
}

// Drop drops the in-memory state of every replica of a dropped service.
// The pool members' tempDB state lives on their DBInfos and goes with
// them.
func (s *Store) Drop(svc *fabric.Service) {
	s.cEvictions.Inc()
	if i := svc.Slot(); i < len(s.slots) && s.slots[i].svc == svc {
		clear(s.slots[i].reps)
		s.slots[i].svc = nil
	}
}

// Manager is the RgManager instance of one node.
type Manager struct {
	nodeID   string
	node     int
	naming   *fabric.NamingService
	store    *Store
	nodeSeed uint64

	set *models.ModelSet

	// Registry counters, shared by every node's Manager via the
	// registry's get-or-create semantics; nil (free no-ops) when the
	// observability layer is off.
	cRefreshes   *obs.Counter // rgmanager.model_refreshes
	cDiskReports *obs.Counter // rgmanager.disk_reports
	cMemReports  *obs.Counter // rgmanager.memory_reports
}

// New returns the Manager for node, reading models from naming and
// keeping its process memory in store, which every Manager of the
// cluster shares. nodeSeed is this node's unique random seed (§5.2: "a
// unique seed was provided to every node"); it drives sampling for
// non-persisted metrics, whose values reset on failover anyway. Persisted
// metrics sample from the model set's global seed so a newly promoted
// primary on another node continues the same sequence.
func New(node *fabric.Node, naming *fabric.NamingService, store *Store, nodeSeed uint64) *Manager {
	return &Manager{
		nodeID:   node.ID,
		node:     node.Index(),
		naming:   naming,
		store:    store,
		nodeSeed: nodeSeed,
	}
}

// SetObs attaches the observability layer's counters (nil disables at
// zero cost). All node Managers share the same registry handles.
func (m *Manager) SetObs(o *obs.Obs) {
	m.cRefreshes = o.Counter("rgmanager.model_refreshes")
	m.cDiskReports = o.Counter("rgmanager.disk_reports")
	m.cMemReports = o.Counter("rgmanager.memory_reports")
}

// NodeID returns the node this Manager governs.
func (m *Manager) NodeID() string { return m.nodeID }

// Models returns the currently loaded model set (nil before the first
// successful Refresh). It is shared with every reader of the same XML
// bytes in the process, other clusters' Managers included, and must not
// be modified.
func (m *Manager) Models() *models.ModelSet { return m.set }

// Refresh re-reads the models from the Naming Service. It is scheduled
// every refresh interval by the orchestrator. Only the first reader of
// each stored version decodes (fabric.Decoded), and it gets the
// process-wide parse of those bytes (models.DecodeShared), so the set it
// installs is shared read-only across clusters. A missing key clears the
// models (normal operating behaviour resumes); a malformed blob returns
// an error and leaves the previous models active.
func (m *Manager) Refresh() error {
	m.cRefreshes.Inc()
	set, ok, err := fabric.Decoded(m.naming, models.NamingKey, models.DecodeShared)
	switch {
	case !ok:
		m.set = nil
	case err != nil:
		return fmt.Errorf("rgmanager %s: %w", m.nodeID, err)
	default:
		m.set = set
	}
	return nil
}

// claim returns r as this node's record of rep's current incarnation,
// starting it cold (zero loads, keyed by this node's seed) unless it
// already is one.
func (m *Manager) claim(r *record, rep *fabric.Replica, db string) *record {
	if !r.live || r.node != m.node || r.inc != rep.Incarnation {
		*r = record{live: true, node: m.node, inc: rep.Incarnation, key: models.NewDBKey(m.nodeSeed, db)}
	}
	return r
}

// replicaState returns rep's in-memory state on this node.
func (m *Manager) replicaState(rep *fabric.Replica, info *DBInfo) *record {
	return m.claim(m.store.at(rep), rep, info.Name)
}

// memberState returns a pool member's in-memory state under pool replica
// rep on this node.
func (m *Manager) memberState(rep *fabric.Replica, member *DBInfo) *record {
	if n := len(rep.Service().Replicas); len(member.tempDB) < n {
		member.tempDB = append(member.tempDB, make([]record, n-len(member.tempDB))...)
	}
	return m.claim(&member.tempDB[rep.ID.Index], rep, member.Name)
}

// loadNamingKey is the Naming Service key holding the persisted disk load
// of one database.
func loadNamingKey(db string) string { return "toto/load/" + db + "/diskGB" }

// persistedLoad reads the durable previously-reported disk value of db
// (0 when none is stored). It is one counted Naming read.
func (m *Manager) persistedLoad(db *DBInfo) float64 {
	v, _ := m.naming.Float(db.namingKey())
	return v
}

// persistLoad durably stores the reported disk value of db as a number
// entry; a reader of its bytes sees the shortest decimal form that parses
// back to v (the bytes fmt's %g writes).
func (m *Manager) persistLoad(db *DBInfo, v float64) {
	m.naming.PutFloat(db.namingKey(), v)
}

// ClearPersisted removes db's durable load entry (called when the
// database is dropped).
func ClearPersisted(naming *fabric.NamingService, db string) {
	naming.Delete(loadNamingKey(db))
}

// SeedLoad primes the previously-reported disk value of a replica, used
// when bootstrapping an initial population with non-zero disk usage
// (§5.2: "Upon creation of each database in the initial population, the
// disk usage was initialized"). A persisted disk writes through to the
// Naming Service.
func (m *Manager) SeedLoad(rep *fabric.Replica, info *DBInfo, diskGB float64) {
	persisted := info.Edition.LocalStore()
	if m.set != nil {
		dm, ok := m.set.Disk[info.Edition]
		persisted = ok && dm.Persisted
	}
	if persisted {
		m.persistLoad(info, diskGB)
		return
	}
	m.replicaState(rep, info).disk = diskGB
}

// ReportDisk computes the disk load the given replica should report to
// the PLB. ok is false when no model covers this database's disk metric,
// in which case the replica reports its actual usage (the normal,
// non-benchmark path, §3.3.1).
func (m *Manager) ReportDisk(rep *fabric.Replica, info *DBInfo, now time.Time) (value float64, ok bool) {
	m.cDiskReports.Inc()
	if m.set == nil {
		return 0, false
	}
	dm, exists := m.set.Disk[info.Edition]
	if !exists {
		return 0, false
	}

	if dm.Persisted {
		prev := m.persistedLoad(info)
		if m.set.Frozen {
			return prev, true
		}
		if rep.Role == fabric.Secondary {
			// Secondaries report the durable value without executing the
			// model (§3.3.2): local-store secondaries hold a data copy
			// whose size tracks the primary's.
			return prev, true
		}
		next := dm.Next(models.EvalContext{
			Key:     info.modelKey(m.set.Seed),
			Created: info.Created,
			Now:     now,
			Prev:    prev,
			MaxGB:   info.MaxDiskGB,
		})
		m.persistLoad(info, next)
		return next, true
	}

	r := m.replicaState(rep, info) // a fresh incarnation starts at zero: tempDB was lost
	if m.set.Frozen {
		return r.disk, true
	}
	r.disk = dm.Next(models.EvalContext{
		Key:     r.key,
		Created: info.Created,
		Now:     now,
		Prev:    r.disk,
		MaxGB:   info.MaxDiskGB,
	})
	return r.disk, true
}

// ReportPoolDisk computes the disk load an elastic pool's replica should
// report: the sum of every member database's modeled usage, capped at
// the pool SLO's storage quota. Each member is evaluated exactly like a
// standalone database of the pool's edition — persisted members keep
// their own durable entries in the Naming Service, non-persisted members
// keep per-member in-memory state under the pool replica's incarnation
// (so a pool failover resets the members' tempDB usage together, as one
// SQL instance would). members must keep a stable order between reports.
func (m *Manager) ReportPoolDisk(rep *fabric.Replica, pool *DBInfo, members []*DBInfo, now time.Time) (value float64, ok bool) {
	m.cDiskReports.Inc()
	if m.set == nil {
		return 0, false
	}
	dm, exists := m.set.Disk[pool.Edition]
	if !exists {
		return 0, false
	}
	total := 0.0
	for _, member := range members {
		if dm.Persisted {
			prev := m.persistedLoad(member)
			if m.set.Frozen || rep.Role == fabric.Secondary {
				total += prev
				continue
			}
			next := dm.Next(models.EvalContext{
				Key:     member.modelKey(m.set.Seed),
				Created: member.Created,
				Now:     now,
				Prev:    prev,
				MaxGB:   member.MaxDiskGB,
			})
			m.persistLoad(member, next)
			total += next
			continue
		}
		r := m.memberState(rep, member)
		if !m.set.Frozen {
			r.disk = dm.Next(models.EvalContext{
				Key:     r.key,
				Created: member.Created,
				Now:     now,
				Prev:    r.disk,
				MaxGB:   member.MaxDiskGB,
			})
		}
		total += r.disk
	}
	if pool.MaxDiskGB > 0 && total > pool.MaxDiskGB {
		total = pool.MaxDiskGB
	}
	return total, true
}

// SeedMemberLoad primes one pool member's previously-reported disk value.
func (m *Manager) SeedMemberLoad(rep *fabric.Replica, pool *DBInfo, member *DBInfo, value float64) {
	persisted := pool.Edition.LocalStore()
	if m.set != nil {
		if dm, ok := m.set.Disk[pool.Edition]; ok {
			persisted = dm.Persisted
		}
	}
	if persisted {
		m.persistLoad(member, value)
		return
	}
	m.memberState(rep, member).disk = value
}

// ReportMemory computes the memory load the replica should report, with
// the same contract as ReportDisk. Memory is always non-persisted: a
// newly placed replica has a cold buffer pool (§3.3.2).
func (m *Manager) ReportMemory(rep *fabric.Replica, info *DBInfo, now time.Time) (value float64, ok bool) {
	m.cMemReports.Inc()
	if m.set == nil {
		return 0, false
	}
	mm, exists := m.set.Memory[info.Edition]
	if !exists {
		return 0, false
	}
	r := m.replicaState(rep, info)
	if m.set.Frozen {
		return r.mem, true
	}
	ctx := models.EvalContext{
		Key:     r.key,
		Created: info.Created,
		Now:     now,
		Prev:    r.mem,
		MaxGB:   info.MaxMemoryGB,
	}
	if rep.Role == fabric.Secondary {
		// Secondaries of local-store databases warm smaller buffer pools
		// than the query-serving primary (§3.3.2).
		r.mem = mm.NextSecondary(ctx)
	} else {
		r.mem = mm.Next(ctx)
	}
	return r.mem, true
}

// ReportCPU computes the observational CPU-usage metric (cores actually
// consumed) for a replica. info.MaxMemoryGB is unused; the replica's
// reserved cores are passed via reservedCores. ok is false when the
// edition has no CPU model.
func (m *Manager) ReportCPU(rep *fabric.Replica, info *DBInfo, reservedCores float64, now time.Time) (value float64, ok bool) {
	if m.set == nil {
		return 0, false
	}
	cm, exists := m.set.CPU[info.Edition]
	if !exists {
		return 0, false
	}
	if m.set.Frozen {
		return 0, true
	}
	ctx := models.EvalContext{
		Key:     m.replicaState(rep, info).key,
		Created: info.Created,
		Now:     now,
		MaxGB:   reservedCores, // the model's core cap
	}
	if rep.Role == fabric.Secondary {
		return cm.NextSecondary(ctx), true
	}
	return cm.Next(ctx), true
}

// MemEntries reports how many replica records this node's Manager holds
// in the store (for tests and leak checks).
func (m *Manager) MemEntries() int {
	n := 0
	for _, sl := range m.store.slots {
		for _, r := range sl.reps {
			if r.live && r.node == m.node {
				n++
			}
		}
	}
	return n
}
