// Package population implements Toto's Population Manager (paper §3.3.3):
// a stateless daemon that wakes at the top of each hour, samples the
// Create DB and Drop DB models for the coming hour, and schedules the
// corresponding control-plane CRUD calls at random minute offsets ("Create
// a 4-core local store database at 5:37pm").
//
// The daemon is stateless in the paper's sense: every wakeup re-reads the
// declarative models from the Naming Service, so the benchmark scenario
// can be reconfigured mid-run by overwriting them. The models are the set
// stored in the Naming Service, shared read-only with every node's
// RgManager.
package population

import (
	"fmt"
	"time"

	"toto/internal/controlplane"
	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/rng"
	"toto/internal/simclock"
	"toto/internal/slo"
)

// CreatedFunc observes a successful creation, carrying the initial disk
// load the new database should report.
type CreatedFunc func(svc *fabric.Service, s slo.SLO, initialDiskGB float64)

// PoolOps is the elastic-pool surface the Population Manager drives when
// the model set carries a PoolPolicy (§5.5). The orchestrator implements
// it over the pool registry.
type PoolOps interface {
	// EnsurePoolWithRoom returns a pool of edition e with member
	// capacity, provisioning a new pool with sloName if none has room.
	// It returns an error when provisioning is redirected.
	EnsurePoolWithRoom(e slo.Edition, sloName string) (string, error)
	// AddMember places db into pool with the given disk cap and initial
	// reported load.
	AddMember(pool, db string, maxDiskGB, initialDiskGB float64) error
	// Members lists (pool, member) pairs of edition e in stable order.
	Members(e slo.Edition) []MemberRef
	// RemoveMember drops a member database from its pool.
	RemoveMember(pool, db string) error
}

// MemberRef identifies one pool member.
type MemberRef struct {
	Pool string
	DB   string
}

// Manager is the Population Manager daemon.
type Manager struct {
	clock  *simclock.Clock
	naming *fabric.NamingService
	cp     *controlplane.ControlPlane
	rnd    *rng.Source
	set    *models.ModelSet // what the last wakeup read

	onCreated []CreatedFunc
	poolOps   PoolOps
	ticker    *simclock.Ticker
	seq       int
	live      []string // drop candidates, reused by every drop

	creates       int
	drops         int
	failures      int
	memberCreates int
	memberDrops   int

	obs      *obs.Obs
	cCreates *obs.Counter // population.creates
	cDrops   *obs.Counter // population.drops
	cFails   *obs.Counter // population.failures
}

// New builds a Population Manager. seed is the single fixed seed of §5.2
// ("The Population Manager used a single seed which fixed the order and
// the SLO of the databases that were created").
func New(clock *simclock.Clock, naming *fabric.NamingService, cp *controlplane.ControlPlane, seed uint64) *Manager {
	return &Manager{
		clock:  clock,
		naming: naming,
		cp:     cp,
		rnd:    rng.New(seed),
	}
}

// OnCreated registers an observer for successful creations.
func (m *Manager) OnCreated(fn CreatedFunc) { m.onCreated = append(m.onCreated, fn) }

// SetObs attaches the observability layer (nil disables at zero cost).
func (m *Manager) SetObs(o *obs.Obs) {
	m.obs = o
	m.cCreates = o.Counter("population.creates")
	m.cDrops = o.Counter("population.drops")
	m.cFails = o.Counter("population.failures")
}

// SetPoolOps enables elastic-pool churn through the given operations.
// Without it, PoolPolicy entries in the model set are ignored.
func (m *Manager) SetPoolOps(ops PoolOps) { m.poolOps = ops }

// PoolStats returns cumulative member create/drop counts.
func (m *Manager) PoolStats() (memberCreates, memberDrops int) {
	return m.memberCreates, m.memberDrops
}

// Start schedules the hourly wakeup. The first wakeup is at the next
// whole hour of simulated time.
func (m *Manager) Start() {
	if m.ticker != nil {
		return
	}
	now := m.clock.Now()
	next := now.Truncate(time.Hour).Add(time.Hour)
	m.clock.At(next, func(t time.Time) {
		m.Wake(t)
		m.ticker = m.clock.Every(time.Hour, m.Wake)
	})
}

// Stop halts the daemon.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// Stats returns cumulative create/drop/failed-request counts, where
// failures are redirected creations or drops with no eligible target.
func (m *Manager) Stats() (creates, drops, failures int) {
	return m.creates, m.drops, m.failures
}

// Models returns the model set the last wakeup read (nil before the first
// wakeup, or when the key was absent or held no model set). It is shared
// with every reader in the cluster and must not be modified.
func (m *Manager) Models() *models.ModelSet { return m.set }

// Wake runs one hourly cycle: re-read the models, sample the hour's
// creates and drops per edition, and schedule the requests at uniformly
// random offsets within the hour.
func (m *Manager) Wake(now time.Time) {
	set := m.readModels()
	m.set = set
	if set == nil || set.Frozen {
		return
	}
	sp := m.obs.Span("population.wake")
	scheduled := 0
	defer func() { sp.End(obs.Int("scheduled", scheduled)) }()
	for _, e := range slo.Editions() {
		policy := set.Pools[e]
		if m.poolOps == nil {
			policy = nil
		}
		if cm, ok := set.Create[e]; ok {
			n := m.sampleScaledCount(cm, set.RingShare, now)
			scheduled += n
			for i := 0; i < n; i++ {
				if policy != nil && m.rnd.Bernoulli(policy.MemberFraction) {
					m.scheduleMemberCreate(set, e, policy, now)
					continue
				}
				m.scheduleCreate(set, e, now)
			}
		}
		// With a per-database lifetime model, drops are scheduled at
		// creation time and the aggregate Drop DB model is ignored for
		// this edition (§5.5).
		if _, perDB := set.Lifetime[e]; perDB {
			continue
		}
		if dm, ok := set.Drop[e]; ok {
			n := m.sampleScaledCount(dm, set.RingShare, now)
			scheduled += n
			for i := 0; i < n; i++ {
				if policy != nil && m.rnd.Bernoulli(policy.MemberFraction) {
					m.scheduleMemberDrop(e, now)
					continue
				}
				m.scheduleDrop(e, now)
			}
		}
	}
}

// scheduleMemberCreate lands a new database inside an elastic pool,
// provisioning a fresh pool when none has room.
func (m *Manager) scheduleMemberCreate(set *models.ModelSet, e slo.Edition, policy *models.PoolPolicy, hourStart time.Time) {
	m.seq++
	db := fmt.Sprintf("db-%s-%06d", editionSlug(e), m.seq)
	initial := 0.0
	if bin, ok := set.NewDBDiskGB[e]; ok && bin.HiGB > bin.LoGB {
		initial = m.rnd.UniformRange(bin.LoGB, bin.HiGB)
	}
	if policy.MemberMaxDiskGB > 0 && initial > policy.MemberMaxDiskGB {
		initial = policy.MemberMaxDiskGB
	}
	offset := time.Duration(m.rnd.Intn(3600)) * time.Second
	m.clock.At(hourStart.Add(offset), func(time.Time) {
		pool, err := m.poolOps.EnsurePoolWithRoom(e, policy.PoolSLO)
		if err != nil {
			m.failures++
			m.cFails.Inc() // pool provisioning was redirected
			return
		}
		if err := m.poolOps.AddMember(pool, db, policy.MemberMaxDiskGB, initial); err != nil {
			m.failures++
			m.cFails.Inc()
			return
		}
		m.memberCreates++
		m.cCreates.Inc()
	})
}

// scheduleMemberDrop removes a random pool member of the edition.
func (m *Manager) scheduleMemberDrop(e slo.Edition, hourStart time.Time) {
	offset := time.Duration(m.rnd.Intn(3600)) * time.Second
	m.clock.At(hourStart.Add(offset), func(time.Time) {
		members := m.poolOps.Members(e)
		if len(members) == 0 {
			m.failures++
			m.cFails.Inc()
			return
		}
		ref := members[m.rnd.Intn(len(members))]
		if err := m.poolOps.RemoveMember(ref.Pool, ref.DB); err != nil {
			m.failures++
			m.cFails.Inc()
			return
		}
		m.memberDrops++
		m.cDrops.Inc()
	})
}

// readModels takes the model set stored in the Naming Service in one
// counted read; nil when the key is absent or holds no model set (which
// disables churn rather than crashing the daemon, matching a production
// service's defensive posture).
func (m *Manager) readModels() *models.ModelSet {
	v, _ := m.naming.Value(models.NamingKey)
	set, _ := v.(*models.ModelSet)
	return set
}

// sampleScaledCount draws the hour's event count from the region-level
// hourly normal with mean and sigma scaled by the ring share (§4.1.1).
func (m *Manager) sampleScaledCount(h *models.HourlyNormal, share float64, now time.Time) int {
	p := h.At(now)
	v := m.rnd.Normal(p.Mean*share, p.Sigma*share)
	if v <= 0 {
		return 0
	}
	return int(v + 0.5)
}

func (m *Manager) scheduleCreate(set *models.ModelSet, e slo.Edition, hourStart time.Time) {
	sloName := m.pickSLO(set, e)
	if sloName == "" {
		return
	}
	m.seq++
	db := fmt.Sprintf("db-%s-%06d", editionSlug(e), m.seq)
	initial := 0.0
	if bin, ok := set.NewDBDiskGB[e]; ok && bin.HiGB > bin.LoGB {
		initial = m.rnd.UniformRange(bin.LoGB, bin.HiGB)
	} else if ok {
		initial = bin.LoGB
	}
	// With a lifetime model, this database's drop is decided now, at
	// creation, instead of by the aggregate Drop DB model.
	var lifetime time.Duration
	var dropScheduled bool
	if lt, ok := set.Lifetime[e]; ok {
		lifetime, dropScheduled = lt.SampleLifetime(m.rnd)
	}
	offset := time.Duration(m.rnd.Intn(3600)) * time.Second
	m.clock.At(hourStart.Add(offset), func(createdAt time.Time) {
		svc, err := m.cp.CreateDatabase(db, sloName)
		if err != nil {
			m.failures++
			m.cFails.Inc() // redirected or rejected; the redirect observer logged it
			return
		}
		m.creates++
		m.cCreates.Inc()
		s, _ := m.cp.Catalog().Lookup(sloName)
		for _, fn := range m.onCreated {
			fn(svc, s, initial)
		}
		if dropScheduled {
			m.clock.At(createdAt.Add(lifetime), func(time.Time) {
				if err := m.cp.DropDatabase(db); err != nil {
					return // already dropped by other means
				}
				m.drops++
				m.cDrops.Inc()
			})
		}
	})
}

func (m *Manager) scheduleDrop(e slo.Edition, hourStart time.Time) {
	offset := time.Duration(m.rnd.Intn(3600)) * time.Second
	m.clock.At(hourStart.Add(offset), func(time.Time) {
		// Target selection happens at execution time so the candidate set
		// reflects the cluster's state at the drop instant.
		m.live = m.cp.LiveDatabases(m.live[:0], &e)
		if len(m.live) == 0 {
			m.failures++
			m.cFails.Inc()
			return
		}
		db := m.live[m.rnd.Intn(len(m.live))]
		if err := m.cp.DropDatabase(db); err != nil {
			m.failures++
			m.cFails.Inc()
			return
		}
		m.drops++
		m.cDrops.Inc()
	})
}

// pickSLO samples an SLO name from the edition's configured mix.
func (m *Manager) pickSLO(set *models.ModelSet, e slo.Edition) string {
	mix := set.SLOMix[e]
	if len(mix) == 0 {
		return ""
	}
	weights := make([]float64, len(mix))
	for i, sw := range mix {
		weights[i] = sw.Weight
	}
	return mix[m.rnd.Choice(weights)].Name
}

func editionSlug(e slo.Edition) string {
	if e == slo.PremiumBC {
		return "bc"
	}
	return "gp"
}
