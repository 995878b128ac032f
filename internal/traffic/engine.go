package traffic

import (
	"fmt"
	"sync"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs"
	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
	"toto/internal/obs/timeseries"
	"toto/internal/rng"
	"toto/internal/simclock"
	"toto/internal/trace"
)

// Annotation kinds the engine emits into the causal journal. None of
// them are anchors (journal.AnchorClass returns "" for all of them), so
// traffic annotations are always leaves chaining back to the fault that
// explains them — never to each other's consequences.
const (
	KindRequestShed          = "request-shed"
	KindBreakerOpen          = "breaker-open"
	KindBreakerHalfOpen      = "breaker-half-open"
	KindBreakerClosed        = "breaker-closed"
	KindRetryBudgetExhausted = "retry-budget-exhausted"
	KindRequestErrors        = "request-errors"
	// KindRequestHedged counts one tick's granted hedges for a service
	// (Value granted, Limit desired, Detail the hedge-target node);
	// KindHedgeBudgetExhausted the hedges the budget refused. Both exist
	// only when hedging is configured and chain to the incident that
	// slowed the primary path — a fail-slow injection roots the burst at
	// chaos.
	KindRequestHedged        = "request-hedged"
	KindHedgeBudgetExhausted = "hedge-budget-exhausted"
	// KindRequestTrace carries one kept request trace (reqtrace wire
	// format in Detail); KindTraceHour closes each observation hour with
	// its p99 verdict and the p99 bucket's exemplar. Both exist only when
	// request tracing is enabled and are deliberately absent from the
	// golden traffic-annotation hash — the traced stream has its own.
	KindRequestTrace = "request-trace"
	KindTraceHour    = "request-trace-hour"
)

// PromHistogramName is the registry name the engine's latency histogram
// exports under when RegisterProm attaches it to a metrics registry.
const PromHistogramName = "traffic.latency_ms"

// Timeseries the engine pushes hourly into the run's series store.
const (
	SeriesLatencyP50  = "traffic.latency.p50_ms"
	SeriesLatencyP99  = "traffic.latency.p99_ms"
	SeriesLatencyP999 = "traffic.latency.p999_ms"
	SeriesErrorRate   = "traffic.error.rate"
	SeriesRequests    = "traffic.requests.delta"
	SeriesErrors      = "traffic.errors.delta"
	SeriesShed        = "traffic.shed.delta"
)

const (
	// anchorHorizon is how far back a causal anchor may be and still
	// explain a shed, breaker trip, or request error.
	anchorHorizon = 2 * time.Hour
	// budgetBurstTicks sizes a tokenBudget's bucket in ticks of refill.
	budgetBurstTicks = 4
	// colocLatencyFactor is the per-co-located-replica latency tax on the
	// primary's node (noisy neighbours on a dense node).
	colocLatencyFactor = 0.01
)

// Stats summarizes the plane's activity for the run result.
type Stats struct {
	Arrivals        int64 // open-loop requests generated
	Admitted        int64 // past the front-end token bucket
	Queued          int64 // tick-end queue occupancy, summed
	Shed            int64 // dropped on admission overflow
	BreakerRejected int64 // rejected by an open breaker
	Dispatched      int64 // attempts sent to backends, retries included
	Retries         int64 // retry attempts granted by the budget
	RetriesDenied   int64 // retry attempts the budget refused
	Hedges          int64 // hedged attempts granted by the hedge budget
	HedgesDenied    int64 // hedged attempts the hedge budget refused
	HedgeWins       int64 // hedges whose speculative attempt finished first
	Errors          int64 // dispatched requests that finally failed
	Failed          int64 // user-visible failures: shed + rejected + errors
	Batches         int64 // dispatch batches

	BreakerOpens     int
	BreakerHalfOpens int
	BreakerCloses    int

	HoursObserved     int
	SLOViolationHours int // hours whose p99 exceeded the SLO
	SLOP99Ms          float64

	ErrorRate            float64 // Failed / Arrivals
	P50Ms, P99Ms, P999Ms float64 // whole-run latency quantiles

	// Reqtrace holds the tail sampler's counters; nil unless request
	// tracing was enabled for the run.
	Reqtrace *reqtrace.Stats
}

// svcState is one service's front-end state.
type svcState struct {
	br *Breaker
	// retry and hedge are separate buckets by design: hedges and retries
	// may never trade tokens.
	retry, hedge tokenBudget
	queued       int
	// openSeq/openKind chain the breaker lifecycle: the open annotation's
	// journal seq and root cause, so half-open and closed chain to it.
	openSeq  uint64
	openKind fabric.CauseKind
	// premium is the service's traffic class, resolved once per tick
	// (the control plane may rewrite the class label between ticks).
	premium bool
}

// tickNode is one node as the current tick sees it. tick fills one per
// node, indexed by fabric.Node.Index, before it serves any service, and
// every service of the tick reads it instead of recomputing it. It stays
// fresh for the whole tick as long as nothing serveOne reaches changes
// a node's loads, replica count, up or quarantine state, the replica
// placement or the cluster density. Today serveOne only annotates
// (listeners track anchors or write the journal), updates breaker and
// budget state, and feeds ObserveNodeLatency, which only updates the
// detector's EWMA: quarantine is decided by the detector's own check on
// the PLB scan.
type tickNode struct {
	loadMs, util float64 // nodeLoadMs
	svcMs        float64 // loadMs times slowFn(n.ID, now) when slowFn is set
	routeUtil    float64 // routingUtil
	routable     bool    // up and not quarantined
}

// Engine drives the traffic plane on the simulation clock. It must only
// be used from the simulation goroutine. Construct with NewEngine and
// call Start at the measured window's opening; the engine is inert until
// then, and a run without a Spec never constructs one at all.
type Engine struct {
	clock   *simclock.Clock
	cluster *fabric.Cluster
	spec    Spec // resolved: no zero knobs
	store   *timeseries.Store
	o       *obs.Obs

	// One independent stream per randomness channel, so an error draw can
	// never perturb an arrival count.
	arrivalRnd *rng.Source
	errorRnd   *rng.Source
	latencyRnd *rng.Source

	tickEvery time.Duration
	tokens    float64
	// backoffMean is retryLadderMeanMs of the spec's retries.
	backoffMean float64
	// nodes is the per-tick node table, one entry per cluster node.
	nodes []tickNode
	// svc is the per-service front-end state, indexed by fabric.Service
	// Slot; the drop listener zeroes a slot before the fabric reuses it.
	svc []svcState
	// anchors holds the latest causal anchor per class. The plane's own
	// annotations are not anchors, so a shed can never be "explained" by
	// another shed.
	anchors journal.Anchors

	started bool

	stats Stats
	// flushed holds the run's arrivals, sheds and failures as the last
	// flush saw them: the hour's counts are what they gained since.
	flushed  struct{ arrivals, shed, failed int64 }
	hourHist hist
	runHist  hist

	// Request tracing (nil when disabled — every trace call site below is
	// nil-guarded, so the disabled hot path allocates nothing extra).
	rec        *reqtrace.Recorder
	traceGroup int             // per-serveOne group counter, part of the trace ID
	spans      []reqtrace.Span // the kept trace's spans, reused across traces
	lastNode   string          // serving node at the last latencyMs call
	lastUtil   float64         // serving node utilization at the last latencyMs call

	// Fail-slow hook (nil when no chaos fail-slow view is attached).
	slowFn func(node string, now time.Time) float64

	// Per-serveOne hedge scratch: the class hedge delay and the
	// speculative path's modeled latency and target node, set by
	// latencyMs when hedging is configured and a second replica exists.
	// curHedge is non-nil only while the current tick qualifies for
	// hedging; the tick counters feed the per-tick annotations.
	hedgeDelayMs  float64
	hedgeAltMs    float64
	hedgeAltNode  string
	curHedge      *svcState
	tickHedges    int64
	tickHedgeDeny int64
	tickHedgeWins int64

	// Prometheus export: flush publishes an immutable snapshot under
	// promMu; the registry's provider callback may read it from any
	// goroutine serving /metrics.
	promOn   bool
	promMu   sync.Mutex
	promSnap obs.HistogramSnapshot
}

// NewEngine builds an engine for the given cluster. The spec is
// validated and its defaults resolved; store may be nil (no series are
// recorded then). When spec.Reqtrace is set the engine builds its own
// request-trace recorder (Recorder), whose sampler is seeded from a
// dedicated split of the traffic seed, so enabling tracing never
// perturbs the arrival, error, or latency streams.
func NewEngine(clock *simclock.Clock, cluster *fabric.Cluster, spec *Spec, store *timeseries.Store, o *obs.Obs) (*Engine, error) {
	if spec == nil {
		return nil, fmt.Errorf("traffic: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	resolved := spec.withDefaults()
	root := rng.New(resolved.Seed)
	var rec *reqtrace.Recorder
	if resolved.Reqtrace != nil {
		var err error
		if rec, err = reqtrace.NewRecorder(resolved.Reqtrace); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		clock:       clock,
		cluster:     cluster,
		spec:        resolved,
		store:       store,
		o:           o,
		arrivalRnd:  root.Split("arrivals"),
		errorRnd:    root.Split("errors"),
		latencyRnd:  root.Split("latency"),
		tickEvery:   time.Duration(resolved.TickSeconds * float64(time.Second)),
		rec:         rec,
		backoffMean: retryLadderMeanMs(resolved.Retry),
		nodes:       make([]tickNode, len(cluster.Nodes())),
	}
	if rec != nil {
		rec.Bind(resolved.Seed, root.Split("reqtrace"))
		e.hourHist.enableExemplars()
		e.runHist.enableExemplars()
	}
	return e, nil
}

// Start subscribes to the cluster's causal streams (anchor tracking,
// service-drop cleanup) and begins ticking. Idempotent.
func (e *Engine) Start(from time.Time) {
	if e.started {
		return
	}
	e.started = true
	e.cluster.SubscribeAnnotations(e.anchors.Observe)
	e.cluster.Subscribe(e.onEvent)
	e.clock.Every(e.tickEvery, e.tick)
	e.clock.Every(time.Hour, e.flush)
	e.o.Instant("traffic.start",
		obs.I64("seed", int64(e.spec.Seed)),
		obs.Float("per_core_rps", e.spec.PerCoreRPS),
	)
}

// Stats returns the plane's totals so far, with whole-run latency
// quantiles and the partial hour folded in.
func (e *Engine) Stats() Stats {
	st := e.stats
	comb := e.runHist
	comb.merge(&e.hourHist)
	st.P50Ms = comb.quantile(0.50)
	st.P99Ms = comb.quantile(0.99)
	st.P999Ms = comb.quantile(0.999)
	st.Failed = st.Shed + st.BreakerRejected + st.Errors
	if st.Arrivals > 0 {
		st.ErrorRate = float64(st.Failed) / float64(st.Arrivals)
	}
	st.SLOP99Ms = e.spec.SLOP99Ms
	if e.rec != nil {
		rs := e.rec.Stats()
		st.Reqtrace = &rs
	}
	return st
}

// Recorder exposes the engine's trace recorder (nil when tracing is
// off) so serving layers can query the kept-trace ring.
func (e *Engine) Recorder() *reqtrace.Recorder { return e.rec }

// onEvent drops per-service state when the service goes away, so the
// next service the fabric gives the slot starts fresh.
func (e *Engine) onEvent(ev fabric.Event) {
	if ev.Kind == fabric.EventServiceDropped && ev.Service != nil {
		if slot := ev.Service.Slot(); slot < len(e.svc) {
			e.svc[slot] = svcState{}
		}
	}
}

// state returns s's front-end state, creating it on the service's first
// tick.
func (e *Engine) state(s *fabric.Service) *svcState {
	slot := s.Slot()
	if slot >= len(e.svc) {
		e.svc = append(e.svc, make([]svcState, slot+1-len(e.svc))...)
	}
	st := &e.svc[slot]
	if st.br == nil {
		st.br = NewBreaker(e.spec.Breaker)
	}
	return st
}

// annotate emits one traffic annotation bracketed to the given cause.
func (e *Engine) annotate(kind string, now time.Time, svc string, value, limit float64, detail string, causeSeq uint64, causeKind fabric.CauseKind) uint64 {
	prev := e.cluster.BeginCause(causeKind, causeSeq)
	seq := e.cluster.Annotate(fabric.Annotation{
		Kind:    kind,
		Time:    now,
		Service: svc,
		Value:   value,
		Limit:   limit,
		Detail:  detail,
	})
	e.cluster.EndCause(prev)
	return seq
}

// tick is one admission round: fill the node table, refill the front-end
// token bucket from the surviving node fraction, then serve every live
// service in the cluster's deterministic name order.
func (e *Engine) tick(now time.Time) {
	up := e.fillNodes(now)
	shape := trace.DiurnalShape(now.Hour())
	if wd := now.Weekday(); wd == time.Saturday || wd == time.Sunday {
		shape *= e.spec.WeekendFactor
	}

	reserved := 0.0
	e.cluster.EachLiveService(func(s *fabric.Service) {
		reserved += s.TotalReservedCores()
	})
	upFrac := 1.0
	if n := len(e.nodes); n > 0 {
		upFrac = float64(up) / float64(n)
	}
	// The front end is provisioned for peak demand; losing nodes shrinks
	// it proportionally, which is where graceful degradation comes from:
	// overflow is shed at the door instead of melting the survivors.
	refill := e.spec.AdmitFactor * e.spec.PerCoreRPS * reserved * upFrac * e.spec.TickSeconds
	e.tokens += refill
	if burst := refill * e.spec.BurstTicks; e.tokens > burst {
		e.tokens = burst
	}

	if e.spec.Classes == nil {
		e.cluster.EachLiveService(func(s *fabric.Service) {
			e.serveOne(now, s, e.state(s), shape)
		})
		return
	}
	// Traffic classes: premium services admit first, so the shared token
	// bucket drains in class order and overload sheds standard traffic
	// before premium — the shed order is the admission order. The first
	// sweep resolves every service's class for the tick.
	e.cluster.EachLiveService(func(s *fabric.Service) {
		st := e.state(s)
		st.premium = e.isPremium(s)
		if st.premium {
			e.serveOne(now, s, st, shape)
		}
	})
	e.cluster.EachLiveService(func(s *fabric.Service) {
		if st := e.state(s); !st.premium {
			e.serveOne(now, s, st, shape)
		}
	})
}

// fillNodes fills the node table for the tick at now and returns the
// number of up nodes.
func (e *Engine) fillNodes(now time.Time) int {
	up := 0
	for _, n := range e.cluster.Nodes() {
		t := &e.nodes[n.Index()]
		t.loadMs, t.util = e.nodeLoadMs(n)
		t.svcMs = t.loadMs
		if e.slowFn != nil {
			t.svcMs *= e.slowFn(n.ID, now)
		}
		t.routeUtil = e.routingUtil(n)
		t.routable = n.Up() && !n.Quarantined(now)
		if n.Up() {
			up++
		}
	}
	return up
}

// serveOne runs one service's tick: open-loop arrivals, admission with
// bounded queueing and shedding, the circuit breaker, dispatch against
// the service's serving state, budgeted retries, and latency accounting.
// st is s's front-end state.
func (e *Engine) serveOne(now time.Time, s *fabric.Service, st *svcState, shape float64) {
	// Trace group indices restart per (tick, service) so trace IDs —
	// hashed over (seed, time, service, outcome, group) — stay unique.
	e.traceGroup = 0
	e.lastNode, e.lastUtil = "", 0
	e.curHedge = nil
	e.tickHedges, e.tickHedgeDeny, e.tickHedgeWins = 0, 0, 0
	premium := st.premium

	mean := e.spec.PerCoreRPS * s.TotalReservedCores() * shape * e.spec.TickSeconds
	n := 0
	if mean > 0 {
		n = e.arrivalRnd.Poisson(mean)
	}
	e.stats.Arrivals += int64(n)

	// Admission: requests queued last tick drain first, then fresh
	// arrivals; overflow beyond the bounded queue is shed — journaled,
	// never silent.
	waited := st.queued
	demand := waited + n
	take := demand
	if t := int(e.tokens); t < take {
		take = t
	}
	e.tokens -= float64(take)
	overflow := demand - take
	st.queued = overflow
	depth := e.spec.QueueDepth
	if premium {
		// The premium admission weight: a deeper overflow queue, so
		// premium spillover waits out a burst that sheds standard load.
		depth = int(float64(depth) * e.spec.Classes.PremiumWeight)
	}
	if st.queued > depth {
		st.queued = depth
	}
	if shed := overflow - st.queued; shed > 0 {
		e.stats.Shed += int64(shed)
		aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
		e.annotate(KindRequestShed, now, s.Name, float64(shed), float64(demand), "admission-overflow", aSeq, aKind)
		if e.rec != nil {
			e.traceFail(now, s.Name, reqtrace.OutcomeShed, int64(shed), 0, aSeq, aKind)
		}
	}
	e.stats.Queued += int64(st.queued)
	e.stats.Admitted += int64(take)

	// Circuit breaker: an open breaker whose window elapsed flips to
	// half-open inside Admit and lets exactly the probe count through.
	preAdmit := st.br.State()
	pass, rejected := st.br.Admit(now, take)
	postAdmit := st.br.State()
	if postAdmit == BreakerHalfOpen && preAdmit == BreakerOpen {
		e.stats.BreakerHalfOpens++
		st.openSeq = e.annotate(KindBreakerHalfOpen, now, s.Name,
			float64(e.spec.Breaker.HalfOpenProbes), 0, "probing", st.openSeq, st.openKind)
	}
	if rejected > 0 {
		e.stats.BreakerRejected += int64(rejected)
		if e.rec != nil {
			aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
			e.traceFail(now, s.Name, reqtrace.OutcomeRejected, int64(rejected), 0, aSeq, aKind)
		}
	}

	// Dispatch: the serving state is the fabric's error-surfacing hook —
	// crashes, quorum loss, and mid-build failovers become failures here.
	health := s.ServingStateAt(now)
	fail := 0
	switch health {
	case fabric.ServingDown:
		fail = pass
	case fabric.ServingDegraded:
		fail = int(float64(pass)*e.spec.DegradedErrorRate + 0.5)
	default:
		if e.spec.BaseErrorRate > 0 && pass > 0 {
			fail = e.errorRnd.Poisson(float64(pass) * e.spec.BaseErrorRate)
			if fail > pass {
				fail = pass
			}
		}
	}
	e.stats.Dispatched += int64(pass)

	var meanMs float64
	if pass > 0 {
		meanMs = e.latencyMs(s, pass, now, premium)
		if e.cluster.SlowNodeDetectionEnabled() {
			e.feedSlowNodeDetector(s)
		}
	}

	// Hedging: the budget refills from fresh arrivals only (like the
	// retry budget, but a separate bucket), and the tick
	// qualifies once its modeled mean outlives the class hedge delay —
	// per-cell grants happen inside observe, where the latency spread is
	// known. Consumes no randomness.
	if e.spec.Hedge != nil {
		st.hedge.refill(n, mean, e.spec.Hedge.BudgetRatio)
		if e.hedgeDelayMs > 0 && meanMs > e.hedgeDelayMs {
			e.curHedge = st
		}
	}

	// Retries: the budget refills from fresh arrivals only, so a retry
	// storm is capped at BudgetRatio of offered load — no amplification.
	st.retry.refill(n, mean, e.spec.Retry.BudgetRatio)
	desired := fail * (e.spec.Retry.MaxAttempts - 1)
	granted := st.retry.grant(desired)
	if short := desired - granted; short > 0 {
		e.stats.RetriesDenied += int64(short)
		aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
		e.annotate(KindRetryBudgetExhausted, now, s.Name, float64(short), float64(desired), "", aSeq, aKind)
	}
	e.stats.Retries += int64(granted)
	e.stats.Dispatched += int64(granted)

	// Retries rescue transient failures (a degraded primary answers half
	// the time, a healthy one nearly always) but not a down service.
	retriable := fail
	if granted < retriable {
		retriable = granted
	}
	saved := 0
	switch health {
	case fabric.ServingDegraded:
		saved = retriable / 2
	case fabric.ServingHealthy:
		saved = retriable
	}
	errors := fail - saved
	if errors > 0 {
		e.stats.Errors += int64(errors)
		aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
		e.annotate(KindRequestErrors, now, s.Name, float64(errors), float64(pass), health.String(), aSeq, aKind)
		if e.rec != nil {
			// Retried-then-failed attempts belong to the error group.
			failedRetries := retriable - saved
			if failedRetries < 0 {
				failedRetries = 0
			}
			e.traceError(now, s.Name, int64(errors), meanMs, failedRetries, aSeq, aKind)
		}
	}

	// Feed first-attempt outcomes back to the breaker and journal its
	// transitions: trips anchor to the incident, recoveries chain to the
	// trip so the whole lifecycle is one walkable chain.
	preRecord := st.br.State()
	if pass > 0 {
		st.br.Record(now, pass-fail, fail)
	}
	switch post := st.br.State(); {
	case post == BreakerOpen && preRecord != BreakerOpen:
		e.stats.BreakerOpens++
		aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
		if aSeq == 0 && st.openSeq != 0 {
			// Re-opened beyond the anchor horizon: chain the lifecycle.
			aSeq, aKind = st.openSeq, st.openKind
		}
		st.openSeq = e.annotate(KindBreakerOpen, now, s.Name, float64(fail), float64(pass), health.String(), aSeq, aKind)
		st.openKind = aKind
	case post == BreakerClosed && preRecord == BreakerHalfOpen:
		e.stats.BreakerCloses++
		e.annotate(KindBreakerClosed, now, s.Name, 0, 0, "recovered", st.openSeq, st.openKind)
		st.openSeq, st.openKind = 0, fabric.CauseNone
	}

	// Latency accounting for the requests that succeeded: queue-drained
	// requests waited about half a tick, retried ones their backoff.
	okCount := pass - errors
	if okCount <= 0 {
		return
	}
	if saved > okCount {
		saved = okCount
	}
	fromQueue := waited
	if fromQueue > okCount-saved {
		fromQueue = okCount - saved
	}
	// backoffMs draws from the latency stream unconditionally — it must
	// stay a single call here so enabling tracing never shifts the rng.
	back := e.backoffMs()
	queueMs := e.spec.TickSeconds * 1000 / 2
	e.observe(now, s.Name, saved, meanMs+back, 0, back, 1, false)
	e.observe(now, s.Name, fromQueue, meanMs+queueMs, queueMs, 0, 0, false)
	// Only the plain cells hedge: queue-drained and retried requests
	// already paid a wait the hedge race would not have won.
	e.observe(now, s.Name, okCount-saved-fromQueue, meanMs, 0, 0, 0, true)

	if e.tickHedges > 0 {
		e.stats.Hedges += e.tickHedges
		e.stats.HedgeWins += e.tickHedgeWins
		e.stats.Dispatched += e.tickHedges // speculative attempts are real load
		aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
		e.annotate(KindRequestHedged, now, s.Name, float64(e.tickHedges),
			float64(e.tickHedges+e.tickHedgeDeny), e.hedgeAltNode, aSeq, aKind)
	}
	if e.tickHedgeDeny > 0 {
		e.stats.HedgesDenied += e.tickHedgeDeny
		aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
		e.annotate(KindHedgeBudgetExhausted, now, s.Name, float64(e.tickHedgeDeny),
			float64(e.tickHedges+e.tickHedgeDeny), "", aSeq, aKind)
	}
}

// latencyMs models one tick's mean request latency for a service: batch-
// amortized overhead plus a base service time inflated by the serving
// node's core utilization, replica co-location, and (when a fail-slow
// hook is attached) its slow factor. The serving node is the primary, or
// the least-loaded healthy replica when routing is configured. As a side
// effect it arms the hedge scratch: the class hedge delay and the
// speculative path's latency on the best other replica.
func (e *Engine) latencyMs(s *fabric.Service, pass int, now time.Time, premium bool) float64 {
	batches := (pass + e.spec.BatchSize - 1) / e.spec.BatchSize
	e.stats.Batches += int64(batches)
	fill := float64(pass) / float64(batches)
	overheadMs := e.spec.OverheadMs / fill
	e.hedgeDelayMs, e.hedgeAltMs, e.hedgeAltNode = 0, 0, ""
	p := s.Primary()
	if p == nil || p.Node == nil {
		return overheadMs + e.spec.BaseLatencyMs
	}
	serving := p.Node
	if e.spec.Routing != nil {
		if best := e.leastLoadedReplica(s, now, nil); best != nil {
			serving = best
		}
	}
	svcMs, util := e.nodeServiceMs(serving)
	m := overheadMs + svcMs
	e.lastNode, e.lastUtil = serving.ID, util
	if e.spec.Hedge != nil {
		if alt := e.leastLoadedReplica(s, now, serving); alt != nil {
			altMs, _ := e.nodeServiceMs(alt)
			e.hedgeAltMs = overheadMs + altMs
			e.hedgeAltNode = alt.ID
			mult := e.spec.Hedge.DelayMultiple
			if premium {
				mult = e.spec.Hedge.PremiumDelayMultiple
			}
			// The hedge delay is relative to the alternate route, not an
			// absolute baseline: it self-calibrates to whatever the
			// cluster-wide load level makes requests cost right now, so
			// only slowness the alternate would beat triggers a hedge.
			e.hedgeDelayMs = e.hedgeAltMs * mult
		}
	}
	return m
}

// retryLadderMeanMs is the mean of the exponential retry ladder
// min(base*2^k, max) over the MaxAttempts-1 retries, 0 with none.
func retryLadderMeanMs(r RetrySpec) float64 {
	total, steps := 0.0, 0
	b := r.BackoffBaseMs
	for k := 1; k < r.MaxAttempts; k++ {
		if b > r.BackoffMaxMs {
			b = r.BackoffMaxMs
		}
		total += b
		steps++
		b *= 2
	}
	if steps == 0 {
		return 0
	}
	return total / float64(steps)
}

// backoffMs is the modeled wait of a successful retry: the retry
// ladder's mean, jittered once per service tick.
func (e *Engine) backoffMs() float64 {
	r := &e.spec.Retry
	if r.MaxAttempts <= 1 {
		return 0
	}
	mean := e.backoffMean
	if r.Jitter > 0 {
		mean *= 1 + r.Jitter*(e.latencyRnd.Float64()-0.5)
	}
	return mean
}

// latSpread turns a per-tick mean latency into a fixed distribution:
// cumulative fractions of the tick's requests at multiples of the mean.
// Deterministic integer allocation — no per-request randomness.
var latSpread = []struct{ cum, mult float64 }{
	{0.50, 0.80},
	{0.85, 1.05},
	{0.95, 1.60},
	{0.99, 3.00},
	{1.00, 8.00},
}

// observe records count successful requests around mean ms. queueMs and
// backMs are the queue-wait and retry-backoff components already inside
// ms; the tracer scales them with the spread multiplier so a trace's
// spans sum exactly to its recorded latency. hedge marks cells eligible
// for hedged dispatch when the current tick qualifies.
//
// A plain cell, one that cannot hedge while tracing is off, is one
// hist.add, which the compiler inlines.
func (e *Engine) observe(now time.Time, svc string, count int, ms, queueMs, backMs float64, retries int, hedge bool) {
	if count <= 0 {
		return
	}
	plain := e.rec == nil && (!hedge || e.curHedge == nil)
	assigned := int64(0)
	for _, qs := range latSpread {
		upto := int64(qs.cum*float64(count) + 0.5)
		if upto > int64(count) {
			upto = int64(count)
		}
		k := upto - assigned
		if k <= 0 {
			continue
		}
		assigned = upto
		if plain {
			e.hourHist.add(ms*qs.mult, k)
		} else {
			e.observeCell(now, svc, k, qs.mult, ms, queueMs, backMs, retries, hedge)
		}
	}
	if k := int64(count) - assigned; k > 0 {
		mult := latSpread[len(latSpread)-1].mult
		e.observeCell(now, svc, k, mult, ms, queueMs, backMs, retries, hedge)
	}
}

// observeCell records one latency-spread cell. When the tick qualifies
// for hedging and the cell's latency outlives the hedge delay, as many
// of its requests as the hedge budget grants race a speculative attempt
// on the alternate replica and observe whichever path finished first.
func (e *Engine) observeCell(now time.Time, svc string, k int64, mult, ms, queueMs, backMs float64, retries int, hedge bool) {
	v := ms * mult
	if hedge && e.curHedge != nil && v > e.hedgeDelayMs {
		granted := int64(e.curHedge.hedge.grant(int(k)))
		e.tickHedgeDeny += k - granted
		if granted > 0 {
			hv := e.hedgeDelayMs + e.hedgeAltMs*mult
			win := hv < v
			if win {
				e.tickHedgeWins += granted
			} else {
				hv = v
			}
			e.tickHedges += granted
			b := e.hourHist.add(hv, granted)
			if e.rec != nil {
				e.traceHedged(now, svc, b, granted, hv, win)
			}
			k -= granted
		}
	}
	if k <= 0 {
		return
	}
	b := e.hourHist.add(v, k)
	if e.rec != nil {
		e.traceOK(now, svc, b, k, v, queueMs*mult, backMs*mult, retries)
	}
}

// offer runs the tail sampler's keep decision for the next request group
// of the current (tick, service) and returns the group's index, which
// every group takes, kept or not, so a trace's ID does not depend on
// which groups before it were kept. Only a kept group's trace is built.
func (e *Engine) offer(outcome reqtrace.Outcome, bucketFirst bool) (group int, keep bool) {
	group = e.traceGroup
	e.traceGroup++
	return group, e.rec.Keep(outcome, bucketFirst)
}

// traceFail offers a failure group (shed or breaker-rejected) to the
// sampler, which keeps every failure, and records its trace.
func (e *Engine) traceFail(now time.Time, svc string, outcome reqtrace.Outcome, count int64, latMs float64, aSeq uint64, aKind fabric.CauseKind) {
	group, keep := e.offer(outcome, false)
	if !keep {
		return
	}
	tr := reqtrace.Trace{Time: now.UnixNano(), Service: svc, Outcome: outcome, Count: count, LatencyMs: latMs,
		Spans: e.spans[:0]}
	tr.Add(reqtrace.SpanArrival, 0, 0)
	tr.Add(reqtrace.SpanAdmission, 0, 0)
	if outcome == reqtrace.OutcomeRejected {
		tr.Add(reqtrace.SpanBreaker, 0, 0)
		tr.Add(reqtrace.SpanReject, 0, 0)
	} else {
		tr.Add(reqtrace.SpanShed, 0, 0)
	}
	e.recordTrace(now, &tr, group, aSeq, aKind)
}

// traceError offers the group of dispatched requests that finally
// failed; retried reports how many of them burned a retry.
func (e *Engine) traceError(now time.Time, svc string, count int64, meanMs float64, retried int, aSeq uint64, aKind fabric.CauseKind) {
	group, keep := e.offer(reqtrace.OutcomeError, false)
	if !keep {
		return
	}
	retries := 0
	if retried > 0 {
		retries = 1
	}
	tr := reqtrace.Trace{Time: now.UnixNano(), Service: svc, Outcome: reqtrace.OutcomeError,
		Count: count, LatencyMs: meanMs, Retries: retries, Spans: e.spans[:0]}
	tr.Add(reqtrace.SpanArrival, 0, 0)
	tr.Add(reqtrace.SpanAdmission, 0, 0)
	tr.Add(reqtrace.SpanBreaker, 0, 0)
	tr.AddDispatch(0, meanMs, e.lastNode, e.lastUtil)
	tr.Add(reqtrace.SpanError, meanMs, 0)
	e.recordTrace(now, &tr, group, aSeq, aKind)
}

// traceOK offers the success group of one latency-spread cell, whose
// latency v landed in histogram bucket b. The first trace into a bucket
// without an exemplar is always kept as that bucket's exemplar;
// otherwise the deterministic 1-in-N sampler rules.
func (e *Engine) traceOK(now time.Time, svc string, b int, count int64, v, queueMs, backMs float64, retries int) {
	group, keep := e.offer(reqtrace.OutcomeOK, e.hourHist.needsExemplar(b))
	if !keep {
		return
	}
	tr := reqtrace.Trace{Time: now.UnixNano(), Service: svc, Outcome: reqtrace.OutcomeOK,
		Count: count, LatencyMs: v, Retries: retries, Spans: e.spans[:0]}
	tr.Add(reqtrace.SpanArrival, 0, 0)
	off := 0.0
	if queueMs > 0 {
		tr.Add(reqtrace.SpanQueueWait, 0, queueMs)
		off = queueMs
	}
	tr.Add(reqtrace.SpanAdmission, off, 0)
	tr.Add(reqtrace.SpanBreaker, off, 0)
	svcMs := v - queueMs - backMs
	if svcMs < 0 {
		svcMs = 0
	}
	if backMs > 0 {
		// A rescued retry: the first attempt's failure is folded into the
		// backoff wait, then the successful attempt dispatches.
		tr.Add(reqtrace.SpanBackoff, off, backMs)
		off += backMs
	}
	tr.AddDispatch(off, svcMs, e.lastNode, e.lastUtil)
	tr.Add(reqtrace.SpanComplete, v, 0)
	e.recordExemplar(now, &tr, group, b)
}

// traceHedged offers the success group of a hedged latency-spread cell:
// the dispatch raced a speculative attempt launched at the hedge delay,
// and v, in histogram bucket b, is whichever path finished first. On a
// win the hedge span carries the alternate's service time; on a loss it
// is zero-duration — launched, but beaten by the original.
func (e *Engine) traceHedged(now time.Time, svc string, b int, count int64, v float64, win bool) {
	group, keep := e.offer(reqtrace.OutcomeOK, e.hourHist.needsExemplar(b))
	if !keep {
		return
	}
	dispatchMs, hedgeMs := v, 0.0
	if win {
		dispatchMs, hedgeMs = e.hedgeDelayMs, v-e.hedgeDelayMs
	}
	tr := reqtrace.Trace{Time: now.UnixNano(), Service: svc, Outcome: reqtrace.OutcomeOK,
		Count: count, LatencyMs: v, Spans: e.spans[:0]}
	tr.Add(reqtrace.SpanArrival, 0, 0)
	tr.Add(reqtrace.SpanAdmission, 0, 0)
	tr.Add(reqtrace.SpanBreaker, 0, 0)
	tr.AddDispatch(0, dispatchMs, e.lastNode, e.lastUtil)
	tr.Add(reqtrace.SpanHedge, e.hedgeDelayMs, hedgeMs)
	tr.Add(reqtrace.SpanComplete, v, 0)
	e.recordExemplar(now, &tr, group, b)
}

// recordExemplar records a kept success trace, registers it as bucket
// b's exemplar when the bucket has none, and journals it inside the
// causal bracket of the best live anchor.
func (e *Engine) recordExemplar(now time.Time, tr *reqtrace.Trace, group, b int) {
	aSeq, aKind, _ := e.anchors.Best(now, anchorHorizon)
	e.recordTrace(now, tr, group, aSeq, aKind)
	e.hourHist.setExemplar(b, tr.LatencyMs, tr.ID)
}

// recordTrace enters a kept trace into the recorder's ring and journals
// the wire form Record returns inside the causal bracket of the incident
// that explains it. That string is the kept trace's one allocation: the
// ring holds it too, and keeps none of the spans, so the engine's span
// slice is free for the next trace.
func (e *Engine) recordTrace(now time.Time, tr *reqtrace.Trace, group int, aSeq uint64, aKind fabric.CauseKind) {
	detail := e.rec.Record(tr, group)
	e.spans = tr.Spans[:0]
	e.annotate(KindRequestTrace, now, tr.Service, float64(tr.Count), tr.LatencyMs, detail, aSeq, aKind)
}

// flush closes one observation hour: latency quantiles and rates go to
// the series store (alertable like any other series), the hour's p99 is
// scored against the SLO, and the histogram folds into the run total.
func (e *Engine) flush(now time.Time) {
	p50 := e.hourHist.quantile(0.50)
	p99 := e.hourHist.quantile(0.99)
	p999 := e.hourHist.quantile(0.999)
	st, prev := &e.stats, e.flushed
	e.flushed.arrivals, e.flushed.shed = st.Arrivals, st.Shed
	e.flushed.failed = st.Shed + st.BreakerRejected + st.Errors
	arrivals := e.flushed.arrivals - prev.arrivals
	shed := e.flushed.shed - prev.shed
	failed := e.flushed.failed - prev.failed
	rate := 0.0
	if arrivals > 0 {
		rate = float64(failed) / float64(arrivals)
	}
	if e.store != nil {
		e.store.Series(SeriesLatencyP50).Push(p50)
		e.store.Series(SeriesLatencyP99).Push(p99)
		e.store.Series(SeriesLatencyP999).Push(p999)
		e.store.Series(SeriesErrorRate).Push(rate)
		e.store.Series(SeriesRequests).Push(float64(arrivals))
		e.store.Series(SeriesErrors).Push(float64(failed))
		e.store.Series(SeriesShed).Push(float64(shed))
	}
	e.stats.HoursObserved++
	violation := e.hourHist.total() > 0 && p99 > e.spec.SLOP99Ms
	if violation {
		e.stats.SLOViolationHours++
	}
	if e.rec != nil {
		e.traceHour(now, p99, violation)
	}
	e.runHist.mergeExemplars(&e.hourHist)
	e.runHist.merge(&e.hourHist)
	e.hourHist.reset()
	if e.promOn {
		e.promUpdate()
	}
}

// traceHour closes one observation hour in the journal: its p99 verdict
// and the p99 bucket's exemplar trace ID, so analysis tools join SLO
// violations to a concrete kept trace without re-deriving bucket math.
func (e *Engine) traceHour(now time.Time, p99 float64, violation bool) {
	b := e.hourHist.quantileBucket(0.99)
	exID := "missing"
	if ex := e.hourHist.exemplarAt(b); ex.id != 0 {
		exID = reqtrace.IDString(ex.id)
	}
	v := 0
	if violation {
		v = 1
	}
	detail := fmt.Sprintf("p99-bucket=%d exemplar=%s violation=%d samples=%d", b, exID, v, e.hourHist.total())
	aSeq, aKind := uint64(0), fabric.CauseNone
	if violation {
		aSeq, aKind, _ = e.anchors.Best(now, anchorHorizon)
	}
	e.annotate(KindTraceHour, now, "", p99, e.spec.SLOP99Ms, detail, aSeq, aKind)
}

// RegisterProm exports the engine's latency histogram on reg under
// PromHistogramName as a proper cumulative-bucket Prometheus histogram,
// carrying bucket exemplars when request tracing is enabled. Idempotent.
func (e *Engine) RegisterProm(reg *obs.Registry) {
	if reg == nil || e.promOn {
		return
	}
	e.promOn = true
	e.promUpdate()
	reg.RegisterHistogramProvider(PromHistogramName, e.promHistogram)
}

// promUpdate publishes the run+hour histogram as an immutable snapshot;
// flush calls it hourly so /metrics tracks the run without touching the
// hot path.
func (e *Engine) promUpdate() {
	comb := e.runHist
	comb.merge(&e.hourHist)
	snap := obs.HistogramSnapshot{Count: comb.total(), Sum: comb.sum}
	for i := 0; i < histBuckets; i++ {
		n := comb.counts[i]
		if n == 0 {
			continue
		}
		bc := obs.BucketCount{Le: BucketBound(i), Count: n}
		ex := e.runHist.exemplarAt(i)
		if ex.id == 0 {
			ex = e.hourHist.exemplarAt(i)
		}
		if ex.id != 0 {
			bc.Exemplar = &obs.Exemplar{TraceID: reqtrace.IDString(ex.id), Value: ex.ms}
		}
		snap.Buckets = append(snap.Buckets, bc)
	}
	e.promMu.Lock()
	e.promSnap = snap
	e.promMu.Unlock()
}

func (e *Engine) promHistogram() obs.HistogramSnapshot {
	e.promMu.Lock()
	defer e.promMu.Unlock()
	return e.promSnap
}
