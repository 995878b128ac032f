// Package reqtrace is per-request distributed tracing for the simulated
// traffic plane. A served request group's span tree — arrival → queue
// wait → admission → breaker decision → dispatch (node, utilization at
// dispatch) → retry backoff → completion or failure — is built only
// after the sampler has kept the group, so the traffic hot path builds
// and allocates nothing for the traces it drops.
//
// Sampling is tail-based and deterministic: the keep decision uses what
// a group's completion knows — its outcome and whether it is the first
// in its latency bucket — and the engine knows both before it builds a
// single span. The sampler keeps 100% of failed traces (errors, sheds,
// breaker rejections), the first trace landing in each latency-histogram
// bucket per observation hour (so every non-empty bucket — the p99
// bucket of an SLO-violating hour included — carries an exemplar), and
// 1-in-N successes drawn from a dedicated internal/rng stream split off
// the traffic seed. Because the stream is independent and the decision
// order is fixed by the simulation goroutine, a traced run is
// bit-reproducible and the modeled request stream is bit-identical to
// the untraced run.
//
// The engine is aggregate — it serves request groups, not individual
// requests — so one Trace represents Count requests that took the same
// path at the same modeled latency. A kept trace is stored once, in its
// wire form (see AppendDetail): Recorder.Record encodes it into a
// string, keeps that string in the ring and returns it, and the engine
// journals the same string as the annotation's Detail, inside the same
// causal bracket as the failure the trace describes, so a trace's root
// cause is exactly the journal's attribution for the incident. The ring
// holds no caller memory: the caller may reuse its span slice as soon as
// Record returns, and Snapshot decodes fresh Traces from the immutable
// strings.
package reqtrace

import (
	"fmt"
	"sync"

	"toto/internal/rng"
)

// Span names the engine emits, in path order.
const (
	SpanArrival   = "arrival"
	SpanQueueWait = "queue-wait"
	SpanAdmission = "admission"
	SpanBreaker   = "breaker"
	SpanDispatch  = "dispatch"
	SpanBackoff   = "retry-backoff"
	SpanComplete  = "complete"
	SpanError     = "error"
	SpanShed      = "shed"
	SpanReject    = "breaker-reject"
	// SpanHedge marks a hedged dispatch: the speculative second attempt a
	// tail request launched after its hedge delay. Zero duration when the
	// original attempt still won the race.
	SpanHedge = "hedge"
)

// Outcome classifies how a request group ended.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeError
	OutcomeShed
	OutcomeRejected
)

var outcomeNames = [...]string{"ok", "error", "shed", "breaker-rejected"}

// String returns the stable wire name of the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome-%d", int(o))
}

// ParseOutcome inverts String.
func ParseOutcome(s string) (Outcome, bool) {
	for i, name := range outcomeNames {
		if s == name {
			return Outcome(i), true
		}
	}
	return 0, false
}

// Failed reports whether the outcome is a user-visible failure. Failed
// outcomes are always kept by the sampler — that is the tail-based
// sampling contract, fuzz-tested in this package.
func (o Outcome) Failed() bool { return o != OutcomeOK }

// Span is one step of a request group's path. StartMs and DurMs are
// offsets from the group's arrival, in modeled milliseconds. Node and
// Util are set on dispatch spans only: the primary's host node and its
// core utilization at dispatch time.
type Span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
	Node    string  `json:"node,omitempty"`
	Util    float64 `json:"util,omitempty"`
}

// Trace is one kept request group: Count requests that took the same
// path through the front end at the same modeled latency.
type Trace struct {
	ID        uint64  `json:"-"`
	IDHex     string  `json:"id"`
	Time      int64   `json:"t"` // arrival, Unix nanoseconds of sim time
	Service   string  `json:"service"`
	Outcome   Outcome `json:"-"`
	OutcomeS  string  `json:"outcome"`
	Count     int64   `json:"count"`
	LatencyMs float64 `json:"latencyMs"`
	Retries   int     `json:"retries,omitempty"`
	Spans     []Span  `json:"spans"`
}

// IDString formats a trace ID the way every surface prints it: 16
// zero-padded lowercase hex digits.
func IDString(id uint64) string {
	var b [16]byte
	return string(appendID(b[:0], id))
}

// appendID appends id as 16 zero-padded lowercase hex digits.
func appendID(buf []byte, id uint64) []byte {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return append(buf, b[:]...)
}

// TraceID derives the deterministic ID of a trace from its identity:
// the sampler seed, arrival time, service, outcome, and the group's
// index within the tick. FNV-1a over the fields — stable across runs,
// platforms, and worker counts.
func TraceID(seed uint64, t int64, service string, outcome Outcome, group int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(seed)
	mix(uint64(t))
	for i := 0; i < len(service); i++ {
		h ^= uint64(service[i])
		h *= prime64
	}
	mix(uint64(outcome))
	mix(uint64(group))
	return h
}

// Spec is the JSON-configurable sampler policy, carried inside the
// traffic spec's "reqtrace" section. A nil Spec means tracing is off:
// no recorder is constructed and the traffic hot path is untouched.
type Spec struct {
	// SampleOneIn keeps one in this many successful request groups on
	// top of the always-kept failures and per-bucket exemplars.
	// Default 1000.
	SampleOneIn int `json:"sampleOneIn,omitempty"`
	// RingSize bounds the in-memory ring of kept traces served by the
	// live /traces endpoint. Default 512.
	RingSize int `json:"ringSize,omitempty"`
}

// Validate checks the spec's knobs. Nil-safe: nil means tracing off.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.SampleOneIn < 0 {
		return fmt.Errorf("reqtrace: negative sampleOneIn %d", s.SampleOneIn)
	}
	if s.RingSize < 0 {
		return fmt.Errorf("reqtrace: negative ringSize %d", s.RingSize)
	}
	return nil
}

// withDefaults resolves zero knobs.
func (s *Spec) withDefaults() Spec {
	out := *s
	if out.SampleOneIn == 0 {
		out.SampleOneIn = 1000
	}
	if out.RingSize == 0 {
		out.RingSize = 512
	}
	return out
}

// Stats are the sampler's counters. A run's traffic stats carry them
// only when tracing is enabled, so they join the fleet fingerprint of
// traced runs alone.
type Stats struct {
	Considered   int64 // request groups offered to the sampler
	Kept         int64 // traces kept, all policies combined
	KeptErrors   int64 // kept because the group errored
	KeptSheds    int64 // kept because the group was shed
	KeptRejected int64 // kept because a breaker rejected the group
	KeptExemplar int64 // kept as the first trace in a latency bucket
	KeptSampled  int64 // kept by the 1-in-N success draw
	Dropped      int64 // successful groups the sampler let go
}

// Sampler makes tail-based keep decisions. It must only be used from
// the simulation goroutine; its draws come from a stream split off the
// traffic seed so enabling tracing cannot perturb the modeled plane.
type Sampler struct {
	oneIn int
	rnd   *rng.Source
	stats Stats
}

// NewSampler builds a sampler with the resolved spec and its own rng
// stream.
func NewSampler(spec Spec, rnd *rng.Source) *Sampler {
	return &Sampler{oneIn: spec.SampleOneIn, rnd: rnd}
}

// Keep decides whether an offered request group's trace is kept. Failed
// outcomes are always kept. Successful groups are kept when they are
// the first to land in their latency bucket this hour (bucketFirst —
// the exemplar guarantee) or when the 1-in-N draw selects them; the
// draw happens for every successful group so the decision stream
// depends only on the deterministic group order, never on bucket state.
func (s *Sampler) Keep(outcome Outcome, bucketFirst bool) bool {
	s.stats.Considered++
	if outcome.Failed() {
		s.stats.Kept++
		switch outcome {
		case OutcomeError:
			s.stats.KeptErrors++
		case OutcomeShed:
			s.stats.KeptSheds++
		case OutcomeRejected:
			s.stats.KeptRejected++
		}
		return true
	}
	sampled := s.rnd != nil && s.oneIn > 0 && s.rnd.Intn(s.oneIn) == 0
	switch {
	case bucketFirst:
		s.stats.Kept++
		s.stats.KeptExemplar++
	case sampled:
		s.stats.Kept++
		s.stats.KeptSampled++
	default:
		s.stats.Dropped++
		return false
	}
	return true
}

// Stats returns a copy of the sampler's counters.
func (s *Sampler) Stats() Stats { return s.stats }

// Recorder runs the keep decision for every offered request group and
// retains the kept traces in a bounded ring for the live /traces
// endpoint. Keep and Record run on the simulation goroutine only; the
// engine builds a group's trace only after Keep returned true, so a
// dropped group costs one sampler decision and nothing else. The ring,
// and a copy of the sampler counters published with each kept trace,
// are mutex-guarded so an HTTP goroutine may read them mid-run.
type Recorder struct {
	spec    Spec
	sampler *Sampler
	seed    uint64
	buf     []byte // Record's encode buffer, reused across traces

	mu   sync.Mutex
	ring []kept
	next int
	live Stats // sampler counters as of the newest kept trace
}

// kept is one ring entry: what Snapshot filters and orders on, the
// arrival time and service the wire form leaves out, and the wire form
// itself, which holds everything else.
type kept struct {
	time      int64
	service   string
	outcome   Outcome
	latencyMs float64
	detail    string
}

// NewRecorder validates the spec and builds an unbound recorder. Bind
// must be called (the traffic engine does) before traces are recorded.
func NewRecorder(spec *Spec) (*Recorder, error) {
	if spec == nil {
		return nil, fmt.Errorf("reqtrace: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	resolved := spec.withDefaults()
	return &Recorder{
		spec: resolved,
		ring: make([]kept, 0, resolved.RingSize),
	}, nil
}

// Bind attaches the sampler's rng stream and the seed that derives
// trace IDs. Called once by the traffic engine at construction.
func (r *Recorder) Bind(seed uint64, rnd *rng.Source) {
	r.seed = seed
	r.sampler = NewSampler(r.spec, rnd)
}

// Add appends a plain span to the trace.
func (t *Trace) Add(name string, startMs, durMs float64) {
	t.Spans = append(t.Spans, Span{Name: name, StartMs: startMs, DurMs: durMs})
}

// AddDispatch appends a dispatch span carrying the host node and its
// utilization at dispatch time.
func (t *Trace) AddDispatch(startMs, durMs float64, node string, util float64) {
	t.Spans = append(t.Spans, Span{Name: SpanDispatch, StartMs: startMs, DurMs: durMs, Node: node, Util: util})
}

// Keep runs the tail-based keep decision for one offered request group
// (see Sampler.Keep). The engine offers every group, in its fixed serve
// order, before building anything; only a kept group's trace is built
// and passed to Record.
func (r *Recorder) Keep(outcome Outcome, bucketFirst bool) bool {
	return r.sampler.Keep(outcome, bucketFirst)
}

// Record enters a kept trace into the ring and returns its wire form,
// AppendDetail of the stamped trace, which is what the ring stores. tr
// holds the group's time, service, outcome, count, latency, retries and
// spans. Record stamps tr.ID, derived from the seed, time, service,
// outcome and group. group is the group's index within its (time,
// service) tick, so IDs stay unique when one tick emits several groups.
// The ring keeps nothing of tr but the service name, so the caller may
// reuse tr.Spans once Record returns; the returned string is the one
// allocation a kept trace costs.
func (r *Recorder) Record(tr *Trace, group int) string {
	tr.ID = TraceID(r.seed, tr.Time, tr.Service, tr.Outcome, group)
	r.buf = AppendDetail(r.buf[:0], tr)
	k := kept{time: tr.Time, service: tr.Service, outcome: tr.Outcome, latencyMs: tr.LatencyMs, detail: string(r.buf)}
	r.mu.Lock()
	if len(r.ring) < r.spec.RingSize {
		r.ring = append(r.ring, k)
	} else {
		r.ring[r.next] = k
		r.next = (r.next + 1) % r.spec.RingSize
	}
	r.live = r.sampler.stats
	r.mu.Unlock()
	return k.detail
}

// Stats returns the sampler's counters. Call it from the simulation
// goroutine, or from any goroutine once the run has stopped; a reader
// running alongside the simulation uses LiveStats.
func (r *Recorder) Stats() Stats {
	if r.sampler == nil {
		return Stats{}
	}
	return r.sampler.Stats()
}

// LiveStats returns the sampler's counters as published with the newest
// kept trace. Safe for concurrent use with the simulation goroutine: the
// counters move on every offered group without a lock, so a mid-run
// reader sees them as of the last Record, which lags the live counters
// only by the groups dropped since.
func (r *Recorder) LiveStats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live
}

// Query filters a ring snapshot.
type Query struct {
	Service string  // exact match when non-empty
	Outcome string  // outcome name when non-empty
	MinMs   float64 // minimum latency
	Limit   int     // max traces returned (0 = all)
	Slowest bool    // sort by latency descending instead of arrival order
}

// Snapshot returns the kept traces, oldest first, applying the query.
// It filters, orders and trims the ring's entries on their header
// fields under the ring's mutex, then decodes only the traces it
// returns from their wire form, so each call hands out fresh Traces
// that share no memory with the ring or the simulation. Safe for
// concurrent use with the simulation goroutine.
func (r *Recorder) Snapshot(q Query) []Trace {
	r.mu.Lock()
	sel := make([]kept, 0, len(r.ring))
	appendIf := func(k kept) {
		if q.Service != "" && k.service != q.Service {
			return
		}
		if q.Outcome != "" && k.outcome.String() != q.Outcome {
			return
		}
		if k.latencyMs < q.MinMs {
			return
		}
		sel = append(sel, k)
	}
	for i := r.next; i < len(r.ring); i++ {
		appendIf(r.ring[i])
	}
	for i := 0; i < r.next; i++ {
		appendIf(r.ring[i])
	}
	r.mu.Unlock()
	if q.Slowest {
		for i := 1; i < len(sel); i++ { // insertion sort: rings are small
			for j := i; j > 0 && sel[j].latencyMs > sel[j-1].latencyMs; j-- {
				sel[j], sel[j-1] = sel[j-1], sel[j]
			}
		}
	}
	if q.Limit > 0 && len(sel) > q.Limit {
		if q.Slowest {
			sel = sel[:q.Limit]
		} else {
			sel = sel[len(sel)-q.Limit:] // newest when in arrival order
		}
	}
	out := make([]Trace, len(sel))
	for i, k := range sel {
		tr, err := DecodeDetail(k.detail)
		if err != nil {
			panic(fmt.Sprintf("reqtrace: ring entry does not decode: %v", err)) // AppendDetail's output always does
		}
		tr.Time, tr.Service = k.time, k.service
		out[i] = tr
	}
	return out
}
