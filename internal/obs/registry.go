package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a lock-cheap metrics registry. Handle lookup (get-or-create
// by name) takes a mutex once, at instrumentation setup; the handles
// themselves update with single atomic operations, so any subsystem can
// bump them from a hot path. All handle methods are nil-receiver no-ops,
// so code instrumented against a disabled layer pays nothing.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	providers map[string]func() HistogramSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		// providers is allocated lazily: most registries never host one.
	}
}

// RegisterHistogramProvider registers a callback that supplies a
// ready-made histogram snapshot under name — for subsystems that keep
// their own histogram layout (e.g. the traffic plane's latency buckets)
// instead of observing into a registry Histogram. The provider is called
// during Snapshot and must be safe from any goroutine. A provider
// shadows a same-named registry histogram. Nil-registry no-op.
func (r *Registry) RegisterHistogramProvider(name string, fn func() HistogramSnapshot) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.providers == nil {
		r.providers = make(map[string]func() HistogramSnapshot)
	}
	r.providers[name] = fn
}

// Counter returns the named counter, registering it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d. No-op on nil.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: fixed log-scale (power-of-two) upper bounds
// 2^histMinExp .. 2^histMaxExp, plus an underflow bucket for values
// ≤ 2^histMinExp (including zero and negatives) and an overflow bucket.
// The fixed layout keeps Observe a single atomic add with no sizing
// state, at the cost of ~2x bound resolution — plenty for durations,
// gigabytes, and iteration counts spanning many decades.
const (
	histMinExp  = -10 // 2^-10 ≈ 1e-3: sub-millisecond / sub-MB underflow
	histMaxExp  = 30  // 2^30 ≈ 1e9
	histBuckets = histMaxExp - histMinExp + 2
)

// Histogram counts float64 observations into fixed log-scale buckets.
type Histogram struct {
	counts  [histBuckets]atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records v. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[histBucket(v)].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// histBucket maps v to its bucket index: 0 is the underflow bucket
// (v ≤ 2^histMinExp), histBuckets-1 the overflow bucket.
func histBucket(v float64) int {
	if !(v > math.Ldexp(1, histMinExp)) { // also catches NaN, 0, negatives
		return 0
	}
	e := math.Ilogb(v)
	if math.Ldexp(1, e) < v {
		e++
	}
	if e > histMaxExp {
		return histBuckets - 1
	}
	return e - histMinExp
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Exemplar ties a histogram bucket to one concrete observation — a kept
// request trace's ID and exact value — following the OpenMetrics
// exemplar idea.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// BucketCount is one non-empty histogram bucket in a snapshot. Le is the
// bucket's inclusive upper bound. Exemplar is non-nil only when the
// producing subsystem attached a trace exemplar to the bucket.
type BucketCount struct {
	Le       float64   `json:"le"`
	Count    int64     `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is one histogram's exported state. Overflow counts
// observations above the largest finite bucket bound (JSON cannot carry
// an infinite "le").
type HistogramSnapshot struct {
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	CapturedAt time.Time                    `json:"captured_at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		CapturedAt: time.Now(),
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		for i := 0; i < histBuckets-1; i++ {
			n := h.counts[i].Load()
			if n == 0 {
				continue
			}
			hs.Buckets = append(hs.Buckets, BucketCount{Le: math.Ldexp(1, histMinExp+i), Count: n})
		}
		hs.Overflow = h.counts[histBuckets-1].Load()
		s.Histograms[name] = hs
	}
	// Providers must not call back into this registry (r.mu is held).
	for name, fn := range r.providers {
		s.Histograms[name] = fn()
	}
	return s
}

// WriteJSON writes a snapshot of the registry as indented JSON. Map keys
// marshal in sorted order, so the output is diffable across runs.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
