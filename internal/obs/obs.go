// Package obs is Toto's simulation-time observability layer: a
// lock-cheap metrics registry (counters, gauges, log-scale histograms),
// a span tracer that records nested timed regions in both simulated time
// and wall time, and a leveled sim-timestamped logger.
//
// Every handle in the package is nil-safe: a nil *Obs (the default — no
// -trace-out / -metrics-out flag) turns every call into a no-op that
// performs zero allocations, so instrumentation can live permanently on
// the orchestrator's hot paths. Spans record the simulation clock (the
// timeline the paper's figures are drawn on) alongside the wall clock
// (where the reproduction's own compute time goes); traces export to
// Chrome trace-event JSON that opens directly in chrome://tracing or
// https://ui.perfetto.dev.
//
// One *Obs is a single-threaded handle onto a shared Tracer/Registry:
// parallel runs (the fleet.Run cells of bench.RunStudy, whose Configure
// hook forks per run) call Fork to get their own span track while
// aggregating into the same buffers.
package obs

import (
	"io"
	"time"
)

// Obs bundles the tracer, registry, and logger handles one simulation run
// instruments itself with. The zero value is not used; a nil *Obs is the
// disabled layer.
type Obs struct {
	tracer *Tracer
	reg    *Registry
	log    *Logger
	// now is the simulation clock; nil falls back to wall time (CLI
	// phases that run before a scenario clock exists).
	now func() time.Time
	tid int64
	// cur is the id of the innermost open span on this track, used for
	// parent linkage. A track is single-threaded (the sim clock fires
	// events sequentially), so no lock is needed.
	cur int64
}

// Options configures a new observability layer.
type Options struct {
	// MaxTraceEvents bounds the tracer's in-memory span buffer; beyond
	// it events are counted as dropped. 0 means DefaultMaxTraceEvents.
	MaxTraceEvents int
	// LogWriter receives log lines (default io.Discard).
	LogWriter io.Writer
	// LogLevel is the minimum level written (default LevelInfo).
	LogLevel Level
}

// DefaultMaxTraceEvents bounds the span buffer at roughly 100 MB.
const DefaultMaxTraceEvents = 1 << 20

// New builds an enabled observability layer with its own tracer,
// registry, and logger, and a first span track named "main".
func New(opt Options) *Obs {
	if opt.MaxTraceEvents <= 0 {
		opt.MaxTraceEvents = DefaultMaxTraceEvents
	}
	w := opt.LogWriter
	if w == nil {
		w = io.Discard
	}
	t := newTracer(opt.MaxTraceEvents)
	return &Obs{
		tracer: t,
		reg:    NewRegistry(),
		log:    newLogger(w, opt.LogLevel),
		tid:    t.newTrack("main"),
	}
}

// Fork returns a new handle on the same tracer, registry, and log output
// with its own span track — one per concurrent simulation run.
func (o *Obs) Fork(track string) *Obs {
	if o == nil {
		return nil
	}
	return &Obs{
		tracer: o.tracer,
		reg:    o.reg,
		log:    o.log.fork(),
		tid:    o.tracer.newTrack(track),
	}
}

// SetNow binds the simulation clock; spans and log lines started after
// this carry simulated timestamps. Called by the orchestrator once its
// clock exists.
func (o *Obs) SetNow(now func() time.Time) {
	if o == nil {
		return
	}
	o.now = now
	o.log.setNow(now)
}

// Registry returns the metrics registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the span tracer (nil when disabled).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Log returns the logger (nil when disabled, which is itself a no-op).
func (o *Obs) Log() *Logger {
	if o == nil {
		return nil
	}
	return o.log
}

// Counter returns the named registry counter (nil, a no-op, when
// disabled).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name)
}

// Gauge returns the named registry gauge.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name)
}

// Histogram returns the named registry histogram.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name)
}

func (o *Obs) simNow() time.Time {
	if o.now != nil {
		return o.now()
	}
	return time.Now()
}

// Span opens a nested timed region. End must be called in LIFO order on
// the same track (the usual lexical nesting). On a nil *Obs the returned
// Span is inert and End is free.
func (o *Obs) Span(name string, attrs ...Attr) Span {
	if o == nil {
		return Span{}
	}
	s := Span{
		o:         o,
		name:      name,
		id:        o.tracer.nextID(),
		parent:    o.cur,
		simStart:  o.simNow(),
		wallStart: time.Now(),
	}
	if len(attrs) > 0 {
		s.attrs = append([]Attr(nil), attrs...)
	}
	o.cur = s.id
	return s
}

// End closes the span, recording its sim and wall durations plus any
// final attributes.
func (s Span) End(attrs ...Attr) {
	if s.o == nil {
		return
	}
	s.o.endSpan(s, attrs)
}

func (o *Obs) endSpan(s Span, attrs []Attr) {
	o.cur = s.parent
	all := s.attrs
	if len(attrs) > 0 {
		all = append(all, attrs...)
	}
	o.tracer.record(spanRecord{
		name:      s.name,
		tid:       o.tid,
		id:        s.id,
		parent:    s.parent,
		simStart:  s.simStart,
		simEnd:    o.simNow(),
		wallStart: s.wallStart,
		wallEnd:   time.Now(),
		attrs:     all,
	})
}

// Emit records a pre-timed span on the simulated timeline — a region
// whose duration the simulation computed rather than executed, like a
// replica build or a downtime window.
func (o *Obs) Emit(name string, simStart time.Time, simDur time.Duration, attrs ...Attr) {
	if o == nil {
		return
	}
	var copied []Attr
	if len(attrs) > 0 {
		copied = append([]Attr(nil), attrs...)
	}
	now := time.Now()
	o.tracer.record(spanRecord{
		name:     name,
		tid:      o.tid,
		id:       o.tracer.nextID(),
		parent:   o.cur,
		simStart: simStart,
		simEnd:   simStart.Add(simDur),
		// No wall-time extent: the region never executed for real.
		wallStart: now,
		wallEnd:   now,
		attrs:     copied,
	})
}

// Instant records a zero-duration marker at the current sim time.
func (o *Obs) Instant(name string, attrs ...Attr) {
	if o == nil {
		return
	}
	var copied []Attr
	if len(attrs) > 0 {
		copied = append([]Attr(nil), attrs...)
	}
	now := time.Now()
	o.tracer.record(spanRecord{
		name:      name,
		tid:       o.tid,
		id:        o.tracer.nextID(),
		parent:    o.cur,
		simStart:  o.simNow(),
		simEnd:    o.simNow(),
		wallStart: now,
		wallEnd:   now,
		instant:   true,
		attrs:     copied,
	})
}

// Span is an open timed region. The zero value (from a disabled layer)
// is inert.
type Span struct {
	o         *Obs
	name      string
	id        int64
	parent    int64
	simStart  time.Time
	wallStart time.Time
	attrs     []Attr
}

// Attr is one key/value span attribute. Values are held unboxed so
// building attributes never allocates.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  float64
	i    int64
}

type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: attrStr, str: v} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: attrInt, i: int64(v)} }

// I64 builds an int64 attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, num: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// DurMS builds a float attribute holding d in milliseconds.
func DurMS(key string, d time.Duration) Attr {
	return Attr{Key: key, kind: attrFloat, num: float64(d) / float64(time.Millisecond)}
}

// Value returns the attribute's value as an interface (export path only).
func (a Attr) Value() any {
	switch a.kind {
	case attrStr:
		return a.str
	case attrInt:
		return a.i
	case attrFloat:
		return a.num
	default:
		return a.i != 0
	}
}
