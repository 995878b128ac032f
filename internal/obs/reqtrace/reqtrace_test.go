package reqtrace

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"toto/internal/rng"
)

// TestEncodeDecodeRoundTrip: every field — including shortest-form
// floats — survives the annotation wire format bit-identically.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	traces := []Trace{
		{
			ID: 0xdeadbeefcafe1234, Outcome: OutcomeOK, Count: 812,
			LatencyMs: 3.0000000000000004, Retries: 0,
			Spans: []Span{
				{Name: SpanArrival, StartMs: 0, DurMs: 0},
				{Name: SpanQueueWait, StartMs: 0, DurMs: 2.5},
				{Name: SpanDispatch, StartMs: 2.5, DurMs: 0.5000000000000001, Node: "node-7", Util: 0.8499999999999999},
				{Name: SpanComplete, StartMs: 3.0000000000000004, DurMs: 0},
			},
		},
		{
			ID: 1, Outcome: OutcomeError, Count: 3, LatencyMs: 120.25, Retries: 1,
			Spans: []Span{
				{Name: SpanBreaker, StartMs: 0, DurMs: 0},
				{Name: SpanDispatch, StartMs: 0, DurMs: 120.25, Node: "node-1"},
				{Name: SpanError, StartMs: 120.25, DurMs: 0},
			},
		},
		{ID: 42, Outcome: OutcomeShed, Count: 999, LatencyMs: 0}, // no spans
		{ID: ^uint64(0), Outcome: OutcomeRejected, Count: 1, LatencyMs: 1e-9,
			Spans: []Span{{Name: SpanReject, StartMs: 0, DurMs: 0}}},
	}
	for _, in := range traces {
		in.IDHex = IDString(in.ID)
		in.OutcomeS = in.Outcome.String()
		wire := string(AppendDetail(nil, &in))
		out, err := DecodeDetail(wire)
		if err != nil {
			t.Fatalf("decode %q: %v", wire, err)
		}
		if out.ID != in.ID || out.IDHex != in.IDHex || out.Outcome != in.Outcome ||
			out.OutcomeS != in.OutcomeS || out.Count != in.Count ||
			out.LatencyMs != in.LatencyMs || out.Retries != in.Retries {
			t.Fatalf("header mismatch:\n in=%+v\nout=%+v\nwire=%q", in, out, wire)
		}
		if len(out.Spans) != len(in.Spans) {
			t.Fatalf("span count %d != %d for %q", len(out.Spans), len(in.Spans), wire)
		}
		for i := range in.Spans {
			if out.Spans[i] != in.Spans[i] {
				t.Fatalf("span %d mismatch:\n in=%+v\nout=%+v\nwire=%q", i, in.Spans[i], out.Spans[i], wire)
			}
		}
		// Re-encoding the decoded trace must reproduce the wire bytes.
		if again := string(AppendDetail(nil, &out)); again != wire {
			t.Fatalf("re-encode drifted:\n first=%q\nsecond=%q", wire, again)
		}
	}
}

// TestDecodeDetailErrors: malformed wire strings produce errors, never
// panics or silent zero traces.
func TestDecodeDetailErrors(t *testing.T) {
	bad := []string{
		"",
		"0001|ok|1|2.5",               // too few fields
		"zzzz|ok|1|2.5|0|",            // bad hex id
		"0001|huh|1|2.5|0|",           // unknown outcome
		"0001|ok|x|2.5|0|",            // bad count
		"0001|ok|1|ms|0|",             // bad latency
		"0001|ok|1|2.5|x|",            // bad retries
		"0001|ok|1|2.5|0|arrival",     // span without @
		"0001|ok|1|2.5|0|arrival@0",   // span without +
		"0001|ok|1|2.5|0|a@0+1~pct",   // bad util
		"0001|ok|1|2.5|0|a@zero+1",    // bad start
		"0001|ok|1|2.5|0|a@0+one@n-1", // bad duration
	}
	for _, wire := range bad {
		if _, err := DecodeDetail(wire); err == nil {
			t.Errorf("DecodeDetail(%q) accepted malformed input", wire)
		}
	}
}

// TestTraceIDStable pins the FNV mix: IDs must never drift across
// refactors, or journaled exemplar references go dangling.
func TestTraceIDStable(t *testing.T) {
	a := TraceID(11, 1e18, "db-7", OutcomeOK, 3)
	if b := TraceID(11, 1e18, "db-7", OutcomeOK, 3); a != b {
		t.Fatalf("TraceID not deterministic: %016x != %016x", a, b)
	}
	distinct := map[uint64]string{}
	for name, id := range map[string]uint64{
		"base":    a,
		"seed":    TraceID(12, 1e18, "db-7", OutcomeOK, 3),
		"time":    TraceID(11, 1e18+1, "db-7", OutcomeOK, 3),
		"service": TraceID(11, 1e18, "db-8", OutcomeOK, 3),
		"outcome": TraceID(11, 1e18, "db-7", OutcomeError, 3),
		"group":   TraceID(11, 1e18, "db-7", OutcomeOK, 4),
	} {
		if prev, dup := distinct[id]; dup {
			t.Fatalf("TraceID collision between %s and %s", prev, name)
		}
		distinct[id] = name
	}
	if got := IDString(0xabc); got != "0000000000000abc" {
		t.Fatalf("IDString = %q", got)
	}
}

// TestSamplerDeterministic: the same rng stream yields the same keep
// decisions and counters, decision by decision.
func TestSamplerDeterministic(t *testing.T) {
	run := func() ([]bool, Stats) {
		s := NewSampler(Spec{SampleOneIn: 10, RingSize: 4}, rng.New(77).Split("reqtrace"))
		var keeps []bool
		for i := 0; i < 500; i++ {
			outcome := OutcomeOK
			switch i % 97 {
			case 13:
				outcome = OutcomeError
			case 41:
				outcome = OutcomeShed
			case 89:
				outcome = OutcomeRejected
			}
			keeps = append(keeps, s.Keep(outcome, i%113 == 0))
		}
		return keeps, s.Stats()
	}
	k1, st1 := run()
	k2, st2 := run()
	if st1 != st2 {
		t.Fatalf("sampler stats diverged:\n%+v\n%+v", st1, st2)
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("keep decision %d diverged", i)
		}
	}
	if st1.Considered != 500 || st1.Kept+st1.Dropped != 500 {
		t.Fatalf("counters don't add up: %+v", st1)
	}
	if st1.KeptErrors == 0 || st1.KeptSheds == 0 || st1.KeptRejected == 0 ||
		st1.KeptExemplar == 0 || st1.KeptSampled == 0 {
		t.Fatalf("expected every keep class to fire: %+v", st1)
	}
}

// TestSamplerDrawIndependentOfBucketState: the 1-in-N draw is made for
// every successful group regardless of bucketFirst, so downstream
// decisions cannot shift when exemplar state differs.
func TestSamplerDrawIndependentOfBucketState(t *testing.T) {
	run := func(bucketFirstFirst bool) []bool {
		s := NewSampler(Spec{SampleOneIn: 3}, rng.New(5).Split("reqtrace"))
		s.Keep(OutcomeOK, bucketFirstFirst)
		var rest []bool
		for i := 0; i < 100; i++ {
			rest = append(rest, s.Keep(OutcomeOK, false))
		}
		return rest
	}
	a, b := run(true), run(false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d shifted with bucket state", i)
		}
	}
}

// TestRecorderRingAndSnapshot: Record stamps each kept trace's ID and
// returns its wire form; ring rotation keeps the newest RingSize traces;
// the ring keeps nothing of the caller's trace, whose spans the caller
// reuses; every snapshot trace equals the recorded one field by field;
// the published counters follow the kept traces; and Snapshot's filters
// and ordering behave.
func TestRecorderRingAndSnapshot(t *testing.T) {
	rec, err := NewRecorder(&Spec{SampleOneIn: 1, RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec.Bind(9, rng.New(9).Split("reqtrace"))
	spans := make([]Span, 0, 2) // one span buffer, reused as the engine reuses its own
	recorded := map[int64]Trace{}
	for i := 0; i < 10; i++ {
		svc := "svc-a"
		if i%2 == 1 {
			svc = "svc-b"
		}
		outcome := OutcomeOK
		if i == 9 {
			outcome = OutcomeError
		}
		if !rec.Keep(outcome, true) {
			t.Fatalf("trace %d not kept (SampleOneIn=1, bucketFirst)", i)
		}
		tr := Trace{Time: int64(i), Service: svc, Outcome: outcome, Count: 10, LatencyMs: float64(i),
			Retries: i % 3, Spans: spans[:0]}
		tr.Add(SpanArrival, 0, 0)
		tr.AddDispatch(0, float64(i), "node-1", 0.5)
		wire := rec.Record(&tr, i)
		if tr.ID != TraceID(9, int64(i), svc, outcome, i) {
			t.Fatalf("trace %d not stamped: ID %016x", i, tr.ID)
		}
		if want := string(AppendDetail(nil, &tr)); wire != want {
			t.Fatalf("trace %d: Record returned %q, want AppendDetail of the stamped trace %q", i, wire, want)
		}
		want := tr
		want.IDHex, want.OutcomeS = IDString(tr.ID), outcome.String()
		want.Spans = append([]Span(nil), tr.Spans...)
		recorded[want.Time] = want
		// The caller reuses its spans and header at once: none of it may
		// show in the ring.
		tr.Spans[1].Node, tr.Spans[1].DurMs, tr.Service = "mutated", -1, "mutated"
		spans = tr.Spans
	}

	all := rec.Snapshot(Query{})
	if len(all) != 4 {
		t.Fatalf("ring holds %d traces, want RingSize=4", len(all))
	}
	// Oldest first: times 6,7,8,9 survive the rotation, each equal to the
	// trace as recorded, Time, Service and IDHex included.
	for i, tr := range all {
		if tr.Time != int64(6+i) {
			t.Fatalf("ring order: slot %d has time %d", i, tr.Time)
		}
		if want := recorded[tr.Time]; !reflect.DeepEqual(tr, want) {
			t.Fatalf("ring trace %d differs from the recorded one:\n got %+v\nwant %+v", i, tr, want)
		}
	}

	// The mid-run counters are published with each kept trace: a group
	// offered after the last Record shows in Stats, not yet in LiveStats.
	if live, st := rec.LiveStats(), rec.Stats(); live != st || st.Kept != 10 {
		t.Fatalf("published counters %+v, sampler %+v, want both at 10 kept", live, st)
	}
	rec.Keep(OutcomeOK, false)
	if live, st := rec.LiveStats(), rec.Stats(); live.Considered != 10 || st.Considered != 11 {
		t.Fatalf("published %d considered, sampler %d; want 10 and 11", live.Considered, st.Considered)
	}

	if got := rec.Snapshot(Query{Service: "svc-b"}); len(got) != 2 {
		t.Fatalf("service filter: %d traces", len(got))
	}
	if got := rec.Snapshot(Query{Outcome: "error"}); len(got) != 1 || got[0].Time != 9 {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := rec.Snapshot(Query{MinMs: 8}); len(got) != 2 {
		t.Fatalf("min-ms filter: %d traces", len(got))
	}
	slow := rec.Snapshot(Query{Slowest: true, Limit: 2})
	if len(slow) != 2 || slow[0].LatencyMs != 9 || slow[1].LatencyMs != 8 {
		t.Fatalf("slowest ordering: %+v", slow)
	}
	newest := rec.Snapshot(Query{Limit: 2})
	if len(newest) != 2 || newest[0].Time != 8 || newest[1].Time != 9 {
		t.Fatalf("arrival-order limit should keep newest: %+v", newest)
	}
}

// TestRecorderConcurrentReaders is the /traces contract: while the
// simulation goroutine offers groups and records kept traces, building
// each one in the same reused span buffer as the engine does, another
// goroutine may snapshot the ring and read the published counters. Every
// counter copy it reads is whole (Kept+Dropped == Considered) and never
// runs backwards, and every span of every snapshot trace is the one its
// own header implies, so no span was torn or overwritten by a later
// trace. Run under -race.
func TestRecorderConcurrentReaders(t *testing.T) {
	rec, err := NewRecorder(&Spec{SampleOneIn: 3, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec.Bind(1, rng.New(1).Split("reqtrace"))
	nodes := [...]string{"node-0", "node-1", "node-2", "node-3"}
	// spansOf is the span tree the writer records for the trace of group
	// i, all of it derived from i, which the trace's Time carries.
	spansOf := func(buf []Span, i int64) []Span {
		lat := float64(i) / 4
		tr := Trace{Spans: buf}
		tr.Add(SpanArrival, 0, 0)
		tr.AddDispatch(0, lat, nodes[i%4], float64(i%100)/128)
		tr.Add(SpanComplete, lat, 0)
		return tr.Spans
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		spans := make([]Span, 0, 3)
		for i := 0; i < 20000; i++ {
			if !rec.Keep(OutcomeOK, false) {
				continue
			}
			tr := Trace{Time: int64(i), Service: "svc", Count: 1, LatencyMs: float64(i) / 4,
				Spans: spansOf(spans[:0], int64(i))}
			rec.Record(&tr, 0)
			spans = tr.Spans
		}
	}()
	var last Stats
	var checked int
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		st := rec.LiveStats()
		if st.Kept+st.Dropped != st.Considered || st.Considered < last.Considered || st.Kept < last.Kept {
			t.Fatalf("mid-run counters torn or running backwards: %+v after %+v", st, last)
		}
		last = st
		for _, tr := range rec.Snapshot(Query{Slowest: true}) {
			want := spansOf(nil, tr.Time)
			if tr.ID != TraceID(1, tr.Time, "svc", OutcomeOK, 0) || tr.IDHex != IDString(tr.ID) ||
				tr.LatencyMs != float64(tr.Time)/4 || !reflect.DeepEqual(tr.Spans, want) {
				t.Fatalf("snapshot trace torn:\n got %+v\nwant spans %+v", tr, want)
			}
			checked++
		}
	}
	if st := rec.Stats(); st.Kept == 0 || rec.LiveStats().Kept != st.Kept || checked == 0 {
		t.Fatalf("after the run: published %+v, sampler %+v, %d traces checked", rec.LiveStats(), st, checked)
	}
}

// TestIDStringMatchesSprintf: the hand-rolled hex writer is exactly
// fmt's %016x, at the edges and on seeded random IDs, and AppendDetail
// writes it without fmt.
func TestIDStringMatchesSprintf(t *testing.T) {
	check := func(id uint64) {
		want := fmt.Sprintf("%016x", id)
		if got := IDString(id); got != want {
			t.Fatalf("IDString(%d) = %q, want %q", id, got, want)
		}
		tr := Trace{ID: id}
		if got := string(AppendDetail(nil, &tr)); !strings.HasPrefix(got, want+"|") {
			t.Fatalf("AppendDetail of ID %d = %q, want prefix %q", id, got, want)
		}
	}
	for _, id := range []uint64{0, 1, 1 << 63, math.MaxUint64} {
		check(id)
	}
	r := rng.New(16)
	for i := 0; i < 100000; i++ {
		check(r.Uint64())
	}
}

// TestAppendDetailZeroAlloc pins the encode half of a kept trace's cost:
// into a warm buffer, AppendDetail allocates nothing, so the Detail
// string is the journal entry's only allocation.
func TestAppendDetailZeroAlloc(t *testing.T) {
	tr := Trace{ID: 0xdeadbeefcafe1234, Outcome: OutcomeOK, Count: 812, LatencyMs: 3.0000000000000004,
		Retries: 1, Spans: []Span{
			{Name: SpanArrival},
			{Name: SpanBackoff, DurMs: 1.25},
			{Name: SpanDispatch, StartMs: 1.25, DurMs: 1.7500000000000004, Node: "node-7", Util: 0.8499999999999999},
			{Name: SpanComplete, StartMs: 3.0000000000000004},
		}}
	buf := AppendDetail(nil, &tr)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendDetail(buf[:0], &tr)
	}); n != 0 {
		t.Errorf("AppendDetail into a warm buffer allocates %.1f", n)
	}
}

// TestSpecValidate: negative knobs rejected, nil and zero specs fine.
func TestSpecValidate(t *testing.T) {
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec: %v", err)
	}
	if err := (&Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if err := (&Spec{SampleOneIn: -1}).Validate(); err == nil {
		t.Fatal("negative sampleOneIn accepted")
	}
	if err := (&Spec{RingSize: -1}).Validate(); err == nil {
		t.Fatal("negative ringSize accepted")
	}
	if _, err := NewRecorder(nil); err == nil {
		t.Fatal("NewRecorder(nil) accepted")
	}
	rec, err := NewRecorder(&Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.spec.SampleOneIn != 1000 || rec.spec.RingSize != 512 {
		t.Fatalf("defaults not applied: %+v", rec.spec)
	}
}

// FuzzKeep is the tail-sampling contract: whatever the spec, rng seed,
// bucket state, or decision history, a failed outcome is never dropped.
func FuzzKeep(f *testing.F) {
	f.Add(uint64(1), 1000, uint8(1), false, uint16(0))
	f.Add(uint64(7), 0, uint8(2), true, uint16(300))
	f.Add(uint64(1<<60), 1, uint8(3), false, uint16(9999))
	f.Fuzz(func(t *testing.T, seed uint64, oneIn int, outcome uint8, bucketFirst bool, warmup uint16) {
		if oneIn < 0 {
			oneIn = -oneIn
		}
		s := NewSampler(Spec{SampleOneIn: oneIn}, rng.New(seed).Split("reqtrace"))
		for i := 0; i < int(warmup)%1024; i++ {
			s.Keep(Outcome(i%4), i%7 == 0) // arbitrary history
		}
		o := Outcome(outcome % 4)
		kept := s.Keep(o, bucketFirst)
		if o.Failed() && !kept {
			t.Fatalf("sampler dropped a failed trace: outcome=%s seed=%d oneIn=%d", o, seed, oneIn)
		}
		if o == OutcomeOK && bucketFirst && !kept {
			t.Fatalf("sampler dropped a bucket-first exemplar: seed=%d oneIn=%d", seed, oneIn)
		}
		st := s.Stats()
		if st.Kept+st.Dropped != st.Considered {
			t.Fatalf("counters inconsistent: %+v", st)
		}
	})
}
