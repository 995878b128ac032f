package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDisabledPathZeroAlloc is the contract the fabric hot paths rely
// on: with the layer disabled (nil handles), every per-event operation —
// span start/end with attributes, counter adds, gauge sets, histogram
// observations, instants, log lines — allocates nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var o *Obs
	c := o.Counter("x")
	g := o.Gauge("y")
	h := o.Histogram("z")
	l := o.Log()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := o.Span("plb.place", Str("service", "db-1"), Int("replicas", 4))
		c.Add(3)
		g.Set(17.5)
		h.Observe(0.25)
		o.Instant("marker", Int("n", 1))
		o.Emit("build", time.Time{}, time.Second, Float("gb", 12))
		l.Infof("never written %d", 7)
		sp.End(Int("candidates", 9), Bool("ok", true))
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.1f/op, want 0", allocs)
	}
}

func TestSpanNestingAndParentLinkage(t *testing.T) {
	o := New(Options{})
	base := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	now := base
	o.SetNow(func() time.Time { return now })

	outer := o.Span("outer")
	now = now.Add(time.Minute)
	inner := o.Span("inner", Str("k", "v"))
	now = now.Add(time.Minute)
	inner.End()
	sibling := o.Span("sibling")
	sibling.End()
	now = now.Add(time.Minute)
	outer.End()

	spans, _ := o.tracer.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]spanRecord{}
	for _, s := range spans {
		byName[s.name] = s
	}
	out, in, sib := byName["outer"], byName["inner"], byName["sibling"]
	if in.parent != out.id {
		t.Errorf("inner.parent = %d, want outer id %d", in.parent, out.id)
	}
	if sib.parent != out.id {
		t.Errorf("sibling.parent = %d, want outer id %d", sib.parent, out.id)
	}
	if out.parent != 0 {
		t.Errorf("outer.parent = %d, want 0", out.parent)
	}
	if got := out.simEnd.Sub(out.simStart); got != 3*time.Minute {
		t.Errorf("outer sim duration = %v, want 3m", got)
	}
	if got := in.simEnd.Sub(in.simStart); got != time.Minute {
		t.Errorf("inner sim duration = %v, want 1m", got)
	}
}

func TestTracerBounding(t *testing.T) {
	o := New(Options{MaxTraceEvents: 5})
	for i := 0; i < 9; i++ {
		o.Instant("e")
	}
	if got := o.Tracer().Len(); got != 5 {
		t.Errorf("buffered = %d, want 5", got)
	}
	if got := o.Tracer().Dropped(); got != 4 {
		t.Errorf("dropped = %d, want 4", got)
	}
}

// TestTraceEventJSONFormat checks the export is a valid Chrome/Perfetto
// trace: a JSON array of objects carrying name/ph/ts/dur/pid/tid/args.
func TestTraceEventJSONFormat(t *testing.T) {
	o := New(Options{})
	base := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	now := base
	o.SetNow(func() time.Time { return now })

	sp := o.Span("plb.place", Str("service", "db-7"))
	now = now.Add(90 * time.Second)
	sp.End(Int("candidates", 11))
	o.Emit("fabric.replica_build", now, 40*time.Minute, Float("disk_gb", 500))

	var buf bytes.Buffer
	if err := o.Tracer().WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var complete int
	for _, ev := range events {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid", "args"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %v missing key %q", ev, key)
			}
		}
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("no complete (ph=X) events exported")
	}

	// The sim-time place span lasts 90 simulated seconds.
	found := false
	for _, ev := range events {
		if ev["name"] == "plb.place" && ev["pid"] == float64(SimPID) {
			found = true
			if ev["dur"] != float64(90*time.Second/time.Microsecond) {
				t.Errorf("plb.place sim dur = %v µs, want 9e7", ev["dur"])
			}
			args := ev["args"].(map[string]any)
			if args["service"] != "db-7" || args["candidates"] != float64(11) {
				t.Errorf("plb.place args = %v", args)
			}
		}
	}
	if !found {
		t.Fatal("plb.place span missing from sim timeline")
	}

	// JSONL: one valid object per line.
	buf.Reset()
	if err := o.Tracer().WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(events) {
		t.Errorf("JSONL has %d lines, want %d", len(lines), len(events))
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

func TestForkTracksShareBuffers(t *testing.T) {
	root := New(Options{})
	a := root.Fork("density-100%")
	b := root.Fork("density-140%")
	a.Instant("ev-a")
	b.Instant("ev-b")
	a.Counter("shared").Add(2)
	b.Counter("shared").Add(3)
	if got := root.Registry().Counter("shared").Value(); got != 5 {
		t.Errorf("shared counter = %d, want 5", got)
	}
	spans, tracks := root.tracer.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].tid == spans[1].tid {
		t.Error("forked tracks share a tid")
	}
	names := map[string]bool{}
	for _, n := range tracks {
		names[n] = true
	}
	if !names["density-100%"] || !names["density-140%"] {
		t.Errorf("track names = %v", tracks)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("fabric.failovers").Add(7)
	r.Gauge("telemetry.live_dbs").Set(220)
	h := r.Histogram("fabric.build_seconds")
	h.Observe(0.5)
	h.Observe(1800)
	h.Observe(3600)
	h.Observe(2e12) // overflow bucket

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["fabric.failovers"] != 7 {
		t.Errorf("counter = %d, want 7", snap.Counters["fabric.failovers"])
	}
	if snap.Gauges["telemetry.live_dbs"] != 220 {
		t.Errorf("gauge = %v, want 220", snap.Gauges["telemetry.live_dbs"])
	}
	hs := snap.Histograms["fabric.build_seconds"]
	if hs.Count != 4 || hs.Overflow != 1 {
		t.Errorf("hist count=%d overflow=%d, want 4 and 1", hs.Count, hs.Overflow)
	}
	if want := 0.5 + 1800 + 3600 + 2e12; hs.Sum != want {
		t.Errorf("hist sum=%v, want %v", hs.Sum, want)
	}
	var bucketed int64
	for _, b := range hs.Buckets {
		bucketed += b.Count
	}
	if bucketed+hs.Overflow != hs.Count {
		t.Errorf("buckets sum to %d + overflow %d, want %d", bucketed, hs.Overflow, hs.Count)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	cases := []struct {
		v  float64
		le float64 // expected inclusive upper bound; 0 = underflow, inf = overflow
	}{
		{0, 0},
		{-3, 0},
		{1e-4, 0},
		{1, 1},
		{1.5, 2},
		{2, 2},
		{1000, 1024},
		{1024, 1024},
		{1025, 2048},
		{float64(1 << 29), float64(1 << 29)},
		{2e12, math.Inf(1)},
	}
	for _, c := range cases {
		idx := histBucket(c.v)
		switch {
		case math.IsInf(c.le, 1):
			if idx != histBuckets-1 {
				t.Errorf("histBucket(%v) = %d, want overflow %d", c.v, idx, histBuckets-1)
			}
		case c.le == 0:
			if idx != 0 {
				t.Errorf("histBucket(%v) = %d, want underflow 0", c.v, idx)
			}
		default:
			le := math.Ldexp(1, histMinExp+idx)
			lower := le / 2
			if c.v > le || (idx > 0 && c.v <= lower) {
				t.Errorf("histBucket(%v) → bucket (%v, %v], value outside", c.v, lower, le)
			}
			if le != c.le {
				t.Errorf("histBucket(%v) bound = %v, want %v", c.v, le, c.le)
			}
		}
	}
}

func TestLoggerSimTimestamps(t *testing.T) {
	o := New(Options{LogWriter: &bytes.Buffer{}, LogLevel: LevelWarn})
	buf := &bytes.Buffer{}
	o.log.out.w = buf
	sim := time.Date(2020, 6, 3, 14, 30, 0, 0, time.UTC)
	o.SetNow(func() time.Time { return sim })
	o.Log().Infof("hidden")
	o.Log().Warnf("stranded %d replicas", 2)
	out := buf.String()
	if want := "2020-06-03T14:30:00Z WARN  stranded 2 replicas\n"; out != want {
		t.Errorf("log output %q, want %q", out, want)
	}
}

// TestWriteFileReplacesWhole checks the artifact writer behind -trace-out,
// -metrics-out and tototrain -o: a failed write leaves the previous file
// as it was and no temp file beside it, and a good one replaces the file
// whole, readable by all.
func TestWriteFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.xml")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(content string, fail error) error {
		return WriteFile(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	check := func(stage, want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s: file holds %q (%v), want %q", stage, got, err, want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Errorf("%s: %d entries in the directory, want only the artifact", stage, len(entries))
		}
	}
	interrupted := errors.New("interrupted")
	if err := write("trunc", interrupted); !errors.Is(err, interrupted) {
		t.Fatalf("failed write returned %v", err)
	}
	check("after a failed write", "old")
	if err := write("new", nil); err != nil {
		t.Fatal(err)
	}
	check("after a good write", "new")
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("artifact mode %v, want 0644", fi.Mode().Perm())
	}
}
