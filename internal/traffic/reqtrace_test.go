package traffic_test

import (
	"bytes"
	"strings"
	"testing"

	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
	"toto/internal/traffic"
)

// goldenTracedStreamHash locks the sampled-trace stream: the SHA-256 of
// every request-trace and request-trace-hour annotation (same field
// digest as the traffic golden) from the seed-11 outage day traced at
// 1-in-200. Tail-based sampling is part of the determinism contract —
// if this moves, the sampler's keep decisions or the span assembly
// changed and the commit must say why.
const (
	goldenTracedStreamHash  = "b869ab01f2bb7ab7d036730000439bcda156c1aa7e8ff4432a58259c36efb622"
	goldenTracedStreamCount = 3778
)

func tracedSpec() *traffic.Spec {
	return &traffic.Spec{
		Seed:     11,
		Reqtrace: &reqtrace.Spec{SampleOneIn: 200, RingSize: 64},
	}
}

// traceKind matches the annotation kinds the tracer adds on top of the
// traffic plane's vocabulary.
func traceKind(kind string) bool {
	return kind == traffic.KindRequestTrace || kind == traffic.KindTraceHour
}

// TestTracedRunLeavesPlaneUntouched is the inertness contract from the
// other side: with tracing ENABLED, the traffic plane's annotation
// stream still matches the untraced golden byte for byte, and every
// aggregate stat is identical. Tracing observes the plane; it never
// steers it.
func TestTracedRunLeavesPlaneUntouched(t *testing.T) {
	var untracedBuf, tracedBuf bytes.Buffer
	uw := journal.NewWriter(&untracedBuf)
	untracedStats, _ := runDay(t, dayOpts{spec: &traffic.Spec{Seed: 11}, outage: true, w: uw})
	tw := journal.NewWriter(&tracedBuf)
	tracedStats, _ := runDay(t, dayOpts{spec: tracedSpec(), outage: true, w: tw})

	untraced, err := journal.Read(&untracedBuf)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := journal.Read(&tracedBuf)
	if err != nil {
		t.Fatal(err)
	}

	uh, un := annotationHash(untraced, trafficKind)
	th, tn := annotationHash(traced, trafficKind)
	if uh != th || un != tn {
		t.Errorf("tracing perturbed the traffic plane: untraced %s/%d, traced %s/%d", uh, un, th, tn)
	}
	if th != goldenTrafficEventStreamHash || tn != goldenTrafficEventStreamCount {
		t.Errorf("traced run's traffic stream = %s/%d, want golden %s/%d",
			th, tn, goldenTrafficEventStreamHash, goldenTrafficEventStreamCount)
	}

	if tracedStats.Reqtrace == nil {
		t.Fatal("traced run reported no sampler stats")
	}
	u, tr := untracedStats, tracedStats
	u.Reqtrace, tr.Reqtrace = nil, nil
	if u != tr {
		t.Errorf("tracing changed aggregate stats:\nuntraced %+v\ntraced   %+v", u, tr)
	}
	if untracedStats.Reqtrace != nil {
		t.Error("untraced run grew sampler stats")
	}
}

// TestTracedEventStreamDeterminism: the sampled-trace stream itself is
// bit-reproducible and pinned by its own golden.
func TestTracedEventStreamDeterminism(t *testing.T) {
	run := func() []journal.Entry {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		runDay(t, dayOpts{spec: tracedSpec(), outage: true, w: w})
		entries, err := journal.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	first, second := run(), run()
	h1, n1 := annotationHash(first, traceKind)
	h2, n2 := annotationHash(second, traceKind)
	if h1 != h2 || n1 != n2 {
		t.Fatalf("trace stream not reproducible: %s/%d vs %s/%d", h1, n1, h2, n2)
	}
	if n1 != goldenTracedStreamCount {
		t.Errorf("trace annotation count = %d, want golden %d", n1, goldenTracedStreamCount)
	}
	if h1 != goldenTracedStreamHash {
		t.Errorf("trace stream hash = %s, want golden %s", h1, goldenTracedStreamHash)
	}
}

// TestTracedJournalContract walks one traced outage day and checks the
// journal-level guarantees the tooling relies on:
//
//   - every kept trace decodes, and a success trace's spans sum to its
//     recorded latency;
//   - every failed request counted by the aggregate error/shed
//     annotations appears in a kept trace with the same causal anchor
//     (tail-sampling coverage), and its root cause is attributable;
//   - the sampler's Kept counter equals the journaled trace count;
//   - every hour annotation carries a p99 exemplar whenever its
//     histogram had samples — SLO-violating hours included.
func TestTracedJournalContract(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	stats, _ := runDay(t, dayOpts{spec: tracedSpec(), outage: true, w: w})
	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	idx := journal.Index(entries)

	var annErrors, annSheds, annRejected float64
	var trErrors, trSheds, trRejected int64
	var traceCount, hourCount, violatingHours int
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation {
			continue
		}
		switch e.Kind {
		case traffic.KindRequestErrors:
			annErrors += e.Value
		case traffic.KindRequestShed:
			annSheds += e.Value
		case traffic.KindTraceHour:
			hourCount++
			if strings.Contains(e.Detail, "violation=1") {
				violatingHours++
			}
			if strings.Contains(e.Detail, "samples=0") {
				continue // empty hour: no traffic, exemplar legitimately absent
			}
			if strings.Contains(e.Detail, "exemplar=missing") {
				t.Errorf("hour at T=%d has samples but no p99 exemplar: %s", e.T, e.Detail)
			}
		case traffic.KindRequestTrace:
			traceCount++
			tr, err := reqtrace.DecodeDetail(e.Detail)
			if err != nil {
				t.Fatalf("seq %d: undecodable trace: %v", e.Seq, err)
			}
			if tr.Count <= 0 {
				t.Errorf("seq %d: trace with count %d", e.Seq, tr.Count)
			}
			switch tr.Outcome {
			case reqtrace.OutcomeError:
				trErrors += tr.Count
			case reqtrace.OutcomeShed:
				trSheds += tr.Count
			case reqtrace.OutcomeRejected:
				trRejected += tr.Count
			case reqtrace.OutcomeOK:
				var sum float64
				for _, sp := range tr.Spans {
					sum += sp.DurMs
				}
				if diff := sum - tr.LatencyMs; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("seq %d: spans sum to %.9f, latency %.9f", e.Seq, sum, tr.LatencyMs)
				}
			}
			if tr.Outcome.Failed() {
				if root := journal.RootCause(idx, e); root == "none" || root == "unknown" {
					t.Errorf("seq %d: failed %s trace has root cause %q", e.Seq, tr.OutcomeS, root)
				}
			}
		}
	}

	if traceCount == 0 {
		t.Fatal("traced run journaled no traces")
	}
	rt := stats.Reqtrace
	if rt == nil {
		t.Fatal("no sampler stats")
	}
	if int64(traceCount) != rt.Kept {
		t.Errorf("journaled %d traces, sampler kept %d", traceCount, rt.Kept)
	}
	if trErrors != int64(annErrors) {
		t.Errorf("error coverage gap: traces carry %d errors, annotations counted %.0f", trErrors, annErrors)
	}
	if trSheds != int64(annSheds) {
		t.Errorf("shed coverage gap: traces carry %d sheds, annotations counted %.0f", trSheds, annSheds)
	}
	if trRejected != stats.BreakerRejected {
		t.Errorf("breaker coverage gap: traces carry %d rejections, stats counted %d", trRejected, stats.BreakerRejected)
	}
	_ = annRejected
	if hourCount != stats.HoursObserved {
		t.Errorf("%d hour annotations, %d hours observed", hourCount, stats.HoursObserved)
	}
	if violatingHours != stats.SLOViolationHours {
		t.Errorf("%d violation hours annotated, stats counted %d", violatingHours, stats.SLOViolationHours)
	}
	if rt.Considered != rt.Kept+rt.Dropped {
		t.Errorf("sampler counters inconsistent: %+v", rt)
	}
	if rt.KeptErrors == 0 || rt.KeptSheds == 0 {
		t.Errorf("outage day should keep error and shed traces: %+v", rt)
	}
}
