package traffic_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"toto/internal/obs/journal"
	"toto/internal/traffic"
)

// goldenTrafficEventStreamHash locks the traffic plane's annotation
// stream for the seeded outage day (traffic seed 11 over the runDay
// workload). Any change to arrival draws, admission arithmetic, breaker
// timing, retry rationing, or the workload itself shifts this hash — an
// intentional change must re-record both constants.
const (
	goldenTrafficEventStreamHash  = "b0ff5e8df66212c16c409afb1d6e712107cf2958a355822213004c86a22b51e3"
	goldenTrafficEventStreamCount = 1806
)

// annotationHash digests, in order, every annotation whose kind keep
// accepts: kind, simulated time, service, magnitudes, and detail.
// Seq/CauseSeq are deliberately excluded, mirroring the fabric's
// event-stream hash — causal threading may gain context without
// invalidating goldens.
func annotationHash(entries []journal.Entry, keep func(kind string) bool) (string, int) {
	h := sha256.New()
	n := 0
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation || !keep(e.Kind) {
			continue
		}
		fmt.Fprintf(h, "%s|%d|%s|%g|%g|%s\n", e.Kind, e.T, e.Service, e.Value, e.Limit, e.Detail)
		n++
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// TestTrafficEventStreamDeterminism runs the seeded outage day twice and
// requires bit-identical traffic annotation streams, then pins them to
// the golden constant — the traffic analogue of the fabric's golden
// event-stream hashes.
func TestTrafficEventStreamDeterminism(t *testing.T) {
	run := func() []journal.Entry {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		runDay(t, dayOpts{spec: &traffic.Spec{Seed: 11}, outage: true, w: w})
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		entries, err := journal.Read(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return entries
	}

	first := run()
	second := run()
	h1, n1 := annotationHash(first, trafficKind)
	h2, n2 := annotationHash(second, trafficKind)
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed traffic streams diverge: %s/%d vs %s/%d", h1, n1, h2, n2)
	}
	t.Logf("traffic annotations: %d, hash %s", n1, h1)
	if n1 != goldenTrafficEventStreamCount {
		t.Errorf("traffic annotation count = %d, want golden %d", n1, goldenTrafficEventStreamCount)
	}
	if h1 != goldenTrafficEventStreamHash {
		t.Errorf("traffic event stream hash = %s, want golden %s", h1, goldenTrafficEventStreamHash)
	}

	// The day must exercise the full annotation vocabulary: sheds,
	// breaker lifecycle, retry rationing, and request errors.
	seen := map[string]bool{}
	for i := range first {
		if first[i].Type == journal.TypeAnnotation && trafficKind(first[i].Kind) {
			seen[first[i].Kind] = true
		}
	}
	for _, kind := range []string{
		traffic.KindRequestShed, traffic.KindBreakerOpen, traffic.KindBreakerHalfOpen,
		traffic.KindBreakerClosed, traffic.KindRetryBudgetExhausted, traffic.KindRequestErrors,
	} {
		if !seen[kind] {
			t.Errorf("golden day never emitted %q", kind)
		}
	}
}
