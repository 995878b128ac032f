package fabric_test

import (
	"bytes"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs/journal"
)

// TestJournalRoundTripMatchesGoldenHash is the journal's trust anchor:
// write the golden simulated day through the full JSONL pipeline, read
// it back, and re-derive the event-stream hash from the decoded entries.
// It must equal the golden constant bit-for-bit, which requires every
// hashed event field to survive the JSON round trip exactly (including
// %g float fidelity).
func TestJournalRoundTripMatchesGoldenHash(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	w.Meta("golden-day", time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC), map[string]string{"seed": "7"})
	fabric.GoldenDay(w.Attach)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	events, annotations := w.Counts()
	t.Logf("journal: %d events, %d annotations, %d bytes", events, annotations, buf.Len())
	if events != fabric.GoldenEventStreamCount {
		t.Errorf("journaled %d events, want golden %d", events, fabric.GoldenEventStreamCount)
	}
	if annotations == 0 {
		t.Error("no annotations journaled; causal layer not exercised")
	}

	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	hash, n := journal.EventStreamHash(entries)
	if n != fabric.GoldenEventStreamCount {
		t.Errorf("decoded %d events, want %d", n, fabric.GoldenEventStreamCount)
	}
	if hash != fabric.GoldenEventStreamHash {
		t.Errorf("round-tripped event stream hash = %s, want golden %s; "+
			"the journal is NOT a lossless record of the event stream", hash, fabric.GoldenEventStreamHash)
	}

	meta, ok := journal.Meta(entries)
	if !ok || meta.Name != "golden-day" || meta.Attrs["seed"] != "7" {
		t.Errorf("meta entry lost in round trip: ok=%v %+v", ok, meta)
	}

	// Every journaled failover in this workload stems from an in-fabric
	// cause (violations, drains, resizes) — none may come back unknown.
	a := journal.Attribute(entries)
	if a.Unplanned == 0 {
		t.Fatal("workload produced no unplanned failovers; attribution untested")
	}
	if a.Unknown != 0 {
		t.Errorf("%d of %d unplanned failovers have unknown root cause", a.Unknown, a.Unplanned)
	}
	t.Logf("attribution: %d unplanned, %d planned, causes=%v", a.Unplanned, a.Planned, a.Causes())
}
