package journal

import (
	"sort"
	"time"

	"toto/internal/fabric"
)

// This file is the causal-analysis layer over a loaded journal: indexing
// by sequence number, chain reconstruction by CauseSeq walk, and
// root-cause classification of movement events. totoscope's report and
// diff views are built on these primitives; they live here so the
// causal-chain tests exercise exactly the code the CLI runs.

// Index maps sequence numbers to entries for chain walks. Entries
// without a Seq (meta, metrics) are skipped.
func Index(entries []Entry) map[uint64]*Entry {
	idx := make(map[uint64]*Entry, len(entries))
	for i := range entries {
		if entries[i].Seq != 0 {
			idx[entries[i].Seq] = &entries[i]
		}
	}
	return idx
}

// Chain returns the causal chain ending at seq, root first: the entry at
// seq, preceded by its cause, its cause's cause, and so on. A missing or
// cyclic link terminates the walk (journals never contain cycles —
// CauseSeq always points backward — but a corrupted file must not hang
// the reader).
func Chain(idx map[uint64]*Entry, seq uint64) []*Entry {
	var rev []*Entry
	for seq != 0 {
		e, ok := idx[seq]
		if !ok || len(rev) > len(idx) {
			break
		}
		rev = append(rev, e)
		seq = e.CauseSeq
	}
	// Reverse: walk collected leaf→root, callers read root→leaf.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AnchorClass maps an annotation kind to a root-cause label; empty when
// the kind is not a causal anchor. The alert engine and the traffic
// plane share this table through Anchors: an alert or a request error
// during an incident is bracketed to a recent anchor, so its causal
// chain terminates at the same root a failover's would. Alert and
// traffic annotations themselves are deliberately not anchors — they
// never cause anything.
func AnchorClass(kind string) string {
	switch kind {
	case "chaos-injection":
		return "chaos"
	case "node-crash":
		return "crash"
	case "drain":
		return "drain"
	case "resize":
		return "resize"
	case "violation", "capacity-crossed":
		return "violation"
	case "balance":
		return "balance"
	case "force-move":
		return "forced"
	case "upgrade", "upgrade-domain", "upgrade-rollback",
		"upgrade-safety-check", "upgrade-health-check":
		return "upgrade"
	case "quorum-lost", "quorum-restored":
		return "quorum"
	}
	return ""
}

// anchorRank orders anchor classes by how exceptional they are. When
// several classes have an anchor in range, the most exceptional wins: a
// chaos injection outranks the capacity violations that cascade from
// it, so an effect chains to the true incident rather than to its
// nearest symptom.
var anchorRank = [...]string{
	"chaos", "crash", "quorum", "upgrade", "drain", "forced", "resize",
	"violation", "balance",
}

// Anchors tracks the most recent causal anchor of each class, for the
// engines that bracket their own annotations to an incident. The zero
// value is ready to use, and neither method allocates.
type Anchors struct {
	latest [len(anchorRank)]anchor // indexed like anchorRank; seq 0 = none yet
}

type anchor struct {
	seq  uint64
	kind fabric.CauseKind
	time time.Time
}

// Observe records a as the latest anchor of its class; annotations that
// are not anchors are ignored. An anchor with no cause of its own takes
// the cause kind named like its class.
func (t *Anchors) Observe(a fabric.Annotation) {
	class := AnchorClass(a.Kind)
	if class == "" {
		return
	}
	kind := a.Cause
	if kind == fabric.CauseNone {
		if k, ok := fabric.ParseCause(class); ok {
			kind = k
		}
	}
	for i, c := range anchorRank {
		if c == class {
			t.latest[i] = anchor{seq: a.Seq, kind: kind, time: a.Time}
			return
		}
	}
}

// Best returns the most exceptional anchor seen within horizon of now:
// its journal seq, cause kind and class. With none in range it returns
// 0, fabric.CauseNone and "".
func (t *Anchors) Best(now time.Time, horizon time.Duration) (uint64, fabric.CauseKind, string) {
	for i := range t.latest {
		if a := &t.latest[i]; a.seq != 0 && now.Sub(a.time) <= horizon {
			return a.seq, a.kind, anchorRank[i]
		}
	}
	return 0, fabric.CauseNone, ""
}

// classify maps a causal anchor to a root-cause label; empty when the
// entry is not an anchor.
func classify(e *Entry) string {
	if e.Type != TypeAnnotation {
		return ""
	}
	return AnchorClass(e.Kind)
}

// RootCause attributes an entry to the origin of its causal chain: the
// root-most classifiable anchor wins, so an evacuation failover whose
// chain reads chaos-injection → node-crash → failover is attributed to
// "chaos", while a bare operator crash yields "crash". Entries with no
// classifiable anchor fall back to their own recorded cause label, and
// only entries with neither (service lifecycle, node-up) return "none".
func RootCause(idx map[uint64]*Entry, e *Entry) string {
	for _, link := range Chain(idx, e.Seq) {
		if c := classify(link); c != "" {
			return c
		}
	}
	if e.Cause != "" {
		return e.Cause
	}
	return "none"
}

// CauseStats aggregates the movement events attributed to one root
// cause.
type CauseStats struct {
	// Moves counts all movements; Unplanned the failover subset.
	Moves, Unplanned int
	// DowntimeNs is the summed customer-visible downtime.
	DowntimeNs int64
	// MovedDiskGB is the summed data-copy volume.
	MovedDiskGB float64
}

// Attribution is the journal-wide root-cause breakdown of replica
// movements — the basis of totoscope's failover table and SLA-penalty
// attribution.
type Attribution struct {
	// Planned counts balance/drain movements, Unplanned failovers.
	Planned, Unplanned int
	// Unknown counts unplanned movements that could not be attributed;
	// the chaos-week acceptance gate requires this to be zero.
	Unknown int
	// ByCause keys root-cause labels to their aggregates.
	ByCause map[string]CauseStats
}

// Causes returns the breakdown's labels sorted by descending downtime,
// ties broken alphabetically — the display order of the report table.
func (a Attribution) Causes() []string {
	out := make([]string, 0, len(a.ByCause))
	for c := range a.ByCause {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := a.ByCause[out[i]].DowntimeNs, a.ByCause[out[j]].DowntimeNs
		if di != dj {
			return di > dj
		}
		return out[i] < out[j]
	})
	return out
}

// Attribute classifies every movement event in the journal by root
// cause.
func Attribute(entries []Entry) Attribution {
	idx := Index(entries)
	a := Attribution{ByCause: make(map[string]CauseStats)}
	for i := range entries {
		e := &entries[i]
		if e.Type != TypeEvent {
			continue
		}
		unplanned := e.KindCode == int(fabric.EventFailover)
		if !unplanned && e.KindCode != int(fabric.EventBalanceMove) {
			continue
		}
		cause := RootCause(idx, e)
		s := a.ByCause[cause]
		s.Moves++
		s.DowntimeNs += e.DowntimeNs
		s.MovedDiskGB += e.MovedDiskGB
		if unplanned {
			s.Unplanned++
			a.Unplanned++
			if cause == "none" {
				a.Unknown++
			}
		} else {
			a.Planned++
		}
		a.ByCause[cause] = s
	}
	return a
}
