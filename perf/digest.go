package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"

	"toto/internal/core"
	"toto/internal/slo"
)

// The benchmark's own output digest. It encodes a fixed subset of
// core.Result in a fixed order with every field written unconditionally
// (absent sections as a presence flag), so the digest depends only on
// what the simulation produced — never on how the program's own digests
// are defined or re-baselined.

type encoder struct {
	h   hash.Hash
	buf [8]byte
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.h.Write(e.buf[:])
}
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.i64(int64(len(s)))
	e.h.Write([]byte(s))
}
func (e *encoder) present(ok bool) bool {
	if ok {
		e.u64(1)
	} else {
		e.u64(0)
	}
	return ok
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// resultDigest digests one run: KPI scalars, hourly samples, failover
// and redirect records, revenue, and the traffic, chaos, alert, slow-node
// and reqtrace counters.
func resultDigest(r *core.Result) []byte {
	e := &encoder{h: sha256.New()}
	e.str(r.Scenario)
	e.f64(r.Density)
	e.f64(r.BootstrapReservedCores)
	e.f64(r.BootstrapFreeCores)
	e.f64(r.BootstrapDiskGB)
	e.f64(r.BootstrapDiskUtil)
	for _, k := range sortedKeys(r.InitialCounts) {
		e.i64(int64(k))
		e.i64(int64(r.InitialCounts[k]))
	}
	e.f64(r.FinalReservedCores)
	e.f64(r.FinalDiskGB)
	e.f64(r.FinalCoreUtil)
	e.f64(r.FinalDiskUtil)
	e.f64(r.PeakNodeDiskUtil)
	for _, k := range sortedKeys(r.FailedOverCores) {
		e.i64(int64(k))
		e.f64(r.FailedOverCores[k])
	}
	e.i64(int64(r.Creates))
	e.i64(int64(r.Drops))
	e.i64(int64(r.PopFailures))
	for _, m := range []map[slo.Edition]int{r.CreatesByEdition, r.DropsByEdition} {
		for _, k := range sortedKeys(m) {
			e.i64(int64(k))
			e.i64(int64(m[k]))
		}
	}
	e.i64(r.NamingReads)
	e.i64(int64(r.BalanceMoves))
	e.i64(int64(r.UnplannedFailovers))
	e.i64(int64(r.PlannedMoves))
	e.i64(int64(r.PlannedDowntime))
	e.i64(int64(r.QuorumLosses))
	e.i64(int64(r.QuorumDowntime))
	e.i64(int64(r.PoolsProvisioned))
	e.i64(int64(r.PoolMemberCreates))
	e.i64(int64(r.PoolMemberDrops))

	rv := r.Revenue
	for _, v := range []float64{rv.Compute, rv.Storage, rv.Gross, rv.Penalty, rv.Adjusted} {
		e.f64(v)
	}
	e.i64(int64(rv.Breached))
	e.i64(int64(rv.Databases))

	e.i64(int64(len(r.Samples)))
	for _, s := range r.Samples {
		e.i64(s.Time.UnixNano())
		e.f64(s.ReservedCores)
		e.f64(s.FreeCores)
		e.f64(s.DiskUsageGB)
		e.f64(s.CPUUsedCores)
		e.i64(int64(s.LiveDBs))
	}
	e.i64(int64(len(r.Failovers)))
	for _, f := range r.Failovers {
		e.i64(f.Time.UnixNano())
		e.str(f.DB)
		e.i64(int64(f.Edition))
		e.f64(f.MovedCores)
		e.f64(f.MovedDiskGB)
		e.i64(int64(f.Downtime))
		e.str(f.From)
		e.str(f.To)
		e.i64(int64(f.Metric))
	}
	e.i64(int64(len(r.Redirects)))
	for _, rd := range r.Redirects {
		e.i64(rd.Time.UnixNano())
		e.str(rd.DB)
		e.i64(int64(rd.Edition))
		e.str(rd.SLOName)
		e.f64(rd.Cores)
	}
	e.i64(int64(len(r.RedirectsByHour)))
	for _, c := range r.RedirectsByHour {
		e.i64(int64(c))
	}
	e.i64(int64(r.FirstRedirectHour))

	if t := r.Traffic; e.present(t != nil) {
		for _, v := range []int64{t.Arrivals, t.Admitted, t.Queued, t.Shed, t.BreakerRejected,
			t.Dispatched, t.Retries, t.RetriesDenied, t.Hedges, t.HedgesDenied, t.HedgeWins,
			t.Errors, t.Failed, t.Batches,
			int64(t.BreakerOpens), int64(t.BreakerHalfOpens), int64(t.BreakerCloses),
			int64(t.HoursObserved), int64(t.SLOViolationHours)} {
			e.i64(v)
		}
		for _, v := range []float64{t.SLOP99Ms, t.ErrorRate, t.P50Ms, t.P99Ms, t.P999Ms} {
			e.f64(v)
		}
		if rt := t.Reqtrace; e.present(rt != nil) {
			for _, v := range []int64{rt.Considered, rt.Kept, rt.KeptErrors, rt.KeptSheds,
				rt.KeptRejected, rt.KeptExemplar, rt.KeptSampled, rt.Dropped} {
				e.i64(v)
			}
		}
	}
	if c := r.Chaos; e.present(c != nil) {
		for _, v := range []int{c.FaultsScheduled, c.Crashes, c.Restarts, c.CrashesSkipped,
			c.DomainOutages, c.SlowNodesInjected, c.BuildFailuresInjected,
			c.ReportsLostInjected, c.NamingErrorsInjected, c.InvariantChecks} {
			e.i64(int64(v))
		}
		e.i64(int64(len(c.InvariantViolations)))
		for _, v := range c.InvariantViolations {
			e.str(v)
		}
	}
	if a := r.Alerts; e.present(a != nil) {
		e.i64(int64(a.Rules))
		e.i64(int64(a.Fired))
		e.i64(int64(a.Resolved))
		e.i64(int64(a.Active))
		for _, k := range sortedKeys(a.ByRule) {
			e.str(k)
			e.i64(int64(a.ByRule[k]))
		}
	}
	e.i64(int64(len(r.AlertHistory)))
	for _, t := range r.AlertHistory {
		e.str(t.Rule)
		e.str(t.State)
		e.i64(t.Time.UnixNano())
		e.f64(t.Value)
		e.f64(t.Limit)
		e.u64(t.RootSeq)
		e.str(t.Root)
	}
	if s := r.SlowNodes; e.present(s != nil) {
		e.i64(int64(s.Detections))
		e.i64(int64(s.Quarantines))
		e.i64(int64(s.DrainMoves))
		e.i64(int64(s.Recoveries))
	}
	return e.h.Sum(nil)
}

// combineDigests folds part digests, in order, into a workload digest.
func combineDigests(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
