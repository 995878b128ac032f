package traffic

import "math"

// The latency histogram: 64 log-spaced buckets from 0.25 ms growing 25%
// per bucket (~320 s at the top), fixed at compile time so quantile
// extraction is deterministic and allocation-free. Requests are recorded
// in aggregate — counts at modeled latencies — never one at a time.
const (
	histBuckets = 64
	histBaseMs  = 0.25
	histGrowth  = 1.25
)

// BucketBound returns bucket i's nominal upper bound in ms, base·growth^i
// — the exact float the quantile functions report, so an analysis tool
// can match a journaled p99 back to its bucket by float equality. It is
// not an exact edge: a latency equal to BucketBound(i) may land in bucket
// i or i+1, because the edges in bucketFloor come from a different float
// rounding of the same curve.
func BucketBound(i int) float64 {
	return histBaseMs * math.Pow(histGrowth, float64(i))
}

// bucketFloor[i] is the smallest latency that lands in bucket i (entry 0
// is unused: bucket 0 takes everything below bucketFloor[1], plus NaN).
// Each entry is the exact float64 at which the defining formula
// int(math.Log(ms/histBaseMs)/math.Log(histGrowth))+1 steps up, found by
// bisection over float64 bit patterns; hist_test.go checks every entry
// and its neighbourhood against that formula and prints the right
// literal when one disagrees.
var bucketFloor = [histBuckets]float64{
	0,
	0x1.0000000000001p-02, 0x1.4p-02, 0x1.9p-02, 0x1.f400000000001p-02,
	0x1.388p-01, 0x1.86ap-01, 0x1.e848000000001p-01, 0x1.312dp+00,
	0x1.7d784p+00, 0x1.dcd64ffffffffp+00, 0x1.2a05f1fffffffp+01, 0x1.74876e7ffffffp+01,
	0x1.d1a94a2000001p+01, 0x1.2309ce5400001p+02, 0x1.6bcc41e9p+02, 0x1.c6bf52634p+02,
	0x1.1c37937e08p+03, 0x1.6345785d8ap+03, 0x1.bc16d674ec7fep+03, 0x1.158e460913cfep+04,
	0x1.5af1d78b58c3ep+04, 0x1.b1ae4d6e2ef4cp+04, 0x1.0f0cf064dd59p+05, 0x1.52d02c7e14af3p+05,
	0x1.a784379d99db6p+05, 0x1.08b2a2c280292p+06, 0x1.4adf4b7320336p+06, 0x1.9d971e4fe8403p+06,
	0x1.027e72f1f1282p+07, 0x1.431e0fae6d722p+07, 0x1.93e5939a08ceap+07, 0x1.f8def8808b024p+07,
	0x1.3b8b5b5056e16p+08, 0x1.8a6e32246c99cp+08, 0x1.ed09bead87c02p+08, 0x1.3426172c74d81p+09,
	0x1.812f9cf7920dep+09, 0x1.e17b84357691cp+09, 0x1.2ced32a16a1adp+10, 0x1.78287f49c4a1ep+10,
	0x1.d6329f1c35c9dp+10, 0x1.25dfa371a19e7p+11, 0x1.6f578c4e0a05ap+11, 0x1.cb2d6f618c878p+11,
	0x1.1efc659cf7d46p+12, 0x1.66bb7f0435c9dp+12, 0x1.c06a5ec5433bdp+12, 0x1.18427b3b4a05ap+13,
	0x1.5e531a0a1c876p+13, 0x1.b5e7e08ca3a8cp+13, 0x1.11b0ec57e649cp+14, 0x1.561d276ddfdbdp+14,
	0x1.aba4714957d32p+14, 0x1.0b46c6cdd6e3bp+15, 0x1.4e1878814c9cfp+15, 0x1.a19e96a19fc3cp+15,
	0x1.05031e2503da9p+16, 0x1.4643e5ae44d0ep+16, 0x1.97d4df19d6058p+16, 0x1.fdca16e04b865p+16,
	0x1.3e9e4e4c2f344p+17, 0x1.8e45e1df3b00ep+17, 0x1.f1d75a5709c19p+17,
}

// sliceFirst[q] is the bucket holding the smallest latency of slice q.
// The slices cut each of the 20 binades from 2^-2 to 2^18 into 16, so a
// latency's float64 exponent and top four mantissa bits name its slice.
// A slice spans a factor of at most 17/16, less than a bucket's 1.25, so
// it holds at most one bucket floor, and every latency in it lands in
// sliceFirst[q] or the bucket above. The slices span bucketFloor[1]
// (just above 2^-2) to bucketFloor[histBuckets-1] (below 2^18).
var sliceFirst = func() (first [20 << 4]uint8) {
	for q := range first {
		lo := math.Ldexp(1+float64(q&15)/16, q>>4-2)
		i := 0
		for i < histBuckets-1 && bucketFloor[i+1] <= lo {
			i++
		}
		first[q] = uint8(i)
	}
	return first
}()

// BucketIndex maps a latency to its bucket: the largest i with
// bucketFloor[i] <= ms, found from the latency's slice and at most one
// step up. NaN, zero and negative inputs land in bucket 0; latencies past
// the top edge, +Inf included, land in the last bucket. A degenerate
// modeled latency degrades the histogram, never the run.
func BucketIndex(ms float64) int {
	if !(ms >= bucketFloor[1]) { // also catches NaN
		return 0
	}
	if ms >= bucketFloor[histBuckets-1] {
		return histBuckets - 1
	}
	i := int(sliceFirst[math.Float64bits(ms)>>48-(1023-2)<<4])
	for ms >= bucketFloor[i+1] {
		i++
	}
	return i
}

// exemplar ties a kept trace to the histogram bucket its latency landed
// in — the OpenMetrics exemplar idea on the sim clock.
type exemplar struct {
	id uint64  // trace ID, 0 = no exemplar yet
	ms float64 // the exemplar's exact latency
}

type hist struct {
	counts [histBuckets]int64
	sum    float64
	// ex is nil unless request tracing is enabled; a heap pointer keeps
	// the common hist copies cheap and the disabled path untouched.
	ex *[histBuckets]exemplar
}

// enableExemplars allocates the exemplar table (idempotent).
func (h *hist) enableExemplars() {
	if h.ex == nil {
		h.ex = new([histBuckets]exemplar)
	}
}

// add records n observations at ms and returns ms's bucket, so a caller
// that also needs the bucket (the tracer's exemplar check) looks it up
// once. n must be at least 1: every caller adds a non-empty cell. NaN
// and negative latencies count as 0. add is small enough for the
// compiler to inline, which the per-cell call in observe relies on.
func (h *hist) add(ms float64, n int64) int {
	if !(ms >= 0) { // also catches NaN
		ms = 0
	}
	b := BucketIndex(ms)
	h.counts[b] += n
	h.sum += ms * float64(n)
	return b
}

// total is the number of observations: the sum of the bucket counts.
func (h *hist) total() (t int64) {
	for _, c := range h.counts {
		t += c
	}
	return t
}

// needsExemplar reports whether bucket b has no exemplar yet. False
// when exemplars are disabled.
func (h *hist) needsExemplar(b int) bool {
	return h.ex != nil && h.ex[b].id == 0
}

// setExemplar attaches a kept trace at latency ms to ms's bucket b; the
// first trace into a bucket wins so the exemplar is the one the sampler
// kept for that reason.
func (h *hist) setExemplar(b int, ms float64, id uint64) {
	if h.ex == nil || id == 0 {
		return
	}
	if e := &h.ex[b]; e.id == 0 {
		e.id = id
		e.ms = ms
	}
}

// exemplarAt returns bucket i's exemplar (zero when none).
func (h *hist) exemplarAt(i int) exemplar {
	if h.ex == nil || i < 0 || i >= histBuckets {
		return exemplar{}
	}
	return h.ex[i]
}

// quantileBucket returns the index of the bucket holding the q-th
// observation, -1 when the histogram is empty. q is clamped into (0, 1]
// so a degenerate single-sample hour or an out-of-range q can never
// index past the layout.
func (h *hist) quantileBucket(q float64) int {
	total := h.total()
	if total <= 0 {
		return -1
	}
	if math.IsNaN(q) || q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return i
		}
	}
	return histBuckets - 1
}

// quantile returns the upper bound (ms) of the bucket holding the q-th
// observation; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	i := h.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return BucketBound(i)
}

// merge folds other's counts into h. Exemplars are deliberately not
// merged here — hist values are copied around (Stats, flush) and the
// exemplar table is a shared pointer; mergeExemplars is the explicit,
// owner-only operation.
func (h *hist) merge(other *hist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.sum += other.sum
}

// mergeExemplars adopts other's exemplars for buckets that have none.
func (h *hist) mergeExemplars(other *hist) {
	if h.ex == nil || other.ex == nil {
		return
	}
	for i := range other.ex {
		if h.ex[i].id == 0 && other.ex[i].id != 0 {
			h.ex[i] = other.ex[i]
		}
	}
}

// reset zeroes the histogram, keeping the exemplar table allocated but
// cleared: each observation hour starts exemplar-fresh.
func (h *hist) reset() {
	ex := h.ex
	*h = hist{}
	if ex != nil {
		*ex = [histBuckets]exemplar{}
		h.ex = ex
	}
}
