package traffic

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// logBucketIndex is the histogram's defining formula, which BucketIndex
// evaluated with two math.Log calls per add before the bucketFloor table
// replaced it. It is kept here only as the oracle the table must match
// for every float64.
func logBucketIndex(ms float64) int {
	if !(ms > histBaseMs) { // also catches NaN, zero, negatives
		return 0
	}
	idx := int(math.Log(ms/histBaseMs)/math.Log(histGrowth)) + 1
	if idx >= histBuckets || idx < 0 { // +Inf yields a huge or wrapped index
		return histBuckets - 1
	}
	return idx
}

// logThreshold bisects float64 bit patterns (ordered like the values
// for positive floats) for the smallest latency the oracle puts in
// bucket k or above.
func logThreshold(k int) float64 {
	lo, hi := math.Float64bits(histBaseMs), math.Float64bits(math.MaxFloat64)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if logBucketIndex(math.Float64frombits(mid)) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// TestBucketIndexMatchesLogFormula proves the threshold table exact: each
// entry is the float64 where the log formula steps up, and BucketIndex
// agrees with the formula around every entry, over a log-uniform sweep,
// on 10^7 seeded random positive floats and on every special value. The
// goldens fold whole-run quantiles, so one boundary disagreement would
// move them.
func TestBucketIndexMatchesLogFormula(t *testing.T) {
	check := func(ms float64) {
		if got, want := BucketIndex(ms), logBucketIndex(ms); got != want {
			t.Fatalf("BucketIndex(%v = %#016x) = %d, log formula says %d",
				ms, math.Float64bits(ms), got, want)
		}
	}
	for k := 1; k < histBuckets; k++ {
		thr := bucketFloor[k]
		if logBucketIndex(thr) != k || logBucketIndex(math.Nextafter(thr, 0)) != k-1 {
			t.Fatalf("bucketFloor[%d] = %s, the log formula steps up at %s",
				k, strconv.FormatFloat(thr, 'x', -1, 64), strconv.FormatFloat(logThreshold(k), 'x', -1, 64))
		}
		bits := math.Float64bits(thr)
		for d := uint64(0); d <= 1<<16; d++ {
			check(math.Float64frombits(bits + d))
			check(math.Float64frombits(bits - d))
		}
	}
	const sweep = 1 << 20
	for i := 0; i <= sweep; i++ {
		check(math.Exp2(-30 + 60*float64(i)/sweep)) // 1e-9 ms to 1e9 ms
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10_000_000; i++ {
		if i%2 == 0 {
			check(math.Float64frombits(r.Uint64() >> 1)) // any positive float, subnormals included
		} else {
			check(math.Exp2(-4 + 24*r.Float64())) // the buckets' own range
		}
	}
	for _, ms := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, -histBaseMs,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		histBaseMs, math.MaxFloat64, bucketFloor[histBuckets-1] * 2,
	} {
		check(ms)
	}
}

// TestBucketSlicesHoldOneFloor pins the bound sliceFirst's comment
// states: BucketIndex is monotone, so the first and last float of each
// slice below the top edge land in sliceFirst[q] and at most one bucket
// above it.
func TestBucketSlicesHoldOneFloor(t *testing.T) {
	top := bucketFloor[histBuckets-1]
	for q, first := range sliceFirst {
		lo := math.Ldexp(1+float64(q&15)/16, q>>4-2)
		hi := math.Nextafter(math.Ldexp(1+float64(q&15+1)/16, q>>4-2), 0)
		if lo >= top {
			continue
		}
		if hi >= top {
			hi = math.Nextafter(top, 0)
		}
		if a, b := BucketIndex(lo), BucketIndex(hi); a != int(first) || b > int(first)+1 {
			t.Errorf("slice %d [%v, %v] spans buckets %d..%d, sliceFirst says %d and at most one above", q, lo, hi, a, b, first)
		}
	}
}

// TestBucketIndexEdges pins the bucket mapping and add's clamp for every
// degenerate latency the engine's models can produce: quantile math must
// clamp, never panic or index out of the layout.
func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		name string
		ms   float64
		want int
	}{
		{"zero", 0, 0},
		{"negative", -5, 0},
		{"nan", math.NaN(), 0},
		{"below-base", 0.1, 0},
		{"at-base", histBaseMs, 0},
		{"just-above-base", histBaseMs * 1.01, 1},
		{"one-ms", 1, logBucketIndex(1)},
		{"huge", 1e12, histBuckets - 1},
		{"pos-inf", math.Inf(1), histBuckets - 1},
		{"neg-inf", math.Inf(-1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := BucketIndex(tc.ms); got != tc.want {
				t.Fatalf("BucketIndex(%v) = %d, want %d", tc.ms, got, tc.want)
			}
		})
	}
	// A bucket's upper bound sits on a float boundary, so it may land in
	// bucket i or i+1 — but never anywhere else, and never out of range.
	prev := 0
	for i := 0; i < histBuckets; i++ {
		got := BucketIndex(BucketBound(i))
		if got != i && got != i+1 || got >= histBuckets && i != histBuckets-1 {
			t.Fatalf("BucketIndex(BucketBound(%d)) = %d", i, got)
		}
		if got < prev {
			t.Fatalf("BucketIndex not monotone at bucket %d: %d < %d", i, got, prev)
		}
		prev = got
	}

	// add clamps with !(ms >= 0); the reference is the clamp it replaced,
	// math.IsNaN(ms) || ms < 0. Both leave −0 as it is and send NaN and
	// negatives to 0, so the returned bucket, the counts and the sum
	// keep their bits on every degenerate latency and around every floor.
	refAdd := func(h *hist, ms float64, n int64) int {
		if math.IsNaN(ms) || ms < 0 {
			ms = 0
		}
		b := BucketIndex(ms)
		h.counts[b] += n
		h.sum += ms * float64(n)
		return b
	}
	lats := []float64{0, math.Copysign(0, -1), -1, -histBaseMs, -math.MaxFloat64, math.Inf(-1),
		math.NaN(), math.SmallestNonzeroFloat64, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		math.Inf(1), bucketFloor[histBuckets-1] * 2, math.MaxFloat64}
	for _, f := range bucketFloor[1:] {
		bits := math.Float64bits(f)
		for d := uint64(0); d <= 3; d++ {
			lats = append(lats, math.Float64frombits(bits+d), math.Float64frombits(bits-d))
		}
	}
	for _, ms := range lats {
		var got, want hist
		gb, wb := got.add(ms, 3), refAdd(&want, ms, 3)
		if gb != wb || got.counts != want.counts || math.Float64bits(got.sum) != math.Float64bits(want.sum) {
			t.Fatalf("add(%v = %#016x, 3): bucket %d sum %#016x, the old clamp gives bucket %d sum %#016x",
				ms, math.Float64bits(ms), gb, math.Float64bits(got.sum), wb, math.Float64bits(want.sum))
		}
	}
}

// TestHistQuantileEdges is the satellite guard: empty and single-sample
// histograms, out-of-range q, and NaN inputs all yield defined results.
func TestHistQuantileEdges(t *testing.T) {
	cases := []struct {
		name       string
		add        []struct{ ms, n float64 }
		q          float64
		wantBucket int
	}{
		{"empty-p99", nil, 0.99, -1},
		{"empty-p0", nil, 0, -1},
		{"single-sample-p99", []struct{ ms, n float64 }{{10, 1}}, 0.99, BucketIndex(10)},
		{"single-sample-p1", []struct{ ms, n float64 }{{10, 1}}, 0.01, BucketIndex(10)},
		{"single-sample-q0", []struct{ ms, n float64 }{{10, 1}}, 0, BucketIndex(10)},
		{"single-sample-q-nan", []struct{ ms, n float64 }{{10, 1}}, math.NaN(), BucketIndex(10)},
		{"single-sample-q-over", []struct{ ms, n float64 }{{10, 1}}, 7, BucketIndex(10)},
		{"single-sample-q-neg", []struct{ ms, n float64 }{{10, 1}}, -3, BucketIndex(10)},
		{"two-buckets-median", []struct{ ms, n float64 }{{1, 50}, {100, 50}}, 0.5, BucketIndex(1)},
		{"two-buckets-p99", []struct{ ms, n float64 }{{1, 50}, {100, 50}}, 0.99, BucketIndex(100)},
		{"nan-sample", []struct{ ms, n float64 }{{math.NaN(), 3}}, 0.5, 0},
		{"negative-sample", []struct{ ms, n float64 }{{-4, 3}}, 0.5, 0},
		{"inf-sample", []struct{ ms, n float64 }{{math.Inf(1), 3}}, 0.99, histBuckets - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h hist
			for _, a := range tc.add {
				h.add(a.ms, int64(a.n))
			}
			if got := h.quantileBucket(tc.q); got != tc.wantBucket {
				t.Fatalf("quantileBucket(%v) = %d, want %d", tc.q, got, tc.wantBucket)
			}
			want := 0.0
			if tc.wantBucket >= 0 {
				want = BucketBound(tc.wantBucket)
			}
			if got := h.quantile(tc.q); got != want {
				t.Fatalf("quantile(%v) = %g, want %g", tc.q, got, want)
			}
		})
	}
}

// TestHistExemplars covers the exemplar table lifecycle: disabled by
// default, first-trace-wins per bucket, reset clears but keeps the
// table, and mergeExemplars adopts only into empty buckets.
func TestHistExemplars(t *testing.T) {
	var h hist
	if h.needsExemplar(BucketIndex(5)) {
		t.Fatal("needsExemplar must be false with exemplars disabled")
	}
	h.setExemplar(BucketIndex(5), 5, 42) // no-op, must not panic
	if h.exemplarAt(BucketIndex(5)) != (exemplar{}) {
		t.Fatal("disabled hist returned an exemplar")
	}

	h.enableExemplars()
	h.enableExemplars() // idempotent
	if !h.needsExemplar(BucketIndex(5)) {
		t.Fatal("empty bucket should need an exemplar")
	}
	h.setExemplar(BucketIndex(5), 5, 0) // id 0 is "none", must not claim the slot
	if !h.needsExemplar(BucketIndex(5)) {
		t.Fatal("id 0 must not claim a bucket")
	}
	h.setExemplar(BucketIndex(5), 5, 42)
	h.setExemplar(BucketIndex(5.1), 5.1, 99) // same bucket: first wins
	if got := h.exemplarAt(BucketIndex(5)); got.id != 42 || got.ms != 5 {
		t.Fatalf("exemplar = %+v, want id 42 ms 5", got)
	}
	if h.exemplarAt(-1) != (exemplar{}) || h.exemplarAt(histBuckets) != (exemplar{}) {
		t.Fatal("out-of-range exemplarAt must return zero")
	}

	var other hist
	other.enableExemplars()
	other.setExemplar(BucketIndex(5), 5, 7)      // h already has bucket(5) -> not adopted
	other.setExemplar(BucketIndex(500), 500, 11) // h lacks bucket(500) -> adopted
	h.mergeExemplars(&other)
	if got := h.exemplarAt(BucketIndex(5)); got.id != 42 {
		t.Fatalf("mergeExemplars overwrote a held bucket: %+v", got)
	}
	if got := h.exemplarAt(BucketIndex(500)); got.id != 11 {
		t.Fatalf("mergeExemplars did not adopt empty bucket: %+v", got)
	}

	h.add(5, 3)
	h.reset()
	if h.total() != 0 {
		t.Fatal("reset kept counts")
	}
	if h.ex == nil {
		t.Fatal("reset dropped the exemplar table")
	}
	if !h.needsExemplar(BucketIndex(5)) {
		t.Fatal("reset must clear exemplars")
	}
}

// TestHistMergeSkipsExemplars: merge folds counts only; a value copy of
// a hist shares the exemplar pointer, so merging exemplars there would
// corrupt the original. The explicit mergeExemplars is the only path.
func TestHistMergeSkipsExemplars(t *testing.T) {
	var a, b hist
	a.enableExemplars()
	b.enableExemplars()
	b.add(5, 4)
	b.setExemplar(BucketIndex(5), 5, 9)

	copied := a // value copy: shares a.ex
	copied.merge(&b)
	if copied.total() != 4 || copied.counts[BucketIndex(5)] != 4 {
		t.Fatalf("merge lost counts: %+v", copied)
	}
	if a.exemplarAt(BucketIndex(5)).id != 0 {
		t.Fatal("merge leaked exemplars through the shared pointer")
	}
	if copied.sum != b.sum {
		t.Fatalf("merge lost sum: %g != %g", copied.sum, b.sum)
	}
}

// TestHistAddZeroAlloc pins the per-add cost at zero allocations, with
// and without exemplars.
func TestHistAddZeroAlloc(t *testing.T) {
	var h hist
	ms := 0.5
	if n := testing.AllocsPerRun(1000, func() {
		ms *= 1.01
		h.add(ms, 3)
	}); n != 0 {
		t.Errorf("hist.add allocates %.1f per call", n)
	}
	h.enableExemplars()
	if n := testing.AllocsPerRun(1000, func() {
		ms *= 1.01
		h.setExemplar(h.add(ms, 3), ms, 7)
	}); n != 0 {
		t.Errorf("hist.add with exemplars allocates %.1f per call", n)
	}
}

// BenchmarkHistAdd is the per-add cost over a latency spread like the
// engine's (3 to 160 ms).
func BenchmarkHistAdd(b *testing.B) {
	vals := make([]float64, 4096)
	r := rand.New(rand.NewPCG(3, 4))
	for i := range vals {
		vals[i] = 3 * math.Exp(4*r.Float64())
	}
	var h hist
	for i := 0; i < b.N; i++ {
		h.add(vals[i&4095], 1)
	}
}
