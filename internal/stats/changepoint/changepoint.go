// Package changepoint implements offline change-point detection over KPI
// series in the style of the e-divisive-means procedure that MongoDB's
// automated performance-testing pipeline uses (Daly et al., "The Use of
// Change Point Detection to Identify Software Performance Regressions in
// a Continuous Integration System", see PAPERS.md): recursive binary
// segmentation on a mean-shift energy statistic, with significance judged
// by a seeded permutation test so verdicts are reproducible run-to-run.
//
// The detector answers "where did the level of this series shift?" —
// `totoscope gate` feeds it two concatenated KPI trajectories and asks
// whether a significant shift lands at the junction between them.
package changepoint

import (
	"sort"

	"toto/internal/rng"
	"toto/internal/stats"
)

// Point is one detected change point.
type Point struct {
	// Index is the offset of the first observation after the shift: the
	// series level changes between s[Index-1] and s[Index].
	Index int
	// Stat is the e-divisive mean-shift statistic
	// q = |L|·|R|/(|L|+|R|) · (mean(L)-mean(R))² at the split, where L and
	// R are the two halves of the segment being divided.
	Stat float64
	// P is the permutation-test p-value of the split; its resolution is
	// 1/(Permutations+1).
	P float64
	// MeanBefore and MeanAfter are the means either side of the split,
	// within the segment that was divided.
	MeanBefore, MeanAfter float64
}

// Options tunes the detector. Use DefaultOptions as the starting point;
// zero-valued fields are filled from it.
type Options struct {
	// MinSegment is the smallest number of observations allowed on either
	// side of a split. Larger values suppress spurious splits next to
	// single-sample spikes.
	MinSegment int
	// Permutations is the number of random shuffles behind each p-value.
	Permutations int
	// Alpha is the significance level a split must beat to be kept (and
	// recursed into). Lower alpha = fewer false positives, at the price of
	// missing small shifts.
	Alpha float64
	// Seed drives the permutation shuffles; a fixed seed makes verdicts
	// deterministic, which the CI gate depends on.
	Seed uint64
}

// DefaultOptions returns the tuning used by `totoscope gate`.
func DefaultOptions() Options {
	return Options{MinSegment: 5, Permutations: 199, Alpha: 0.05, Seed: 1}
}

// normalized fills zero-valued fields from DefaultOptions.
func (o Options) normalized() Options {
	def := DefaultOptions()
	if o.MinSegment <= 0 {
		o.MinSegment = def.MinSegment
	}
	if o.Permutations <= 0 {
		o.Permutations = def.Permutations
	}
	if o.Alpha <= 0 {
		o.Alpha = def.Alpha
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	return o
}

// Detect returns every significant change point in s, ordered by index.
// A series shorter than 2*MinSegment has no room for a split and returns
// nil.
func Detect(s stats.Series, opt Options) []Point {
	opt = opt.normalized()
	vals := s.Values()
	r := rng.New(opt.Seed)
	var out []Point
	segment(vals, 0, opt, r, &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// segment recursively divides vals (whose first element sits at absolute
// offset base) at its most energetic split, keeping the split only when
// the permutation test deems it significant.
func segment(vals []float64, base int, opt Options, r *rng.Source, out *[]Point) {
	n := len(vals)
	if n < 2*opt.MinSegment {
		return
	}
	k, q := maxQ(vals, opt.MinSegment)
	if k < 0 {
		return
	}
	// Permutation test: how often does a random shuffle of this segment
	// produce an equally energetic best split?
	work := append([]float64(nil), vals...)
	exceed := 0
	for p := 0; p < opt.Permutations; p++ {
		r.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		if _, pq := maxQ(work, opt.MinSegment); pq >= q {
			exceed++
		}
	}
	pval := float64(1+exceed) / float64(opt.Permutations+1)
	if pval > opt.Alpha {
		return
	}
	left, right := vals[:k], vals[k:]
	*out = append(*out, Point{
		Index:      base + k,
		Stat:       q,
		P:          pval,
		MeanBefore: stats.Mean(left),
		MeanAfter:  stats.Mean(right),
	})
	segment(left, base, opt, r, out)
	segment(right, base+k, opt, r, out)
}

// maxQ finds the split index k (split between vals[k-1] and vals[k])
// maximizing the mean-shift statistic, honoring the minimum segment size.
// It returns k = -1 when no admissible split exists.
func maxQ(vals []float64, minSeg int) (int, float64) {
	n := len(vals)
	total := 0.0
	for _, v := range vals {
		total += v
	}
	bestK, bestQ := -1, 0.0
	left := 0.0
	for k := 1; k < n; k++ {
		left += vals[k-1]
		if k < minSeg || n-k < minSeg {
			continue
		}
		ml := left / float64(k)
		mr := (total - left) / float64(n-k)
		d := ml - mr
		q := float64(k) * float64(n-k) / float64(n) * d * d
		if bestK < 0 || q > bestQ {
			bestK, bestQ = k, q
		}
	}
	return bestK, bestQ
}
