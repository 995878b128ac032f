package stats

import (
	"math"
	"sort"
)

// KDE is a Gaussian kernel density estimator. The paper's authors
// evaluated KDE as a candidate for the steady-state disk model and
// rejected it for implementation complexity and external-library
// dependence (§4.2.2); it is implemented here so the ablation bench can
// reproduce that comparison with DTW/RMSE scores.
type KDE struct {
	data      []float64
	bandwidth float64
}

// NewKDE builds a Gaussian KDE over xs with Silverman's rule-of-thumb
// bandwidth. It panics on an empty sample.
func NewKDE(xs []float64) *KDE {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	return &KDE{data: data, bandwidth: silverman(data)}
}

// silverman computes Silverman's rule-of-thumb bandwidth:
// 0.9 * min(sd, IQR/1.34) * n^(-1/5), with fallbacks for degenerate
// spreads so the bandwidth is always positive.
func silverman(sorted []float64) float64 {
	n := float64(len(sorted))
	sd := StdDev(sorted)
	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
	spread := sd
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		spread = math.Abs(sorted[len(sorted)-1]-sorted[0]) / 2
	}
	if spread <= 0 {
		spread = 1 // all points identical: any positive bandwidth works
	}
	return 0.9 * spread * math.Pow(n, -0.2)
}

// Sample draws one value from the estimated density: pick a data point
// uniformly, then add Gaussian noise scaled by the bandwidth. rnd must
// return uniform values in [0, 1) and gauss standard-normal values; they
// are injected so the caller controls seeding.
func (k *KDE) Sample(rnd func() float64, gauss func() float64) float64 {
	i := int(rnd() * float64(len(k.data)))
	if i >= len(k.data) {
		i = len(k.data) - 1
	}
	return k.data[i] + k.bandwidth*gauss()
}

// Histogram is an equi-width binned summary of a sample.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram bins xs into bins equi-width buckets spanning [min, max].
// Values equal to max land in the last bin. It panics on an empty sample
// or bins < 1.
func NewHistogram(xs []float64, bins int) *Histogram {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if bins < 1 {
		panic("stats: histogram with no bins")
	}
	lo, hi := Min(xs), Max(xs)
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), total: len(xs)}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		var i int
		if width > 0 {
			i = int((x - lo) / width)
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
	}
	return h
}

// BinEdges returns the bins+1 edge positions of the histogram.
func (h *Histogram) BinEdges() []float64 {
	bins := len(h.Counts)
	edges := make([]float64, bins+1)
	width := (h.Hi - h.Lo) / float64(bins)
	for i := range edges {
		edges[i] = h.Lo + float64(i)*width
	}
	edges[bins] = h.Hi
	return edges
}

// Probabilities returns each bin's empirical probability mass.
func (h *Histogram) Probabilities() []float64 {
	ps := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		ps[i] = float64(c) / float64(h.total)
	}
	return ps
}

// EquiProbableBins partitions a sample into k contiguous value ranges
// each holding (as nearly as possible) an equal share of the probability
// mass, returning the k+1 boundary values. The paper's Initial Creation
// and Predictable Rapid Growth models bin Delta Disk Usage into "five
// buckets of equal probability" and sample uniformly within a bucket
// (§4.2.3, §4.2.4). It panics on an empty sample or k < 1.
func EquiProbableBins(xs []float64, k int) []float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if k < 1 {
		panic("stats: EquiProbableBins with k < 1")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	edges := make([]float64, k+1)
	for i := 0; i <= k; i++ {
		edges[i] = quantileSorted(sorted, float64(i)/float64(k))
	}
	return edges
}
