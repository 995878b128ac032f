// Package stats implements the statistical machinery the Toto paper uses
// to build and validate its behaviour models: descriptive statistics and
// box-plot summaries (Figures 3, 6, 13), the Kolmogorov-Smirnov normality
// test (Figure 7), the Wilcoxon signed-rank test for repeatability
// (§5.3.4), dynamic time warping and RMSE for comparing candidate disk
// models (§4.2.2), Gaussian kernel density estimation, and
// moment/maximum-likelihood fitting for the candidate distributions the
// authors compared (normal, uniform, Poisson, negative binomial).
//
// Everything is stdlib-only and operates on plain []float64 so the
// trainer and the benchmark harness can share it.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator) of xs.
// It returns 0 when fewer than two observations are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value in xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the R-7 / NumPy default). It
// panics on an empty slice or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the R-7 quantile of an already-sorted sample.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxPlot summarizes a sample the way the paper's dispersion box plots do
// (Figures 3a, 6, 7, 13): quartiles, 1.5*IQR whiskers clamped to the data
// range, the mean (drawn as an X in the paper), and outliers beyond the
// whiskers.
type BoxPlot struct {
	N        int
	Mean     float64
	Q1       float64
	Median   float64
	Q3       float64
	LowWhisk float64
	HiWhisk  float64
	Outliers []float64
}

// NewBoxPlot computes the box-plot summary of xs. It panics on an empty
// sample.
func NewBoxPlot(xs []float64) BoxPlot {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := BoxPlot{
		N:      len(xs),
		Mean:   Mean(xs),
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.LowWhisk = sorted[len(sorted)-1]
	b.HiWhisk = sorted[0]
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.LowWhisk {
			b.LowWhisk = x
		}
		if x > b.HiWhisk {
			b.HiWhisk = x
		}
	}
	// Degenerate case: every point is an outlier fence violation (cannot
	// happen with 1.5*IQR fences around the quartiles, but guard anyway).
	if b.LowWhisk > b.HiWhisk {
		b.LowWhisk, b.HiWhisk = sorted[0], sorted[len(sorted)-1]
	}
	return b
}

// RMSE returns the root-mean-squared error between two equal-length
// series. It returns an error when the lengths differ or are zero.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	ss := 0.0
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a))), nil
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length series, or an error if lengths differ or either series has
// zero variance.
func Correlation(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: correlation length mismatch")
	}
	if len(a) < 2 {
		return 0, ErrEmpty
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, errors.New("stats: correlation of constant series")
	}
	return sab / math.Sqrt(saa*sbb), nil
}
