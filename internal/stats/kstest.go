package stats

import (
	"math"
	"sort"
)

// KSResult holds the outcome of a one-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// D is the K-S statistic: the supremum distance between the empirical
	// CDF and the reference CDF.
	D float64
	// P is the asymptotic two-sided p-value.
	P float64
	// N is the sample size.
	N int
}

// Reject reports whether the null hypothesis ("the sample follows the
// reference distribution") is rejected at significance level alpha. The
// paper uses alpha = 0.05 (Figure 7).
func (r KSResult) Reject(alpha float64) bool { return r.P < alpha }

// KSTest runs a one-sample Kolmogorov-Smirnov test of sample xs against
// the continuous reference CDF cdf. It panics on an empty sample.
//
// The p-value uses the Kolmogorov asymptotic distribution with the
// small-sample correction sqrt(n) + 0.12 + 0.11/sqrt(n) (Stephens 1970),
// matching scipy.stats.kstest closely for the sample sizes the paper
// feeds it (tens to hundreds of hourly observations).
func KSTest(xs []float64, cdf func(float64) float64) KSResult {
	s, err := NewSeries(xs)
	if err != nil {
		panic(err) // ErrEmpty for an empty sample, preserving the old contract
	}
	return KSTestSeries(s, cdf)
}

// KSTestSeries is KSTest on an already-validated sample.
func KSTestSeries(s Series, cdf func(float64) float64) KSResult {
	sorted := s.Values()
	sort.Float64s(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		// D+ at this step and D- just before it.
		dPlus := float64(i+1)/n - f
		dMinus := f - float64(i)/n
		if dPlus > d {
			d = dPlus
		}
		if dMinus > d {
			d = dMinus
		}
	}
	en := math.Sqrt(n)
	lambda := (en + 0.12 + 0.11/en) * d
	return KSResult{D: d, P: kolmogorovQ(lambda), N: len(sorted)}
}

// KSTestNormal fits a normal distribution to xs by moments and tests xs
// against it. This mirrors the paper's workflow: each hourly training set
// is tested for normality before an hourly-normal model is adopted.
// Samples with zero variance trivially "fit" a degenerate normal; the
// test returns D=0, P=1 for them since every value equals the mean.
func KSTestNormal(xs []float64) KSResult {
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return KSResult{D: 0, P: 1, N: len(xs)}
	}
	return KSTest(xs, func(x float64) float64 { return NormalCDF(x, m, sd) })
}

// KSTwoSample runs a two-sample Kolmogorov-Smirnov test of xs against ys.
// It panics if either sample is empty.
func KSTwoSample(xs, ys []float64) KSResult {
	sx, err := NewSeries(xs)
	if err != nil {
		panic(err)
	}
	sy, err := NewSeries(ys)
	if err != nil {
		panic(err)
	}
	return KSTwoSampleSeries(sx, sy)
}

// KSTwoSampleSeries is KSTwoSample on already-validated samples.
func KSTwoSampleSeries(sx, sy Series) KSResult {
	a := sx.Values()
	b := sy.Values()
	sort.Float64s(a)
	sort.Float64s(b)
	na, nb := float64(len(a)), float64(len(b))
	var i, j int
	d := 0.0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	en := math.Sqrt(na * nb / (na + nb))
	lambda := (en + 0.12 + 0.11/en) * d
	return KSResult{D: d, P: kolmogorovQ(lambda), N: len(a) + len(b)}
}

// kolmogorovQ returns Q_KS(lambda) = 2 * sum_{k>=1} (-1)^{k-1}
// exp(-2 k^2 lambda^2), the asymptotic two-sided K-S tail probability.
func kolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const eps1 = 1e-6
	const eps2 = 1e-16
	a2 := -2 * lambda * lambda
	sum := 0.0
	termPrev := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(a2*float64(k)*float64(k))
		sum += term
		t := math.Abs(term)
		if t <= eps1*termPrev || t <= eps2*sum {
			p := 2 * sum
			if p < 0 {
				return 0
			}
			if p > 1 {
				return 1
			}
			return p
		}
		termPrev = t
		sign = -sign
	}
	// Did not converge: lambda is tiny, so the CDF mass is ~1.
	return 1
}

// NormalCDF returns the CDF of a normal distribution with the given mean
// and standard deviation, evaluated at x. sigma must be > 0.
func NormalCDF(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: NormalCDF with non-positive sigma")
	}
	return 0.5 * math.Erfc(-(x-mean)/(sigma*math.Sqrt2))
}
