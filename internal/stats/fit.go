package stats

import (
	"errors"
	"math"
)

// NormalParams holds the parameters of a fitted normal distribution.
type NormalParams struct {
	Mean  float64
	Sigma float64
}

// FitNormal fits a normal distribution to xs by the method of moments
// (which is also the MLE for the mean; sigma uses the unbiased sample
// standard deviation, matching common statistical practice).
func FitNormal(xs []float64) (NormalParams, error) {
	if len(xs) == 0 {
		return NormalParams{}, ErrEmpty
	}
	return NormalParams{Mean: Mean(xs), Sigma: StdDev(xs)}, nil
}

// CDF evaluates the fitted normal CDF at x. A zero-sigma fit degenerates
// to a step function at the mean.
func (p NormalParams) CDF(x float64) float64 {
	if p.Sigma <= 0 {
		if x < p.Mean {
			return 0
		}
		return 1
	}
	return NormalCDF(x, p.Mean, p.Sigma)
}

// UniformParams holds the parameters of a fitted uniform distribution.
type UniformParams struct {
	Lo, Hi float64
}

// FitUniform fits a uniform distribution to xs via the sample range
// (the MLE for a uniform's support).
func FitUniform(xs []float64) (UniformParams, error) {
	if len(xs) == 0 {
		return UniformParams{}, ErrEmpty
	}
	return UniformParams{Lo: Min(xs), Hi: Max(xs)}, nil
}

// CDF evaluates the fitted uniform CDF at x.
func (p UniformParams) CDF(x float64) float64 {
	if p.Hi <= p.Lo {
		if x < p.Lo {
			return 0
		}
		return 1
	}
	switch {
	case x <= p.Lo:
		return 0
	case x >= p.Hi:
		return 1
	default:
		return (x - p.Lo) / (p.Hi - p.Lo)
	}
}

// PoissonParams holds the rate of a fitted Poisson distribution.
type PoissonParams struct {
	Lambda float64
}

// FitPoisson fits a Poisson distribution by MLE (the sample mean). It
// returns an error if any observation is negative, since Poisson data are
// counts.
func FitPoisson(xs []float64) (PoissonParams, error) {
	if len(xs) == 0 {
		return PoissonParams{}, ErrEmpty
	}
	for _, x := range xs {
		if x < 0 {
			return PoissonParams{}, errors.New("stats: FitPoisson on negative data")
		}
	}
	return PoissonParams{Lambda: Mean(xs)}, nil
}

// CDF evaluates the fitted Poisson CDF at x (a step function over the
// non-negative integers), computed by direct summation of the PMF.
func (p PoissonParams) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	k := int(math.Floor(x))
	// PMF(0) = exp(-lambda); multiply up iteratively for stability.
	pmf := math.Exp(-p.Lambda)
	sum := pmf
	for i := 1; i <= k; i++ {
		pmf *= p.Lambda / float64(i)
		sum += pmf
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// NegBinomialParams holds the parameters of a fitted negative binomial
// distribution in the (r, p) parameterization: the count of failures
// before r successes, each with success probability p.
type NegBinomialParams struct {
	R float64
	P float64
}

// FitNegBinomial fits a negative binomial by the method of moments. The
// data must be over-dispersed (variance > mean) for the fit to exist; an
// error is returned otherwise (the paper found the negative binomial a
// worse fit than the normal for its hourly create/drop counts, and
// equi-dispersed synthetic data reproduces that rejection).
func FitNegBinomial(xs []float64) (NegBinomialParams, error) {
	if len(xs) == 0 {
		return NegBinomialParams{}, ErrEmpty
	}
	m := Mean(xs)
	v := Variance(xs)
	if m <= 0 || v <= m {
		return NegBinomialParams{}, errors.New("stats: FitNegBinomial needs over-dispersed positive data")
	}
	// Moment equations: mean = r(1-p)/p, var = r(1-p)/p^2.
	p := m / v
	r := m * p / (1 - p)
	return NegBinomialParams{R: r, P: p}, nil
}

// CDF evaluates the fitted negative binomial CDF at x by summing the PMF
// with the recurrence PMF(k+1) = PMF(k) * (k+r)/(k+1) * (1-p).
func (nb NegBinomialParams) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	k := int(math.Floor(x))
	pmf := math.Pow(nb.P, nb.R) // PMF(0) = p^r
	sum := pmf
	for i := 0; i < k; i++ {
		pmf *= (float64(i) + nb.R) / float64(i+1) * (1 - nb.P)
		sum += pmf
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// DistributionFit scores one candidate distribution against a sample.
type DistributionFit struct {
	Name string
	KS   KSResult
	Err  error
}

// CompareDistributions fits normal, uniform, Poisson, and negative
// binomial distributions to xs and K-S-tests each, reproducing the
// paper's model-selection step ("we fitted the hourly training dataset
// via various probability distributions including normal, uniform,
// Poisson and negative binomial", §4.1.3). Fits that fail (e.g. negative
// binomial on under-dispersed data) carry a non-nil Err and a zero
// KSResult.
func CompareDistributions(xs []float64) []DistributionFit {
	out := make([]DistributionFit, 0, 4)

	if np, err := FitNormal(xs); err != nil {
		out = append(out, DistributionFit{Name: "normal", Err: err})
	} else if np.Sigma == 0 {
		out = append(out, DistributionFit{Name: "normal", KS: KSResult{P: 1, N: len(xs)}})
	} else {
		out = append(out, DistributionFit{Name: "normal", KS: KSTest(xs, np.CDF)})
	}

	if up, err := FitUniform(xs); err != nil {
		out = append(out, DistributionFit{Name: "uniform", Err: err})
	} else {
		out = append(out, DistributionFit{Name: "uniform", KS: KSTest(xs, up.CDF)})
	}

	if pp, err := FitPoisson(xs); err != nil {
		out = append(out, DistributionFit{Name: "poisson", Err: err})
	} else {
		out = append(out, DistributionFit{Name: "poisson", KS: KSTest(xs, pp.CDF)})
	}

	if nb, err := FitNegBinomial(xs); err != nil {
		out = append(out, DistributionFit{Name: "negbinomial", Err: err})
	} else {
		out = append(out, DistributionFit{Name: "negbinomial", KS: KSTest(xs, nb.CDF)})
	}
	return out
}
