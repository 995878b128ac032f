package stats

import (
	"errors"
	"math"
)

// DTWWindow returns the dynamic-time-warping distance between two series
// using absolute difference as the local cost and the standard unit-step
// recurrence, constrained to a Sakoe-Chiba band of the given radius (in
// samples). The paper uses DTW (alongside RMSE) to compare the
// hourly-normal disk model against KDE and custom-binning candidates
// (§4.2.2): DTW tolerates small temporal misalignment between the modeled
// and production curves that RMSE would punish.
//
// A radius >= max(len(a), len(b)) is equivalent to unconstrained DTW.
// The band makes long-series comparisons (two-week, 20-minute-granularity
// disk traces) linear-time in practice.
func DTWWindow(a, b []float64, radius int) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	if radius < 0 {
		return 0, errors.New("stats: DTWWindow with negative radius")
	}
	n, m := len(a), len(b)
	// Widen the band enough to connect the corners when lengths differ.
	w := radius
	if d := n - m; d > 0 && d > w {
		w = d
	} else if d := m - n; d > 0 && d > w {
		w = d
	}
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := 0; j <= m; j++ {
			curr[j] = math.Inf(1)
		}
		jLo := i - w
		if jLo < 1 {
			jLo = 1
		}
		jHi := i + w
		if jHi > m {
			jHi = m
		}
		for j := jLo; j <= jHi; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if curr[j-1] < best {
				best = curr[j-1]
			}
			curr[j] = cost + best
		}
		prev, curr = curr, prev
	}
	return prev[m], nil
}
