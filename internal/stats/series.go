package stats

import (
	"fmt"
	"math"
)

// Series is a validated sample: non-empty with every observation finite.
// The Wilcoxon, Kolmogorov-Smirnov, and change-point entry points share
// it so each does not re-implement the same emptiness and finiteness
// checks on bare []float64 arguments. The zero Series is empty and not
// usable; construct one with NewSeries.
type Series struct {
	vals []float64
}

// NewSeries validates vals and copies them into a Series. It returns
// ErrEmpty for an empty sample, and an error naming the offending index
// for NaN or infinite values.
func NewSeries(vals []float64) (Series, error) {
	if len(vals) == 0 {
		return Series{}, ErrEmpty
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Series{}, fmt.Errorf("stats: non-finite value %v at index %d", v, i)
		}
	}
	return Series{vals: append([]float64(nil), vals...)}, nil
}

// Len returns the number of observations.
func (s Series) Len() int { return len(s.vals) }

// Values returns a copy of the observations, oldest first.
func (s Series) Values() []float64 { return append([]float64(nil), s.vals...) }
