package main

import (
	"math"
	"sort"
)

// summary is one metric over the runs of a set: its median, quartiles,
// the number of values, and the values themselves (compare needs them to
// tell whether every run of one side beats every run of the other).
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize reports no values as zeros with n = 0, which a caller tells
// apart by N; the set that produced it is marked incorrect.
func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) > 0 {
		s.Q1, s.Median, s.Q3 = quartiles(values)
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// the spreads printed here are the ones any other tool computes from the
// same values. One value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
