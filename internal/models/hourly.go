// Package models implements Toto's production-derived behaviour models
// (paper §4): the "hourly normal" Create DB / Drop DB models (one normal
// distribution per weekday-or-weekend hour per edition, 96 + 96 models),
// the Steady State disk growth model, the Initial Creation Growth model
// (five equi-probable uniform bins), and the Predictable Rapid Growth
// state machine. It also defines the XML file format the models travel
// in between tototrain and totosim. Toto writes a validated copy of the
// model set into the Naming Service, and every node's RgManager re-reads
// it every refresh interval (15 minutes by default, §3.3.1), so every
// reader in a cluster shares one read-only ModelSet.
//
// Model objects are stateless (§3.3.2): every evaluation derives its
// randomness from (model seed, database name, time bucket), so any node
// — or a newly promoted primary after a failover — computes the same
// value without shared state.
package models

import (
	"fmt"
	"time"

	"toto/internal/rng"
)

// HourBucket addresses one of the 48 (weekend? × hour) cells of an hourly
// normal model.
type HourBucket struct {
	Weekend bool
	Hour    int // 0..23
}

// BucketOf returns the bucket for a timestamp.
func BucketOf(t time.Time) HourBucket {
	wd := t.Weekday()
	return HourBucket{
		Weekend: wd == time.Saturday || wd == time.Sunday,
		Hour:    t.Hour(),
	}
}

// NormalParam is the (mean, sigma) pair of one hourly normal cell.
type NormalParam struct {
	Mean  float64
	Sigma float64
}

// HourlyNormal is the paper's workhorse model: a separate normal
// distribution per weekday/weekend hour (§4.1.3, §4.2.2). It captures
// temporal patterns — business hours vs evenings, weekdays vs weekends —
// that a single fitted distribution cannot.
type HourlyNormal struct {
	// cells[0] holds weekday hours, cells[1] weekend hours.
	cells [2][24]NormalParam
}

// NewHourlyNormal returns a model with all cells zero.
func NewHourlyNormal() *HourlyNormal { return &HourlyNormal{} }

func weekendIndex(weekend bool) int {
	if weekend {
		return 1
	}
	return 0
}

// Set assigns the normal parameters of one cell. Hour must be in [0, 24).
func (h *HourlyNormal) Set(b HourBucket, p NormalParam) {
	if b.Hour < 0 || b.Hour > 23 {
		panic(fmt.Sprintf("models: hour %d out of range", b.Hour))
	}
	if p.Sigma < 0 {
		panic("models: negative sigma")
	}
	h.cells[weekendIndex(b.Weekend)][b.Hour] = p
}

// At returns the normal parameters of the cell covering t.
func (h *HourlyNormal) At(t time.Time) NormalParam {
	b := BucketOf(t)
	return h.cells[weekendIndex(b.Weekend)][b.Hour]
}

// Cell returns the parameters of an explicit bucket.
func (h *HourlyNormal) Cell(b HourBucket) NormalParam {
	return h.cells[weekendIndex(b.Weekend)][b.Hour]
}

// Sample draws one value from the cell covering t using src.
func (h *HourlyNormal) Sample(src *rng.Source, t time.Time) float64 {
	p := h.At(t)
	return src.Normal(p.Mean, p.Sigma)
}

// SampleCount draws a non-negative integer count from the cell covering
// t: a normal draw rounded to the nearest integer and clamped at zero,
// which is how the Population Manager turns the hourly normal into
// creates/drops per hour.
func (h *HourlyNormal) SampleCount(src *rng.Source, t time.Time) int {
	v := h.Sample(src, t)
	if v <= 0 {
		return 0
	}
	return int(v + 0.5)
}

// clone returns a copy of h with the cells EncodeXML omits, those whose
// mean and sigma are both zero, set to zero.
func (h *HourlyNormal) clone() *HourlyNormal {
	c := &HourlyNormal{}
	for w := range h.cells {
		for hr, p := range h.cells[w] {
			if p.Mean != 0 || p.Sigma != 0 {
				c.cells[w][hr] = p
			}
		}
	}
	return c
}

// Buckets iterates all 48 cells in a stable order (weekday hours 0-23,
// then weekend hours 0-23), calling fn for each.
func (h *HourlyNormal) Buckets(fn func(HourBucket, NormalParam)) {
	for w := 0; w < 2; w++ {
		for hr := 0; hr < 24; hr++ {
			fn(HourBucket{Weekend: w == 1, Hour: hr}, h.cells[w][hr])
		}
	}
}
