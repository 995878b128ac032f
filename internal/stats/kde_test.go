package stats

import (
	"math"
	"testing"

	"toto/internal/rng"
)

func TestKDECDFMonotone(t *testing.T) {
	k := NewKDE(normalSample(2, 100, 5, 2))
	prev := -1.0
	for x := -5.0; x < 15; x += 0.25 {
		v := k.CDF(x)
		if v < prev {
			t.Fatalf("KDE CDF decreased at %v", x)
		}
		prev = v
	}
	if k.CDF(-100) > 1e-6 || k.CDF(100) < 1-1e-6 {
		t.Error("KDE CDF tails wrong")
	}
}

func TestKDETracksUnderlyingDistribution(t *testing.T) {
	k := NewKDE(normalSample(3, 2000, 10, 2))
	// Compare KDE CDF against true CDF at several points.
	for _, x := range []float64{6, 8, 10, 12, 14} {
		if got, want := k.CDF(x), NormalCDF(x, 10, 2); !almost(got, want, 0.03) {
			t.Errorf("KDE CDF(%v) = %v, want ~%v", x, got, want)
		}
	}
}

func TestKDESampleStaysNearData(t *testing.T) {
	xs := normalSample(4, 500, 0, 1)
	k := NewKDE(xs)
	src := rng.New(5)
	var sum, sumSq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := k.Sample(src.Float64, func() float64 { return src.Normal(0, 1) })
		sum += v
		sumSq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumSq/n - m*m)
	// The sampler targets the *empirical* distribution, so compare
	// against the data's own mean, not the population mean.
	if math.Abs(m-Mean(xs)) > 0.03 {
		t.Errorf("KDE sample mean = %v, data mean = %v", m, Mean(xs))
	}
	// KDE sampling inflates variance by the bandwidth; allow slack.
	if sd < 0.9 || sd > 1.2 {
		t.Errorf("KDE sample sd = %v", sd)
	}
}

func TestKDEBandwidthPositiveForDegenerateData(t *testing.T) {
	k := NewKDE([]float64{3, 3, 3, 3})
	if k.Bandwidth() <= 0 {
		t.Errorf("bandwidth = %v for constant data", k.Bandwidth())
	}
}

func TestHistogramCounts(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.9, 1.0}
	h := NewHistogram(xs, 2)
	// Bins: [0, 0.5) and [0.5, 1.0]; value 1.0 lands in the last bin.
	if h.Counts[0] != 3 || h.Counts[1] != 3 {
		t.Errorf("counts = %v", h.Counts)
	}
	ps := h.Probabilities()
	if !almost(ps[0]+ps[1], 1, 1e-12) {
		t.Errorf("probabilities sum = %v", ps[0]+ps[1])
	}
	edges := h.BinEdges()
	if len(edges) != 3 || edges[0] != 0 || edges[2] != 1 {
		t.Errorf("edges = %v", edges)
	}
}

func TestHistogramConstantData(t *testing.T) {
	h := NewHistogram([]float64{7, 7, 7}, 4)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("total count = %d", total)
	}
}

func TestEquiProbableBins(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	edges := EquiProbableBins(xs, 5)
	if len(edges) != 6 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0] != 0 || edges[5] != 99 {
		t.Errorf("end edges = %v, %v", edges[0], edges[5])
	}
	// Each bin should hold ~20% of the mass.
	for i := 0; i+1 < len(edges); i++ {
		count := 0
		for _, x := range xs {
			if x >= edges[i] && x < edges[i+1] {
				count++
			}
		}
		if count < 15 || count > 25 {
			t.Errorf("bin %d holds %d of 100", i, count)
		}
	}
}

func TestEquiProbableBinsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k < 1 not rejected")
		}
	}()
	EquiProbableBins([]float64{1}, 0)
}
