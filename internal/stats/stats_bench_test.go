package stats

import (
	"testing"

	"toto/internal/rng"
)

func benchSample(n int) []float64 { return benchSampleSeed(n, 1) }

func benchSampleSeed(n int, seed uint64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Normal(10, 3)
	}
	return xs
}

func BenchmarkKSTestNormal(b *testing.B) {
	xs := benchSample(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSTestNormal(xs)
	}
}

func BenchmarkWilcoxon(b *testing.B) {
	xs := benchSampleSeed(1500, 1)
	ys := benchSampleSeed(1500, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Wilcoxon(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWWindow(b *testing.B) {
	xs := benchSample(1008) // two weeks of 20-minute samples
	ys := benchSample(1008)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DTWWindow(xs, ys, 36); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoxPlot(b *testing.B) {
	xs := benchSample(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewBoxPlot(xs)
	}
}

func BenchmarkCompareDistributions(b *testing.B) {
	xs := benchSample(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareDistributions(xs)
	}
}
