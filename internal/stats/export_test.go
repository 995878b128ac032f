package stats

// Bandwidth returns the estimator's bandwidth, the scale of the noise
// Sample adds to a drawn data point.
func (k *KDE) Bandwidth() float64 { return k.bandwidth }

// CDF returns the cumulative probability at x of the density Sample
// draws from.
func (k *KDE) CDF(x float64) float64 {
	sum := 0.0
	for _, xi := range k.data {
		sum += NormalCDF(x, xi, k.bandwidth)
	}
	return sum / float64(len(k.data))
}
