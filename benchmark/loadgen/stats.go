package loadgen

import "slices"

// Percentile returns the p-th percentile (0 < p ≤ 1) of samples by the
// nearest-rank rule, sorting them in place; 0 for no samples.
func Percentile[T ~uint32 | ~int64 | ~float64](samples []T, p float64) T {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(p*float64(len(samples))+0.999999) - 1
	return samples[min(max(rank, 0), len(samples)-1)]
}

// Median returns the median of vs (the mean of the middle two for an
// even count), sorting them in place; 0 for none.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// MidMean returns the mean of the middle half of vs (the interquartile
// mean), sorting them in place; 0 for none. It is as robust as the
// median against stray slow samples, and — unlike the median — does
// not collapse onto the clock's granularity when every sample is a
// handful of ticks long.
func MidMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	mid := vs[len(vs)/4 : len(vs)-len(vs)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}
