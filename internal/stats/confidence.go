package stats

import "math"

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean     float64
	HalfWide float64 // half-width of the interval
	Level    float64 // confidence level, e.g. 0.95
}

// MeanCI returns the t-based confidence interval for the mean of
// independent replications (e.g. one observation per simulation run).
// With fewer than two observations the half-width is infinite.
func MeanCI(obs []float64, level float64) Interval {
	var w Welford
	for _, x := range obs {
		w.Add(x)
	}
	iv := Interval{Mean: w.Mean(), Level: level}
	if w.N() < 2 {
		iv.HalfWide = math.Inf(1)
		return iv
	}
	se := w.StdDev() / math.Sqrt(float64(w.N()))
	iv.HalfWide = tCritical(w.N()-1, level) * se
	return iv
}

// tCritical returns the two-sided critical value of Student's t
// distribution for the given degrees of freedom and confidence level.
// Exact table values cover the common levels (0.90, 0.95, 0.99) for
// small df; large df fall back to the normal approximation.
func tCritical(df int, level float64) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	table := t95
	switch {
	case math.Abs(level-0.90) < 1e-9:
		table = t90
	case math.Abs(level-0.99) < 1e-9:
		table = t99
	}
	if df <= len(table) {
		return table[df-1]
	}
	switch {
	case math.Abs(level-0.90) < 1e-9:
		return 1.6449
	case math.Abs(level-0.99) < 1e-9:
		return 2.5758
	default:
		return 1.9600
	}
}

// Two-sided critical values t_{df, 1-(1-level)/2} for df = 1..30.
var (
	t90 = []float64{
		6.3138, 2.9200, 2.3534, 2.1318, 2.0150, 1.9432, 1.8946, 1.8595,
		1.8331, 1.8125, 1.7959, 1.7823, 1.7709, 1.7613, 1.7531, 1.7459,
		1.7396, 1.7341, 1.7291, 1.7247, 1.7207, 1.7171, 1.7139, 1.7109,
		1.7081, 1.7056, 1.7033, 1.7011, 1.6991, 1.6973,
	}
	t95 = []float64{
		12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
		2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
		2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
		2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
	}
	t99 = []float64{
		63.6567, 9.9248, 5.8409, 4.6041, 4.0321, 3.7074, 3.4995, 3.3554,
		3.2498, 3.1693, 3.1058, 3.0545, 3.0123, 2.9768, 2.9467, 2.9208,
		2.8982, 2.8784, 2.8609, 2.8453, 2.8314, 2.8188, 2.8073, 2.7969,
		2.7874, 2.7787, 2.7707, 2.7633, 2.7564, 2.7500,
	}
)
