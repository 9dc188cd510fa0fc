package stats

// WindowedMax aggregates per-entity window observations into a series
// of cross-entity maxima: one maximum per completed window. It is the
// collector behind the paper's Max Utilization metric — for each
// utilization interval it records max_i util_i and the CDF of those
// maxima is the "cumulative frequency of the maximum utilization among
// the servers".
type WindowedMax struct {
	entities int
	pending  []float64
	have     []bool
	count    int
	series   *Series
}

// NewWindowedMax creates a collector for the given number of entities.
func NewWindowedMax(entities int) *WindowedMax {
	return &WindowedMax{
		entities: entities,
		pending:  make([]float64, entities),
		have:     make([]bool, entities),
		series:   NewSeries(1024),
	}
}

// Observe records entity i's value for the current window. When every
// entity has reported, the window closes and its maximum is appended
// to the series. Reporting the same entity twice in one window keeps
// the larger value, which is safe for utilization-style metrics.
func (wm *WindowedMax) Observe(i int, v float64) {
	if i < 0 || i >= wm.entities {
		return
	}
	if wm.have[i] {
		if v > wm.pending[i] {
			wm.pending[i] = v
		}
	} else {
		wm.have[i] = true
		wm.pending[i] = v
		wm.count++
	}
	if wm.count == wm.entities {
		max := wm.pending[0]
		for j := 1; j < wm.entities; j++ {
			if wm.pending[j] > max {
				max = wm.pending[j]
			}
		}
		wm.series.Add(max)
		for j := range wm.have {
			wm.have[j] = false
		}
		wm.count = 0
	}
}

// Series returns the accumulated per-window maxima.
func (wm *WindowedMax) Series() *Series { return wm.series }
