package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// plotMarkers assigns one character per series, cycling if a figure
// somehow exceeds them.
const plotMarkers = "*o+x#@%&~^"

// RenderPlot draws the figure as an ASCII chart: x spans the figure's
// x values, y spans [0,1] (all figures plot probabilities or
// cumulative frequencies). Each series is drawn with its own marker;
// overlapping points show the earlier series' marker.
func (f *Figure) RenderPlot(w io.Writer, width, height int) error {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	if len(f.XVals) == 0 || len(f.Series) == 0 {
		return fmt.Errorf("experiments: figure %s has nothing to plot", f.ID)
	}
	xLo, xHi := f.XVals[0], f.XVals[0]
	for _, x := range f.XVals {
		if x < xLo {
			xLo = x
		}
		if x > xHi {
			xHi = x
		}
	}
	if xHi == xLo {
		xHi = xLo + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		c := int(math.Round((x - xLo) / (xHi - xLo) * float64(width-1)))
		return clampInt(c, 0, width-1)
	}
	row := func(y float64) int {
		r := int(math.Round((1 - y) * float64(height-1)))
		return clampInt(r, 0, height-1)
	}
	for si := len(f.Series) - 1; si >= 0; si-- {
		s := f.Series[si]
		marker := plotMarkers[si%len(plotMarkers)]
		// Connect consecutive points with linear interpolation so the
		// chart reads as lines, then stamp the data points on top.
		for i := 1; i < len(s.Values) && i < len(f.XVals); i++ {
			c0, r0 := col(f.XVals[i-1]), row(s.Values[i-1])
			c1, r1 := col(f.XVals[i]), row(s.Values[i])
			steps := max(absInt(c1-c0), absInt(r1-r0))
			for st := 0; st <= steps; st++ {
				t := 0.0
				if steps > 0 {
					t = float64(st) / float64(steps)
				}
				c := int(math.Round(float64(c0) + t*float64(c1-c0)))
				r := int(math.Round(float64(r0) + t*float64(r1-r0)))
				grid[clampInt(r, 0, height-1)][clampInt(c, 0, width-1)] = '.'
			}
		}
		for i, y := range s.Values {
			if i >= len(f.XVals) {
				break
			}
			grid[row(y)][col(f.XVals[i])] = marker
		}
	}

	if _, err := fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	for r, line := range grid {
		yVal := 1 - float64(r)/float64(height-1)
		label := "    "
		// Label the top, middle and bottom rows.
		if r == 0 || r == height-1 || r == (height-1)/2 {
			label = fmt.Sprintf("%.2f", yVal)
		}
		if _, err := fmt.Fprintf(w, "%4s |%s|\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "     +%s+\n", strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "      %-*s%*s\n", width/2, trimFloat(xLo), width-width/2, trimFloat(xHi)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "      x: %s, y: %s\n", f.XLabel, f.YLabel); err != nil {
		return err
	}
	for si, s := range f.Series {
		if _, err := fmt.Fprintf(w, "      %c %s\n", plotMarkers[si%len(plotMarkers)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

func clampInt(v, lo, hi int) int {
	return min(max(v, lo), hi)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
