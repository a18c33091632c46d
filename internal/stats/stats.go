// Package stats provides the experiment harness's result plumbing:
// throughput over measurement windows (MOPS), the labelled series a paper
// figure plots, and their text table and ASCII chart. Latency
// distributions are telemetry.HistSnap.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// MOPS converts an operation count over a nanosecond window to millions of
// operations per second.
func MOPS(ops uint64, windowNs int64) float64 {
	if windowNs <= 0 {
		return 0
	}
	return float64(ops) / (float64(windowNs) / 1e9) / 1e6
}

// Series is a labeled sequence of (x, y) points — one line of a paper
// figure.
type Series struct {
	Label  string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// At returns the y value at the given x, or NaN when absent.
func (s *Series) At(x float64) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// PeakY returns the maximum y value (NaN when empty).
func (s *Series) PeakY() float64 {
	if len(s.Y) == 0 {
		return math.NaN()
	}
	peak := s.Y[0]
	for _, y := range s.Y[1:] {
		if y > peak {
			peak = y
		}
	}
	return peak
}

// Table renders a set of series sharing an x axis as an aligned text table,
// the experiment harness's output format.
func Table(title string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	if len(series) == 0 {
		return b.String()
	}
	xl := series[0].XLabel
	if xl == "" {
		xl = "x"
	}
	fmt.Fprintf(&b, "%-14s", xl)
	for _, s := range series {
		fmt.Fprintf(&b, "%16s", s.Label)
	}
	b.WriteByte('\n')
	for i, x := range series[0].X {
		fmt.Fprintf(&b, "%-14.6g", x)
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%16.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
