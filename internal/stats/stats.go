// Package stats provides the measurement plumbing for the experiment
// harness: latency histograms with percentile/CDF extraction, throughput
// accounting over measurement windows, and small numeric helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Hist is a latency histogram over nanosecond samples. It keeps exact
// samples up to a cap and falls back to log-spaced buckets beyond it, which
// is plenty for simulation-sized runs while bounding memory.
type Hist struct {
	samples []int64
	cap     int
	// Overflow accounting once the sample cap is hit.
	buckets   []uint64 // log2-spaced
	count     uint64
	sum       int64
	min, max  int64
	overflown bool
}

// NewHist creates a histogram that keeps up to capSamples exact samples
// (default 1<<20 when zero).
func NewHist(capSamples int) *Hist {
	if capSamples <= 0 {
		capSamples = 1 << 20
	}
	return &Hist{cap: capSamples, min: math.MaxInt64, buckets: make([]uint64, 64)}
}

// Add records one sample (ns).
func (h *Hist) Add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count++
	h.sum += ns
	if ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, ns)
		return
	}
	h.overflown = true
	h.buckets[log2Bucket(ns)]++
}

func log2Bucket(ns int64) int {
	b := 0
	for ns > 1 && b < 63 {
		ns >>= 1
		b++
	}
	return b
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the average sample (ns), 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the extreme samples (0 when empty).
func (h *Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Hist) Max() int64 { return h.max }

// Percentile returns the q-quantile (q in [0,1]) in ns: the sample of rank
// ⌊q·(n−1)⌋. Exact while under the sample cap. Beyond it, every bucketed
// sample ranks among the exact ones at its bucket's lower bound, clamped to
// [Min, Max].
func (h *Hist) Percentile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := h.sorted()
	if !h.overflown {
		return s[int(q*float64(len(s)-1))]
	}
	rank := uint64(q * float64(h.count-1))
	i := 0
	for b, n := range h.buckets {
		v := min(max(int64(1)<<uint(b), h.min), h.max)
		for ; i < len(s) && s[i] < v; i++ {
			if rank == 0 {
				return s[i]
			}
			rank--
		}
		if rank < n {
			return v
		}
		rank -= n
	}
	return s[i+int(rank)]
}

func (h *Hist) sorted() []int64 {
	s := append([]int64(nil), h.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// CDF returns (value, cumulative fraction) pairs at the given quantiles,
// suitable for plotting Fig. 13/20-style latency CDFs.
func (h *Hist) CDF(quantiles []float64) []CDFPoint {
	out := make([]CDFPoint, 0, len(quantiles))
	for _, q := range quantiles {
		out = append(out, CDFPoint{Q: q, Ns: h.Percentile(q)})
	}
	return out
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Q  float64
	Ns int64
}

// String renders the histogram summary.
func (h *Hist) String() string {
	if h.count == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d mean=%.2fus p50=%.2fus p99=%.2fus max=%.2fus}",
		h.count, h.Mean()/1e3, float64(h.Percentile(0.5))/1e3,
		float64(h.Percentile(0.99))/1e3, float64(h.max)/1e3)
}

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
