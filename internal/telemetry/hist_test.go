package telemetry

// The figures' latency contract: a figure point's window latency (the
// fig13/fig20 CDFs among them) is a HistSnap, whose mean is exact and
// whose quantiles sit within half a bucket (1/16 = 6.25 %) of the exact
// order statistic of the same rank.

import (
	"testing"
	"testing/quick"
)

// TestHistEdgeCases pins the degenerate histograms: empty, one sample, all
// equal, two distinct samples and clamped negatives.
func TestHistEdgeCases(t *testing.T) {
	qs := []float64{0, 0.5, 0.99, 1}
	cases := []struct {
		name    string
		samples []int64
		// want[q] is the expected Percentile(q) for each q in qs.
		want     []int64
		wantMean float64
		wantMin  int64
		wantMax  int64
	}{
		{name: "empty", want: []int64{0, 0, 0, 0}},
		{
			name: "single", samples: []int64{1234},
			want: []int64{1234, 1234, 1234, 1234}, wantMean: 1234, wantMin: 1234, wantMax: 1234,
		},
		{
			name: "all-equal", samples: []int64{500, 500, 500, 500},
			want: []int64{500, 500, 500, 500}, wantMean: 500, wantMin: 500, wantMax: 500,
		},
		{
			// Rank ⌊q·n⌋ (at least 1): only p100 reaches the high sample,
			// and both come back exact through the min/max clamp.
			name: "two-distinct", samples: []int64{100, 300},
			want: []int64{100, 100, 100, 300}, wantMean: 200, wantMin: 100, wantMax: 300,
		},
		{
			name: "negative-clamped", samples: []int64{-7, -7},
			want: []int64{0, 0, 0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Hist
			for _, s := range tc.samples {
				h.Add(s)
			}
			snap := h.Snap()
			for i, q := range qs {
				if got := snap.Percentile(q); got != tc.want[i] {
					t.Errorf("Percentile(%g) = %d, want %d", q, got, tc.want[i])
				}
			}
			if got := snap.Mean(); got != tc.wantMean {
				t.Errorf("Mean() = %g, want %g", got, tc.wantMean)
			}
			if snap.Min != tc.wantMin || snap.Max != tc.wantMax {
				t.Errorf("Min, Max = %d, %d, want %d, %d", snap.Min, snap.Max, tc.wantMin, tc.wantMax)
			}
		})
	}
}

// Property: every quantile lies within half a bucket of the exact order
// statistic of rank max(1, ⌊q·n⌋), and quantiles are monotone in q.
func TestHistPercentileHalfBucketProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Hist
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
			h.Add(int64(v))
		}
		sortInt64(vals)
		snap := h.Snap()
		prev := int64(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			exact := vals[max(1, int(q*float64(len(vals))))-1]
			got := snap.Percentile(q)
			if d := got - exact; 16*max(d, -d) > exact || got < prev {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the mean is the exact sample mean and lies within [Min, Max].
func TestHistMeanExactProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Hist
		var sum int64
		for _, v := range raw {
			h.Add(int64(v))
			sum += int64(v)
		}
		snap := h.Snap()
		m := snap.Mean()
		return m == float64(sum)/float64(len(raw)) && m >= float64(snap.Min) && m <= float64(snap.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
