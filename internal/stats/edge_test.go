package stats

// Table-driven edge cases for the percentile/CDF extraction: the degenerate
// histograms (empty, single sample, all-equal) and the log2-bucket overflow
// path that approximates the tail once the exact-sample cap is exceeded.

import "testing"

func TestHistEdgeCases(t *testing.T) {
	qs := []float64{0, 0.5, 0.99, 1}
	cases := []struct {
		name    string
		cap     int
		samples []int64
		// want[q] is the expected Percentile(q) for each q in qs.
		want     []int64
		wantMean float64
		wantMin  int64
		wantMax  int64
	}{
		{
			name: "empty", cap: 8, samples: nil,
			want: []int64{0, 0, 0, 0}, wantMean: 0, wantMin: 0, wantMax: 0,
		},
		{
			name: "single", cap: 8, samples: []int64{1234},
			want: []int64{1234, 1234, 1234, 1234}, wantMean: 1234, wantMin: 1234, wantMax: 1234,
		},
		{
			name: "all-equal", cap: 8, samples: []int64{500, 500, 500, 500},
			want: []int64{500, 500, 500, 500}, wantMean: 500, wantMin: 500, wantMax: 500,
		},
		{
			name: "two-distinct", cap: 8, samples: []int64{100, 300},
			// Exact path indexes int(q*(n-1)): p0/p50 land on the low
			// sample, only p100 reaches the high one.
			want: []int64{100, 100, 100, 300}, wantMean: 200, wantMin: 100, wantMax: 300,
		},
		{
			name: "negative-clamped", cap: 8, samples: []int64{-7, -7},
			want: []int64{0, 0, 0, 0}, wantMean: 0, wantMin: 0, wantMax: 0,
		},
		{
			// cap 2 forces samples 3 and 4 into log2 buckets: 4096 -> bucket
			// 12 (2^12), 8192 -> bucket 13. High quantiles must come back as
			// the bucket's lower bound, capped by the true max.
			name: "overflow-buckets", cap: 2, samples: []int64{10, 20, 4096, 8192},
			want: []int64{10, 20, 4096, 8192}, wantMean: (10 + 20 + 4096 + 8192) / 4.0,
			wantMin: 10, wantMax: 8192,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHist(tc.cap)
			for _, s := range tc.samples {
				h.Add(s)
			}
			for i, q := range qs {
				if got := h.Percentile(q); got != tc.want[i] {
					t.Errorf("Percentile(%g) = %d, want %d", q, got, tc.want[i])
				}
			}
			if got := h.Mean(); got != tc.wantMean {
				t.Errorf("Mean() = %g, want %g", got, tc.wantMean)
			}
			if got := h.Min(); got != tc.wantMin {
				t.Errorf("Min() = %d, want %d", got, tc.wantMin)
			}
			if got := h.Max(); got != tc.wantMax {
				t.Errorf("Max() = %d, want %d", got, tc.wantMax)
			}
			// CDF must agree with Percentile point-for-point and stay
			// monotone, degenerate inputs included.
			pts := h.CDF(qs)
			if len(pts) != len(qs) {
				t.Fatalf("CDF returned %d points, want %d", len(pts), len(qs))
			}
			for i, pt := range pts {
				if pt.Q != qs[i] || pt.Ns != tc.want[i] {
					t.Errorf("CDF[%d] = {%g, %d}, want {%g, %d}", i, pt.Q, pt.Ns, qs[i], tc.want[i])
				}
				if i > 0 && pt.Ns < pts[i-1].Ns {
					t.Errorf("CDF not monotone at %d: %d < %d", i, pt.Ns, pts[i-1].Ns)
				}
			}
		})
	}
}

// TestHistOverflowRanksTogether: once the cap overflows, bucketed samples
// rank among the exact ones by value, not after them. Four slow samples fill
// the cap, then twelve fast ones go to a bucket: p10 is fast, p90 is slow.
func TestHistOverflowRanksTogether(t *testing.T) {
	h := NewHist(4)
	for i := 0; i < 4; i++ {
		h.Add(100_000)
	}
	for i := 0; i < 12; i++ {
		h.Add(1000)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1000}, {0.1, 1000}, {0.7, 1000}, {0.8, 100_000}, {0.9, 100_000}, {1, 100_000}} {
		if got := h.Percentile(c.q); got != c.want {
			t.Errorf("Percentile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestHistOverflowBucketBoundaries pins log2Bucket at the values that have
// bitten log-bucket implementations before: 0, 1, powers of two and their
// neighbours, and the int64 extreme.
func TestHistOverflowBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1023, 9}, {1024, 10}, {1025, 10},
		{1 << 62, 62}, {1<<63 - 1, 62},
	}
	for _, c := range cases {
		if got := log2Bucket(c.ns); got != c.want {
			t.Errorf("log2Bucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestHistStringEmptyAndFilled covers the summary rendering both sides of
// the empty guard.
func TestHistStringEmptyAndFilled(t *testing.T) {
	h := NewHist(4)
	if h.String() != "hist{empty}" {
		t.Fatalf("empty String() = %q", h.String())
	}
	h.Add(1000)
	if got := h.String(); got != "hist{n=1 mean=1.00us p50=1.00us p99=1.00us max=1.00us}" {
		t.Fatalf("String() = %q", got)
	}
}
