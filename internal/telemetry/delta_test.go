package telemetry

// Delta tests: Snapshot.Delta and HistSnap.Delta isolate the activity of
// one interval from boundary snapshots of a live recorder — the primitive
// the scenario harness builds per-phase telemetry on.

import "testing"

func TestSnapshotDelta(t *testing.T) {
	r := New(Config{})
	r.Claim(CallRecord{Writes: 2, TotalNs: 1000, SendNs: 400, RecvNs: 600})
	r.Occupancy(3)
	before := r.Snapshot()

	r.Claim(CallRecord{Reads: 4, Retries: 1, TotalNs: 2000, SendNs: 500, RecvNs: 1500})
	r.Claim(CallRecord{Fallback: true, Reply: true, TotalNs: 9000, SendNs: 500, RecvNs: 8500})
	r.Occupancy(5)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Calls != 2 || d.FetchCalls != 1 || d.ReplyCalls != 1 {
		t.Fatalf("delta calls %d/%d/%d, want 2/1/1", d.Calls, d.FetchCalls, d.ReplyCalls)
	}
	if d.Writes != 0 || d.Reads != 4 || d.Retries != 1 || d.Fallbacks != 1 {
		t.Fatalf("delta verbs w=%d r=%d retry=%d fb=%d", d.Writes, d.Reads, d.Retries, d.Fallbacks)
	}
	if d.Total.Count != 2 || d.Total.Sum != 11000 {
		t.Fatalf("delta total hist count=%d sum=%d, want 2/11000", d.Total.Count, d.Total.Sum)
	}
	if d.Send.Count != 2 || d.FetchLeg.Count != 1 || d.ReplyLeg.Count != 1 {
		t.Fatalf("delta leg counts %d/%d/%d", d.Send.Count, d.FetchLeg.Count, d.ReplyLeg.Count)
	}
	// An idle interval deltas to zero activity.
	z := after.Delta(after)
	if z.Calls != 0 || z.Total.Count != 0 || z.Reads != 0 {
		t.Fatalf("self-delta not empty: %+v", z)
	}
}

// TestCallCountsAreHistogramCounts: the call counts are the histograms'
// counts — Calls is Total's, FetchCalls FetchLeg's and ReplyCalls ReplyLeg's
// — in a recorder's snapshot and after the Merge and Delta the harness
// builds per-phase and per-shard telemetry with.
func TestCallCountsAreHistogramCounts(t *testing.T) {
	counts := func(what string, s Snapshot, calls, fetch, reply uint64) {
		t.Helper()
		if s.Calls != s.Total.Count || s.FetchCalls != s.FetchLeg.Count || s.ReplyCalls != s.ReplyLeg.Count ||
			s.Send.Count != s.Calls {
			t.Fatalf("%s: calls %d/%d/%d, histogram counts total %d send %d fetch %d reply %d",
				what, s.Calls, s.FetchCalls, s.ReplyCalls, s.Total.Count, s.Send.Count, s.FetchLeg.Count, s.ReplyLeg.Count)
		}
		if s.Calls != calls || s.FetchCalls != fetch || s.ReplyCalls != reply {
			t.Fatalf("%s: calls %d/%d/%d, want %d/%d/%d", what, s.Calls, s.FetchCalls, s.ReplyCalls, calls, fetch, reply)
		}
	}
	a, b := New(Config{}), New(Config{})
	for i := 0; i < 7; i++ {
		a.Call(int64(1000+i), 400, int64(600+i), i%3 == 0)
	}
	before := a.Snapshot()
	counts("a before", before, 7, 4, 3)
	for i := 0; i < 5; i++ {
		a.Call(2000, 500, 1500, i == 4)
		b.Call(9000, 500, 8500, true)
	}
	after := a.Snapshot()
	counts("a after", after, 12, 8, 4)
	counts("b", b.Snapshot(), 5, 0, 5)

	d := after.Delta(before)
	counts("delta", d, 5, 4, 1)
	d.Merge(b.Snapshot())
	counts("delta merged with b", d, 10, 4, 6)
	var m Snapshot
	m.Merge(after)
	m.Merge(b.Snapshot())
	counts("merge of a and b", m, 17, 8, 9)
	counts("delta of the merges", m.Delta(d), 7, 4, 3)
}

func TestHistSnapDelta(t *testing.T) {
	var h Hist
	h.Add(100)
	h.Add(200)
	prev := h.Snap()

	h.Add(300)
	h.Add(300)
	h.Add(300)
	cur := h.Snap()

	d := cur.Delta(prev)
	if d.Count != 3 || d.Sum != 900 {
		t.Fatalf("delta count=%d sum=%d, want 3/900", d.Count, d.Sum)
	}
	// All delta samples share one value: the percentile must be exact.
	if got := d.Percentile(0.99); got != 300 {
		t.Fatalf("delta p99 = %d, want exactly 300", got)
	}
	if d.Min > 300 || d.Max < 300 || d.Max > cur.Max {
		t.Fatalf("delta min/max %d/%d not tightened around 300", d.Min, d.Max)
	}
	// Reversed / equal snapshots delta to empty.
	if e := prev.Delta(cur); e.Count != 0 {
		t.Fatalf("reversed delta count = %d, want 0", e.Count)
	}
	if e := cur.Delta(cur); e.Count != 0 || e.Sum != 0 {
		t.Fatalf("self delta = %+v, want zero", e)
	}
}

// Delta percentiles over mixed samples stay within one sub-bucket (12.5%)
// of the true value even when min/max are not recoverable.
func TestHistSnapDeltaPercentileBound(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 1000; v++ {
		h.Add(v)
	}
	prev := h.Snap()
	for v := int64(10_000); v <= 20_000; v += 100 {
		h.Add(v)
	}
	d := h.Snap().Delta(prev)
	if d.Count != 101 {
		t.Fatalf("delta count = %d, want 101", d.Count)
	}
	p50 := float64(d.Percentile(0.50))
	if p50 < 15_000*0.875 || p50 > 15_000*1.125 {
		t.Fatalf("delta p50 = %.0f, want within 12.5%% of 15000", p50)
	}
	if d.Min < 10_000*0.875 || d.Max > 20_000 {
		t.Fatalf("delta min/max %d/%d outside tightened range", d.Min, d.Max)
	}
}
