package telemetry

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"rfp/internal/trace"
)

// TestNilRecorderSafe exercises every hook on a nil receiver — the detached
// default every instrumented code path relies on.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Call(10, 5, 5, false)
	r.Claim(CallRecord{Writes: 1, Reads: 2, Retries: 3, Fallback: true})
	r.Occupancy(4)
	r.Decide(Decision{Param: "F"})
	r.Event(trace.Event{Kind: trace.CallPost})
	if r.SpanEvents() != nil {
		t.Fatal("nil recorder returned span events")
	}
	if sp, or := r.Spans(); sp != nil || or != nil {
		t.Fatal("nil recorder returned spans")
	}
	s := r.Snapshot()
	if s.Calls != 0 || s.RoundTripsPerCall() != 0 || s.FetchesPerCall() != 0 {
		t.Fatal("nil recorder snapshot not zero")
	}
}

func TestRecorderCountersAndLegs(t *testing.T) {
	r := New(Config{})
	r.Claim(CallRecord{Writes: 1, Reads: 1, TotalNs: 1000, SendNs: 400, RecvNs: 600})
	r.Claim(CallRecord{Writes: 1, Reads: 3, Retries: 2, TotalNs: 2000, SendNs: 500, RecvNs: 1500})
	r.Claim(CallRecord{Writes: 1, Fallback: true, Reply: true, TotalNs: 9000, SendNs: 500, RecvNs: 8500})

	s := r.Snapshot()
	if s.Calls != 3 || s.FetchCalls != 2 || s.ReplyCalls != 1 {
		t.Fatalf("calls %d/%d/%d", s.Calls, s.FetchCalls, s.ReplyCalls)
	}
	if s.Writes != 3 || s.Reads != 4 || s.Retries != 2 || s.Fallbacks != 1 {
		t.Fatalf("verbs w=%d r=%d retry=%d fb=%d", s.Writes, s.Reads, s.Retries, s.Fallbacks)
	}
	if s.Total.Count != 3 || s.Send.Count != 3 || s.FetchLeg.Count != 2 || s.ReplyLeg.Count != 1 {
		t.Fatalf("hist counts %d/%d/%d/%d", s.Total.Count, s.Send.Count, s.FetchLeg.Count, s.ReplyLeg.Count)
	}
	if s.Total.Min != 1000 || s.Total.Max != 9000 {
		t.Fatalf("total min/max %d/%d", s.Total.Min, s.Total.Max)
	}
	if got := s.RoundTripsPerCall(); got != 7.0/3 {
		t.Fatalf("RoundTripsPerCall = %g", got)
	}
	if got := s.FetchesPerCall(); got != 4.0/3 {
		t.Fatalf("FetchesPerCall = %g", got)
	}
}

// A failed call's verbs count; it adds no call and no latency sample.
func TestFailedClaimCountsVerbsOnly(t *testing.T) {
	r := New(Config{})
	r.Claim(CallRecord{Writes: 1, Reads: 1, TotalNs: 1000, SendNs: 400, RecvNs: 600})
	r.Claim(CallRecord{Writes: 2, Reads: 3, Retries: 3, Fallback: true, Failed: true, TotalNs: 5000})
	s := r.Snapshot()
	if s.Calls != 1 || s.Total.Count != 1 || s.Send.Count != 1 || s.Total.Max != 1000 {
		t.Fatalf("calls %d, total n=%d max=%d, send n=%d; want the completed call alone",
			s.Calls, s.Total.Count, s.Total.Max, s.Send.Count)
	}
	if s.Writes != 3 || s.Reads != 4 || s.Retries != 3 || s.Fallbacks != 1 {
		t.Fatalf("verbs w=%d r=%d retry=%d fb=%d, want 3/4/3/1", s.Writes, s.Reads, s.Retries, s.Fallbacks)
	}
}

func TestOccupancyClampAndStats(t *testing.T) {
	r := New(Config{})
	r.Occupancy(-5) // clamps to 0
	r.Occupancy(1)
	r.Occupancy(1)
	r.Occupancy(2)
	r.Occupancy(MaxOccupancy + 9) // clamps into the last bin
	s := r.Snapshot()
	if s.Occupancy[0] != 1 || s.Occupancy[1] != 2 || s.Occupancy[2] != 1 || s.Occupancy[MaxOccupancy] != 1 {
		t.Fatalf("occupancy bins %v", s.Occupancy[:3])
	}
	if got := s.PeakOccupancy(); got != MaxOccupancy {
		t.Fatalf("PeakOccupancy = %d", got)
	}
	want := float64(0+1+1+2+MaxOccupancy) / 5
	if got := s.MeanOccupancy(); got != want {
		t.Fatalf("MeanOccupancy = %g, want %g", got, want)
	}
	if (Snapshot{}).MeanOccupancy() != 0 || (Snapshot{}).PeakOccupancy() != 0 {
		t.Fatal("empty occupancy stats not zero")
	}
}

func TestDecisionLogBounded(t *testing.T) {
	const n = decisionCap + 3
	r := New(Config{})
	for i := 0; i < n; i++ {
		r.Decide(Decision{Param: "depth", Old: i, New: i + 1})
	}
	s := r.Snapshot()
	if s.DecisionsTotal != n {
		t.Fatalf("DecisionsTotal = %d", s.DecisionsTotal)
	}
	if len(s.Decisions) != decisionCap {
		t.Fatalf("retained %d decisions, want %d", len(s.Decisions), decisionCap)
	}
	// Oldest dropped first: retained window is decisions 3..n-1.
	if first, last := s.Decisions[0].Old, s.Decisions[decisionCap-1].Old; first != 3 || last != n-1 {
		t.Fatalf("retained window [%d..%d], want [3..%d]", first, last, n-1)
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{At: 1500, Conn: 2, Param: "F", Old: 256, New: 640,
		Window: 2048, MedianSize: 512, MedianProcNs: 1800}
	got := d.String()
	for _, frag := range []string{"conn=2", "F", "256 -> 640", "window 2048", "median size 512B", "median proc 1800ns"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("String() = %q missing %q", got, frag)
		}
	}
	bare := Decision{Conn: -1, Param: "demote", Old: 0, New: 1}.String()
	if strings.Contains(bare, "window") {
		t.Fatalf("bare decision rendered justification: %q", bare)
	}
}

func TestSpanRecording(t *testing.T) {
	r := New(Config{SpanEvents: 16})
	r.Event(trace.Event{Kind: trace.CallPost, Conn: 1, Seq: 5, Start: 10, End: 12})
	r.Event(trace.Event{Kind: trace.FetchHit, Conn: 1, Seq: 5, Start: 20, End: 25})
	r.Event(trace.Event{Kind: trace.CallDone, Conn: 1, Seq: 5, Start: 30, End: 30})
	if got := len(r.SpanEvents()); got != 3 {
		t.Fatalf("SpanEvents = %d", got)
	}
	spans, orphans := r.Spans()
	if len(spans) != 1 || len(orphans) != 0 {
		t.Fatalf("spans=%d orphans=%d", len(spans), len(orphans))
	}
	if !spans[0].Complete || spans[0].Fetches != 1 {
		t.Fatalf("span %+v", spans[0])
	}

	off := New(Config{})
	off.Event(trace.Event{Kind: trace.CallPost}) // no-op, must not panic
	if off.SpanEvents() != nil {
		t.Fatal("span recording off but events retained")
	}
}

func TestSnapshotMergeAndText(t *testing.T) {
	a := New(Config{})
	a.Claim(CallRecord{Writes: 1, Reads: 1, TotalNs: 1000, SendNs: 400, RecvNs: 600})
	a.Occupancy(1)
	b := New(Config{})
	b.Claim(CallRecord{Writes: 1, Reads: 2, Retries: 1, Fallback: true, Reply: true, TotalNs: 5000, SendNs: 500, RecvNs: 4500})
	b.Occupancy(2)
	b.Decide(Decision{Param: "R", Old: 3, New: 5})

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Calls != 2 || s.FetchCalls != 1 || s.ReplyCalls != 1 {
		t.Fatalf("merged calls %d/%d/%d", s.Calls, s.FetchCalls, s.ReplyCalls)
	}
	if s.Total.Count != 2 || s.Total.Min != 1000 || s.Total.Max != 5000 {
		t.Fatalf("merged total hist %+v", s.Total)
	}
	if s.Occupancy[1] != 1 || s.Occupancy[2] != 1 {
		t.Fatal("merged occupancy lost samples")
	}
	if len(s.Decisions) != 1 || s.DecisionsTotal != 1 {
		t.Fatal("merged decision log lost entries")
	}

	text := strings.Join(s.Text(), "\n")
	for _, frag := range []string{"calls 2 (1 fetch, 1 reply)", "round-trips/call 2.500",
		"paper: 2.005", "retries 1  fallbacks 1", "total", "send", "fetch-leg", "reply-leg",
		"tuner decisions 1"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("Text missing %q:\n%s", frag, text)
		}
	}
	if empty := (Snapshot{}).Text(); len(empty) != 1 || empty[0] != "no calls recorded" {
		t.Fatalf("empty Text = %v", empty)
	}
}

// TestHistBucketRoundTrip checks the log-linear invariants across the whole
// range: bucketOf is monotone, bucketMid lands inside its own bucket, and
// the worst-case relative error is bounded by the sub-bucket resolution.
func TestHistBucketRoundTrip(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 4096, 1 << 20, 1 << 40, 1<<62 + 12345} {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
		prev = idx
		if got := bucketOf(bucketMid(idx)); got != idx {
			t.Fatalf("bucketMid(%d)=%d maps to bucket %d", idx, bucketMid(idx), got)
		}
		mid := bucketMid(idx)
		if v >= histSub {
			if rel := float64(mid-v) / float64(v); rel > 1.0/histSub || rel < -1.0/histSub {
				t.Fatalf("bucketMid(%d)=%d off by %.2f%% from %d", idx, mid, 100*rel, v)
			}
		} else if mid != v {
			t.Fatalf("small value %d not exact (mid %d)", v, mid)
		}
	}
	if bucketOf(-1) != 0 {
		t.Fatal("negative value not clamped to bucket 0")
	}
	if idx := bucketOf(1<<63 - 1); idx < bucketOf(1<<62) || idx >= histBuckets {
		t.Fatalf("max int64 in bucket %d, want within [%d, %d)", idx, bucketOf(1<<62), histBuckets)
	}
}

// TestHistPercentileAccuracy feeds random samples and checks every reported
// percentile against the exact order statistic within the histogram's
// resolution bound (12.5% relative, clamped by min/max).
func TestHistPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var h Hist
	samples := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 50_000) // long-tailed, like latencies
		h.Add(v)
		samples = append(samples, v)
	}
	var snap HistSnap
	h.snapshot(&snap)
	sortInt64(samples)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		rank := int(q * float64(len(samples)))
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		got := snap.Percentile(q)
		lo := exact - exact/histSub - 1
		hi := exact + exact/histSub + 1
		if got < lo || got > hi {
			t.Fatalf("p%g = %d, exact %d, outside [%d, %d]", q*100, got, exact, lo, hi)
		}
	}
	if snap.Percentile(-1) != snap.Percentile(0) || snap.Percentile(2) != snap.Percentile(1) {
		t.Fatal("quantile clamping broken")
	}
	var empty HistSnap
	if empty.Percentile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram stats not zero")
	}
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestSnapshotWhileRecording is the package-local race check: one writer
// (the simulation's role), many concurrent snapshot readers. A snapshot
// taken mid-call may see its total latency without its legs, so the only
// bound a reader can check is that nothing runs ahead of the writer.
func TestSnapshotWhileRecording(t *testing.T) {
	r := New(Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := r.Snapshot(); s.Calls > 20_000 || s.FetchCalls+s.ReplyCalls > 20_000 {
					t.Errorf("snapshot counts %d calls, %d by leg, of 20000 recorded", s.Calls, s.FetchCalls+s.ReplyCalls)
					return
				}
			}
		}()
	}
	for i := 0; i < 20_000; i++ {
		r.Claim(CallRecord{Writes: 1, Reads: 1, Reply: i%7 == 0, TotalNs: int64(i%1000 + 1), SendNs: 1, RecvNs: 1})
		r.Occupancy(i % 4)
		if i%500 == 0 {
			r.Decide(Decision{Param: "F", Old: i, New: i + 1})
		}
	}
	close(stop)
	wg.Wait()
	if got := r.Snapshot().Calls; got != 20_000 {
		t.Fatalf("Calls = %d", got)
	}
}
