package telemetry

import (
	"testing"

	"rfp/internal/trace"
)

// BenchmarkRecorderAllocs pins the package's central promise: every hot-path
// hook — the per-call Claim (verb counters and histograms, for completed and
// failed calls), the occupancy gauge, and span recording into a pre-sized
// ring — runs without heap allocation, on both a live and a detached (nil)
// recorder. AllocsPerRun makes the check exact; any regression fails the
// benchmark rather than just slowing it down.
func BenchmarkRecorderAllocs(b *testing.B) {
	rec := New(Config{SpanEvents: 64})
	ev := trace.Event{Kind: trace.CallPost, Conn: 1, Slot: 2, Seq: 3}
	fetched := CallRecord{Writes: 1, Reads: 4, Retries: 3, TotalNs: 1500, SendNs: 400, RecvNs: 900}
	switched := CallRecord{Writes: 1, Reads: 4, Retries: 4, Fallback: true, Reply: true, TotalNs: 2100, SendNs: 500, RecvNs: 1200}
	failed := CallRecord{Writes: 2, Reads: 1, Failed: true}
	hooks := func() {
		rec.Claim(fetched)
		rec.Claim(switched)
		rec.Claim(failed)
		rec.Call(1500, 400, 900, false)
		rec.Occupancy(7)
		rec.Event(ev)
	}
	if allocs := testing.AllocsPerRun(1000, hooks); allocs != 0 {
		b.Fatalf("hot-path hooks allocate %v times per op, want 0", allocs)
	}
	var detached *Recorder
	nilHooks := func() {
		detached.Claim(fetched)
		detached.Call(1500, 400, 900, false)
		detached.Occupancy(1)
		detached.Event(ev)
	}
	if allocs := testing.AllocsPerRun(1000, nilHooks); allocs != 0 {
		b.Fatalf("detached-recorder hooks allocate %v times per op, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hooks()
	}
}
