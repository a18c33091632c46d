package trace

// Span-stitching coverage: a golden timeline for one fully-instrumented RFP
// call (two failed fetches, then the fallback path), plus a property test
// that Stitch's spans and orphans exactly partition the call-scoped event
// stream — no verb is dropped, duplicated, or invented.

import (
	"math/rand"
	"testing"

	"rfp/internal/sim"
)

// callEvent builds one call-scoped event at microsecond offsets.
func callEvent(k Kind, startUs, endUs float64, conn int32, slot int16, seq uint16, bytes int) Event {
	return Event{
		Start: sim.Time(startUs * 1e3), End: sim.Time(endUs * 1e3),
		Kind: k, Conn: conn, Slot: slot, Seq: seq, Bytes: bytes,
	}
}

// TestStitchGoldenTimeline reconstructs the canonical troubled call: posted,
// received, two fetch misses while the server is still computing, the client
// falls back to server-reply, the server publishes, the call completes.
func TestStitchGoldenTimeline(t *testing.T) {
	events := []Event{
		callEvent(CallPost, 0, 0.5, 3, -1, 42, 16),
		callEvent(SrvRecv, 0.9, 1.0, 3, -1, 42, 16),
		callEvent(FetchMiss, 1.2, 2.2, 3, -1, 42, 64),
		callEvent(FetchMiss, 2.4, 3.4, 3, -1, 42, 64),
		callEvent(Fallback, 3.5, 3.5, 3, -1, 42, 0),
		callEvent(SrvPub, 5.0, 5.1, 3, -1, 42, 32),
		callEvent(CallDone, 6.0, 6.0, 3, -1, 42, 32),
	}
	spans, orphans := Stitch(events)
	if len(orphans) != 0 {
		t.Fatalf("orphans = %d, want 0", len(orphans))
	}
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if !s.Complete || !s.Fallback {
		t.Fatalf("span complete=%v fallback=%v, want both", s.Complete, s.Fallback)
	}
	if s.Fetches != 2 || s.Misses != 2 {
		t.Fatalf("fetches=%d misses=%d, want 2/2", s.Fetches, s.Misses)
	}
	if s.Duration() != sim.Duration(6000) {
		t.Fatalf("Duration = %v, want 6us", s.Duration())
	}
	kinds := ""
	for _, e := range s.Events {
		kinds += e.Kind.String() + " "
	}
	if want := "CALL-POST SRV-RECV FETCH-MISS FETCH-MISS FALLBACK SRV-PUB CALL-DONE "; kinds != want {
		t.Fatalf("span events = %q, want %q", kinds, want)
	}
}

// TestStitchOrphansAndReuse covers the torn-stream cases: call events with
// no opening CallPost become orphans, and a reused (conn,seq) key leaves the
// earlier span incomplete rather than merging two calls.
func TestStitchOrphansAndReuse(t *testing.T) {
	events := []Event{
		// Orphans: their CallPost fell off the ring.
		callEvent(FetchHit, 0.1, 0.2, 1, -1, 7, 8),
		callEvent(CallDone, 0.3, 0.3, 1, -1, 7, 8),
		// First call on (2, 9) never observes its CallDone...
		callEvent(CallPost, 1.0, 1.1, 2, 0, 9, 16),
		callEvent(FetchMiss, 1.5, 1.6, 2, 0, 9, 64),
		// ...because the sequence number wrapped onto a fresh call.
		callEvent(CallPost, 2.0, 2.1, 2, 1, 9, 16),
		callEvent(FetchHit, 2.5, 2.6, 2, 1, 9, 64),
		callEvent(CallDone, 3.0, 3.0, 2, 1, 9, 40),
		// Non-call events are skipped entirely.
		{Start: 10, End: 20, Kind: Read, Bytes: 64},
	}
	spans, orphans := Stitch(events)
	if len(orphans) != 2 {
		t.Fatalf("orphans = %d, want 2", len(orphans))
	}
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Complete {
		t.Fatal("superseded span reported complete")
	}
	if spans[0].Misses != 1 || spans[0].Slot != 0 {
		t.Fatalf("superseded span misses=%d slot=%d", spans[0].Misses, spans[0].Slot)
	}
	if !spans[1].Complete || spans[1].Slot != 1 || spans[1].Fetches != 1 {
		t.Fatalf("second span complete=%v slot=%d fetches=%d", spans[1].Complete, spans[1].Slot, spans[1].Fetches)
	}
}

// TestStitchPartitionProperty generates random call-event streams and checks
// the partition invariant: every call-scoped event lands in exactly one span
// or in the orphan list, and no event is duplicated or fabricated.
func TestStitchPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	callKinds := []Kind{SrvRecv, SrvPub, FetchMiss, FetchHit, Fallback, CallDone}
	for iter := 0; iter < 200; iter++ {
		var events []Event
		now := 0.0
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			now += rng.Float64()
			conn := int32(rng.Intn(3))
			seq := uint16(rng.Intn(4))
			var k Kind
			// Bias toward opening calls so spans actually form, and mix in
			// non-call verbs that Stitch must ignore.
			switch r := rng.Intn(10); {
			case r < 3:
				k = CallPost
			case r < 9:
				k = callKinds[rng.Intn(len(callKinds))]
			default:
				events = append(events, Event{Start: sim.Time(now * 1e3), Kind: Read, Bytes: 64})
				continue
			}
			events = append(events, callEvent(k, now, now+0.1, conn, int16(rng.Intn(2)), seq, rng.Intn(128)))
		}
		spans, orphans := Stitch(events)

		var callScoped int
		for _, e := range events {
			if e.Kind.CallScoped() {
				callScoped++
			}
		}
		stitched := len(orphans)
		for _, s := range spans {
			stitched += len(s.Events)
			// Per-span sanity: it opens with its CallPost, stays on one
			// (conn, seq) identity, and its counters match its events.
			if s.Events[0].Kind != CallPost {
				t.Fatalf("iter %d: span does not open with CallPost", iter)
			}
			fetches, misses, done := 0, 0, false
			for _, e := range s.Events {
				if e.Conn != s.Conn || e.Seq != s.Seq {
					t.Fatalf("iter %d: span mixes identities (%d,%d) vs (%d,%d)",
						iter, e.Conn, e.Seq, s.Conn, s.Seq)
				}
				switch e.Kind {
				case FetchMiss:
					fetches, misses = fetches+1, misses+1
				case FetchHit:
					fetches++
				case CallDone:
					done = true
				}
				if e.End > s.End {
					t.Fatalf("iter %d: span End precedes an event End", iter)
				}
			}
			if fetches != s.Fetches || misses != s.Misses || done != s.Complete {
				t.Fatalf("iter %d: counters fetches=%d/%d misses=%d/%d complete=%v/%v",
					iter, s.Fetches, fetches, s.Misses, misses, s.Complete, done)
			}
		}
		for _, e := range orphans {
			if !e.Kind.CallScoped() || e.Kind == CallPost {
				t.Fatalf("iter %d: orphan of kind %v", iter, e.Kind)
			}
		}
		if stitched != callScoped {
			t.Fatalf("iter %d: partition broken: %d call events, %d stitched",
				iter, callScoped, stitched)
		}
	}
}
