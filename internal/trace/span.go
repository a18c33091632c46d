package trace

// Span reconstruction: stitch the call-scoped events the RFP data path
// emits (CallPost..CallDone) into per-call spans, so a misbehaving run is
// explained by a timeline — which fetch missed, when the server published,
// whether the call fell back to server-reply — instead of guessed from raw
// verb dumps.

import "rfp/internal/sim"

// CallScoped reports whether k is a call-scoped span marker (carries the
// Conn/Slot/Seq identity fields).
func (k Kind) CallScoped() bool { return k >= CallPost && k <= CallDone }

// Span is one reconstructed RFP call: every call-scoped event between the
// client's post and its observation of completion, in time order.
type Span struct {
	Conn     int32
	Seq      uint16
	Slot     int16 // ring slot of the CallPost
	Start    sim.Time
	End      sim.Time
	Events   []Event
	Fetches  int  // fetch attempts (misses + hits)
	Misses   int  // fetch attempts that read an incomplete/stale image
	Fallback bool // the call switched to server-reply mid-flight
	Complete bool // both CallPost and CallDone were observed
}

// Duration is the post→completion latency of a complete span.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Stitch groups call-scoped events into per-call spans keyed by
// (connection, sequence number). Events must be in chronological order (as
// Ring.Events returns them). Non-call events are skipped — they belong to
// the NIC-level verb timeline, not to a specific call. A call-scoped event
// whose call was never opened by a CallPost (its post fell off the ring, or
// the stream is torn) is returned as an orphan; together the spans and
// orphans partition the call-scoped event stream.
func Stitch(events []Event) (spans []Span, orphans []Event) {
	open := map[uint64]int{} // (conn,seq) -> index into spans
	key := func(e Event) uint64 { return uint64(uint32(e.Conn))<<16 | uint64(e.Seq) }
	for _, e := range events {
		if !e.Kind.CallScoped() {
			continue
		}
		k := key(e)
		if e.Kind == CallPost {
			// A reused (conn,seq) pair means the previous call's CallDone was
			// lost; leave that span incomplete and open a fresh one.
			open[k] = len(spans)
			spans = append(spans, Span{
				Conn:   e.Conn,
				Seq:    e.Seq,
				Slot:   e.Slot,
				Start:  e.Start,
				End:    e.End,
				Events: []Event{e},
			})
			continue
		}
		i, ok := open[k]
		if !ok {
			orphans = append(orphans, e)
			continue
		}
		s := &spans[i]
		s.Events = append(s.Events, e)
		if e.End > s.End {
			s.End = e.End
		}
		switch e.Kind {
		case FetchMiss:
			s.Fetches++
			s.Misses++
		case FetchHit:
			s.Fetches++
		case Fallback:
			s.Fallback = true
		case CallDone:
			s.Complete = true
			delete(open, k)
		}
	}
	return spans, orphans
}
