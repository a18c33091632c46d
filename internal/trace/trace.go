// Package trace provides a lightweight ring-buffer event recorder for the
// simulated data path. Attach a Ring to an RNIC and every verb it carries
// (one-sided reads/writes, sends, datagrams) is logged with virtual
// timestamps, sizes and endpoints — enough to reconstruct an operation
// timeline when an experiment misbehaves, without perturbing results (the
// recorder costs host time only, never virtual time).
package trace

import (
	"fmt"
	"strings"

	"rfp/internal/sim"
)

// Kind labels a traced operation.
type Kind uint8

// Operation kinds.
const (
	Write Kind = iota
	Read
	Send
	Recv
	UCWrite
	UDSend
	UDRecv
	Drop // a UC/UD message lost in flight

	// Call-scoped kinds: markers the RFP data path emits around one call so
	// Stitch can rebuild a per-call span (see span.go). Events of these kinds
	// carry the Conn/Slot/Seq identity fields.
	CallPost  // client staged the request and wrote it to the server ring
	SrvRecv   // server CPU picked the request out of its ring
	SrvPub    // server published the result (status bit committed)
	FetchMiss // a client fetch read an incomplete/stale slot image
	FetchHit  // a client fetch read a complete result
	Fallback  // client gave up fetching and switched to server-reply wait
	CallDone  // client observed the call complete
)

var kindNames = [...]string{
	"WRITE", "READ", "SEND", "RECV", "UC-WRITE", "UD-SEND", "UD-RECV", "DROP",
	"CALL-POST", "SRV-RECV", "SRV-PUB", "FETCH-MISS", "FETCH-HIT", "FALLBACK", "CALL-DONE",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one traced operation. Verb events (recorded by rnic) leave the
// call identity fields zero; call-scoped events (recorded by core through a
// telemetry recorder) set Conn/Slot/Seq so Stitch can group them into spans.
type Event struct {
	Start sim.Time
	End   sim.Time
	Kind  Kind
	Src   string // initiating NIC
	Dst   string // remote NIC (empty for local-only events)
	Bytes int
	Conn  int32  // connection id (call-scoped events)
	Slot  int16  // ring slot
	Seq   uint16 // call sequence number within the connection
}

func (e Event) String() string {
	dst := e.Dst
	if dst == "" {
		dst = "-"
	}
	return fmt.Sprintf("%12v  %-8s %-16s -> %-16s %6dB  (%.2fus)",
		e.Start, e.Kind, e.Src, dst, e.Bytes, float64(e.End.Sub(e.Start))/1e3)
}

// Ring is a bounded event recorder; once full it overwrites oldest-first.
// A nil *Ring is valid and records nothing, so instrumented code needs no
// branches beyond the method call.
//
//rfp:nilsafe
type Ring struct {
	events []Event
	next   int
	full   bool
	total  uint64
}

// NewRing creates a recorder holding the last capacity events (default
// 4096 when non-positive).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{events: make([]Event, 0, capacity)}
}

// Record appends one event. Safe on a nil receiver.
//
//rfp:hotpath
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.total++
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, e)
		return
	}
	r.full = true
	r.events[r.next] = e
	r.next = (r.next + 1) % cap(r.events)
}

// Total returns how many events were recorded over the Ring's lifetime
// (including overwritten ones).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events in chronological order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.full {
		return append([]Event(nil), r.events...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Summary renders per-kind counts and byte totals.
func (r *Ring) Summary() string {
	counts := map[Kind]int{}
	bytes := map[Kind]int{}
	for _, e := range r.Events() {
		counts[e.Kind]++
		bytes[e.Kind] += e.Bytes
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events retained (%d total)\n", len(r.Events()), r.Total())
	for k := Kind(0); int(k) < len(kindNames); k++ {
		if counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %7d ops %12d bytes\n", k, counts[k], bytes[k])
	}
	return b.String()
}
