package trace

import (
	"strings"
	"testing"

	"rfp/internal/sim"
)

func ev(t int64, k Kind, b int) Event {
	return Event{Start: sim.Time(t), End: sim.Time(t + 100), Kind: k, Src: "a", Dst: "b", Bytes: b}
}

func TestNilRingSafe(t *testing.T) {
	var r *Ring
	r.Record(ev(1, Read, 32)) // must not panic
	if r.Total() != 0 || r.Events() != nil {
		t.Fatal("nil ring should be inert")
	}
}

func TestRecordAndOrder(t *testing.T) {
	r := NewRing(8)
	for i := int64(0); i < 5; i++ {
		r.Record(ev(i*10, Write, 32))
	}
	events := r.Events()
	if len(events) != 5 || r.Total() != 5 {
		t.Fatalf("len=%d total=%d", len(events), r.Total())
	}
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatal("events out of order")
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := int64(0); i < 10; i++ {
		r.Record(ev(i, Read, 8))
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d", len(events))
	}
	if events[0].Start != 6 || events[3].Start != 9 {
		t.Fatalf("wrong window: %v..%v", events[0].Start, events[3].Start)
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestDumpAndSummary(t *testing.T) {
	r := NewRing(16)
	r.Record(ev(1000, Read, 64))
	r.Record(ev(2000, Drop, 32))
	sum := r.Summary()
	for _, want := range []string{"2 events", "READ", "DROP", "64 bytes"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Write.String() != "WRITE" || UDSend.String() != "UD-SEND" {
		t.Fatal("kind names")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should print")
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	if cap(r.events) != 4096 {
		t.Fatalf("cap = %d", cap(r.events))
	}
}
