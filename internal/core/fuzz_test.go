package core

// Satellite hardening for the wire/slot parser: parseSlot is the single
// validation gate both the server's request scan (Conn.TryRecv) and — by
// construction — any future slot consumer go through, so it must hold two
// properties on arbitrary byte images: it never panics, and it never accepts
// an incomplete publish (status bit clear, or an announced size the image
// cannot back). The corpus is seeded from the same torn-delivery model the
// fault injector uses (internal/faults.Damage: status bit cleared, payload
// bytes flipped).

import (
	"bytes"
	"testing"

	"rfp/internal/faults"
	"rfp/internal/rnic"
	"rfp/internal/sim"
)

// fuzzSeedImages builds representative slot images: complete publishes of
// several sizes, a staged-but-uncommitted response, a truncated (torn) tail,
// an oversized size field, and injector-damaged copies of the valid ones.
func fuzzSeedImages() [][]byte {
	var seeds [][]byte
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xA5}, 32), bytes.Repeat([]byte{0x5A}, 256)}
	for i, pl := range payloads {
		buf := make([]byte, HeaderSize+len(pl)+8)
		putResponse(buf, header{valid: true, size: len(pl), timeUs: uint16(i), seq: uint16(1000 + i)}, pl)
		seeds = append(seeds, append([]byte(nil), buf...))

		// The same response staged but never committed: the publish's last
		// byte (the status bit) has not landed.
		staged := make([]byte, len(buf))
		stageResponse(staged, header{size: len(pl), timeUs: uint16(i), seq: uint16(1000 + i)}, pl)
		seeds = append(seeds, staged)

		// Torn tail: the header announces the full size but the image stops
		// one byte short of it.
		if len(pl) > 0 {
			seeds = append(seeds, append([]byte(nil), buf[:HeaderSize+len(pl)-1]...))
		}
	}
	// A size field larger than any payload the image (or the bound) can back.
	big := make([]byte, HeaderSize+16)
	putHeader(big, header{valid: true, size: MaxPayload, seq: 7})
	seeds = append(seeds, big)

	// Injector-damaged deliveries: the chaos fabric's torn-write model.
	inj := faults.New(3, nil)
	for _, pl := range payloads[1:] {
		buf := make([]byte, HeaderSize+len(pl))
		putResponse(buf, header{valid: true, size: len(pl), seq: 9}, pl)
		inj.Damage(rnic.FaultOp{Op: rnic.WRRead, Bytes: len(buf)}, buf)
		seeds = append(seeds, buf)
	}
	return seeds
}

func FuzzParseSlot(f *testing.F) {
	for _, img := range fuzzSeedImages() {
		f.Add(img, uint16(64))
		f.Add(img, uint16(len(img)))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x80}, uint16(8))

	f.Fuzz(func(t *testing.T, data []byte, mp uint16) {
		maxPayload := int(mp)
		hdr, payload, ok := parseSlot(data, maxPayload)
		if !ok {
			if payload != nil {
				t.Fatalf("rejected slot returned a payload (%d bytes)", len(payload))
			}
			return
		}
		// Accepted: every invariant the consumers rely on must hold.
		if !hdr.valid {
			t.Fatal("accepted slot with status bit clear")
		}
		if hdr.size < 0 || hdr.size > maxPayload {
			t.Fatalf("accepted size %d outside [0, %d]", hdr.size, maxPayload)
		}
		if HeaderSize+hdr.size > len(data) {
			t.Fatalf("accepted size %d beyond image of %d bytes", hdr.size, len(data))
		}
		if len(payload) != hdr.size {
			t.Fatalf("payload %d bytes, header says %d", len(payload), hdr.size)
		}
		if hdr.size > 0 && &payload[0] != &data[HeaderSize] {
			t.Fatal("payload is not the in-place sub-slice")
		}
		if data[3]&0x80 == 0 {
			t.Fatal("accepted image whose status byte is clear")
		}

		// Never-accept-incomplete, checked constructively: clearing the
		// status bit (un-publishing) must reject, and so must truncating the
		// image below the announced payload.
		unpub := append([]byte(nil), data...)
		unpub[3] &^= 0x80
		if _, _, stillOK := parseSlot(unpub, maxPayload); stillOK {
			t.Fatal("accepted slot after its status bit was cleared")
		}
		if hdr.size > 0 {
			if _, _, tornOK := parseSlot(data[:HeaderSize+hdr.size-1], maxPayload); tornOK {
				t.Fatal("accepted image truncated below its announced size")
			}
		}

		// A delivery damaged by the fault injector clears the status bit
		// before flipping bytes, so it must always reject.
		damaged := append([]byte(nil), data...)
		faults.New(11, nil).
			Damage(rnic.FaultOp{Op: rnic.WRRead, Bytes: len(damaged)}, damaged)
		if _, _, dmgOK := parseSlot(damaged, maxPayload); dmgOK {
			t.Fatal("accepted injector-damaged image")
		}
	})
}

// TestTryRecvBadRequest drives the parser's server-side consumer: a slot
// whose status bit is set but whose size field is garbage must be consumed
// (cleared, so it cannot wedge the scan), counted in BadRequests, and must
// serve nothing.
func TestTryRecvBadRequest(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	_, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)

	// Forge a torn delivery in slot 0: status bit set, size far beyond
	// MaxRequest.
	off := reqOffAt(conn.srv.cfg, 0)
	putHeader(conn.buf[off:], header{valid: true, size: conn.srv.cfg.MaxRequest + 999, seq: 3})

	done := false
	buf := make([]byte, conn.srv.cfg.MaxRequest)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		if req, ok := conn.TryRecv(p, buf); ok {
			t.Errorf("TryRecv accepted a garbage slot (%d bytes)", len(req))
		}
		if conn.BadRequests != 1 {
			t.Errorf("BadRequests = %d, want 1", conn.BadRequests)
		}
		// The slot must be consumed: a rescan finds nothing and counts
		// nothing new.
		if _, ok := conn.TryRecv(p, buf); ok {
			t.Error("garbage slot not cleared by first scan")
		}
		if conn.BadRequests != 1 {
			t.Errorf("BadRequests after rescan = %d, want 1", conn.BadRequests)
		}
		done = true
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !done {
		t.Fatal("server proc never ran")
	}
}
