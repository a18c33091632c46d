// Package core implements the Remote Fetching Paradigm (RFP), the RDMA RPC
// paradigm proposed by the paper: clients send requests into the server's
// memory with RDMA Write, the server processes them on its CPU and buffers
// results locally, and clients remotely fetch results with RDMA Read — so
// the server's RNIC handles only cheap in-bound operations, exploiting the
// in-bound/out-bound asymmetry while avoiding server-bypass's access
// amplification.
//
// The package provides the paper's Table-2 primitives (client_send,
// client_recv, server_send, server_recv, malloc_buf, free_buf) as methods on
// Client and Conn, the hybrid repeated-fetch/server-reply mechanism with its
// R (retry threshold) and F (fetch size) parameters, and the
// enumeration-based parameter selection of Sec. 3.2.
package core

import (
	"encoding/binary"
	"fmt"
)

// HeaderSize is the size of the request/response buffer header (paper
// Fig. 7): a 32-bit word holding a 1-bit status flag and a 31-bit size, a
// 16-bit server process time and a 16-bit sequence number. A request has no
// process time to report; its byte 4 (reqModeOff) carries instead the
// delivery mode the client asks for, so the mode travels with each request.
//
// The sequence number is an addition over the figure: with only a status
// bit, a client that issues request N+1 and fetches immediately could
// mistake the still-buffered response N for its answer. Echoing the request
// sequence makes stale responses detectable.
const HeaderSize = 8

// MaxPayload is the largest request or response payload encodable in the
// 31-bit size field. Practical buffers are far smaller.
const MaxPayload = 1<<31 - 1

// reqModeOff is the offset of a request header's mode byte: the call's
// Mode, written by stage and rewritten by a call that switches to reply in
// flight, read by the server when it publishes the response.
const reqModeOff = 4

// header is the decoded form of a buffer header.
type header struct {
	valid  bool
	size   int
	timeUs uint16 // server process time, microseconds (response only)
	seq    uint16
}

// putHeader encodes h into buf[0:8].
//
//rfp:hotpath
func putHeader(buf []byte, h header) {
	word := uint32(h.size)
	if h.valid {
		word |= 1 << 31
	}
	binary.LittleEndian.PutUint32(buf[0:4], word)
	binary.LittleEndian.PutUint16(buf[4:6], h.timeUs)
	binary.LittleEndian.PutUint16(buf[6:8], h.seq)
}

// parseHeader decodes buf[0:8].
//
//rfp:hotpath
func parseHeader(buf []byte) header {
	word := binary.LittleEndian.Uint32(buf[0:4])
	return header{
		valid:  word&(1<<31) != 0,
		size:   int(word &^ (1 << 31)),
		timeUs: binary.LittleEndian.Uint16(buf[4:6]),
		seq:    binary.LittleEndian.Uint16(buf[6:8]),
	}
}

// consume clears a request header's status/size word, freeing the slot for
// the client's next request; the mode and seq bytes stay for the publish.
//
//rfp:hotpath
func consume(buf []byte) { binary.LittleEndian.PutUint32(buf[0:4], 0) }

// parseSlot validates a slot image of arbitrary length: it accepts only a
// complete request/response whose status bit is set and whose announced
// size fits both the payload bound and the image itself, returning the
// payload sub-slice. Anything else — short buffer, status bit still clear
// (the publish's last byte has not landed), size out of bounds — is
// rejected; the returned header carries whatever was decodable so callers
// can tell an empty slot from a torn or corrupt one. Never panics on
// arbitrary bytes (fuzzed in fuzz_test.go).
//
//rfp:hotpath
func parseSlot(buf []byte, maxPayload int) (header, []byte, bool) {
	if len(buf) < HeaderSize {
		return header{}, nil, false
	}
	hdr := parseHeader(buf)
	if !hdr.valid {
		return hdr, nil, false
	}
	if hdr.size < 0 || hdr.size > maxPayload || HeaderSize+hdr.size > len(buf) {
		return hdr, nil, false
	}
	return hdr, buf[HeaderSize : HeaderSize+hdr.size], true
}

// stageResponse writes everything about a response *except* its validity:
// payload bytes, process time, sequence number, and the size word with the
// status bit clear. Until commitResponse runs, a concurrent remote fetch of
// the slot parses as invalid (or as the previous, stale sequence) — never as
// a valid response with half-written contents.
//
//rfp:hotpath
func stageResponse(buf []byte, h header, payload []byte) {
	copy(buf[HeaderSize:], payload)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(h.size))
	binary.LittleEndian.PutUint16(buf[4:6], h.timeUs)
	binary.LittleEndian.PutUint16(buf[6:8], h.seq)
}

// commitResponse publishes a staged response by setting the status bit —
// the single byte written last, which is what makes the fetch-side validity
// check sound (paper Fig. 7; property-tested in wire_prop_test.go).
//
//rfp:hotpath
func commitResponse(buf []byte, h header) {
	if h.valid {
		buf[3] |= 1 << 7
	}
}

// putResponse is stage + commit in order: the full response publish.
//
//rfp:hotpath
func putResponse(buf []byte, h header, payload []byte) {
	stageResponse(buf, h, payload)
	commitResponse(buf, h)
}

// clampTimeUs converts a nanosecond duration to the header's 16-bit
// microsecond field, saturating at the field's maximum.
//
//rfp:hotpath
func clampTimeUs(ns int64) uint16 {
	us := ns / 1000
	if us > 65535 {
		return 65535
	}
	if us < 0 {
		return 0
	}
	return uint16(us)
}

// Mode is the delivery mode of the hybrid mechanism. Each call carries its
// own in its request header; the client's mode is what its next post
// carries.
type Mode uint8

// Delivery modes. ModeFetch is the RFP fast path (client RDMA-Reads results
// from server memory); ModeReply is the traditional server-reply fallback
// (server RDMA-Writes results to the client).
const (
	ModeFetch Mode = 0
	ModeReply Mode = 1
)

// modeClosed marks a torn-down connection in the server-side flag byte, the
// byte's only value besides zero (Conn.Closed reads it).
const modeClosed byte = 0x80

func (m Mode) String() string {
	switch m {
	case ModeFetch:
		return "fetch"
	case ModeReply:
		return "reply"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// connAlign is the slot alignment of the connection region (cache-line
// sized, like the paper's buffers).
const connAlign = 64

// Slot-ring geometry. A connection's server-side region holds the 1-byte
// closed flag followed by Params.Depth independent request/response slots:
//
//	[closed flag | pad][slot 0: req hdr+payload | resp hdr+payload][slot 1: ...]
//
// Each slot carries its own status-bit + size headers, so requests and
// responses in different slots are completely independent: a client may keep
// up to Depth calls in flight on one connection (Post/Poll), and the server
// drains whichever slots hold valid requests. Depth 1 reproduces the
// original single-slot layout byte for byte.

// reqArea / respArea are one slot's aligned request and response extents.
func reqArea(cfg ServerConfig) int  { return align(HeaderSize+cfg.MaxRequest, connAlign) }
func respArea(cfg ServerConfig) int { return align(HeaderSize+cfg.MaxResponse, connAlign) }

// slotStride is the distance between consecutive slots in the region.
func slotStride(cfg ServerConfig) int { return reqArea(cfg) + respArea(cfg) }

// reqOffAt / respOffAt locate slot i's request and response buffers within
// the connection region.
func reqOffAt(cfg ServerConfig, i int) int  { return connAlign + i*slotStride(cfg) }
func respOffAt(cfg ServerConfig, i int) int { return reqOffAt(cfg, i) + reqArea(cfg) }

// regionSize is the registered-region size for a depth-D connection.
func regionSize(cfg ServerConfig, depth int) int { return connAlign + depth*slotStride(cfg) }

func align(v, a int) int { return (v + a - 1) / a * a }
