package core

// Telemetry plumbing: attach a telemetry.Recorder to a connection and each
// claim reports its call once — completed verbs (the paper's
// round-trips-per-call claim), fetch retries, fallback and latencies
// (post→completion, split into the delivery leg and the fetch- or
// reply-mode completion leg) — beside ring occupancy and, with span
// recording configured, the call-scoped events trace.Stitch rebuilds
// timelines from. All hooks cost host time only and are nil-safe, so a
// detached recorder (the default) leaves virtual time, and therefore every
// simulated result, untouched.

import (
	"cmp"
	"slices"

	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
)

// SetRecorder attaches rec to both endpoints of the connection (nil
// detaches): the client reports the call-side metrics, the server-side Conn
// contributes the SrvRecv/SrvPub span events. One recorder may be shared
// across any number of connections; counters then aggregate.
func (c *Client) SetRecorder(rec *telemetry.Recorder) {
	c.rec = rec
	if c.conn != nil {
		c.conn.rec = rec
	}
}

// connID is the connection identity span events carry: the server-side
// accept index, or -1 for a client with no bound Conn.
func (c *Client) connID() int32 {
	if c.conn != nil {
		return int32(c.conn.id)
	}
	return -1
}

// callEvent records one client-side call-scoped span event.
//
//rfp:hotpath
func (c *Client) callEvent(kind trace.Kind, start, end sim.Time, slot int, seq uint16, bytes int) {
	if c.rec == nil {
		return
	}
	c.rec.Event(trace.Event{
		Start: start, End: end, Kind: kind, Src: c.machine.NIC().Name(),
		Bytes: bytes, Conn: c.connID(), Slot: int16(slot), Seq: seq,
	})
}

// srvEvent records one server-side call-scoped span event.
//
//rfp:hotpath
func (c *Conn) srvEvent(kind trace.Kind, start, end sim.Time, slot int, seq uint16, bytes int) {
	if c.rec == nil {
		return
	}
	c.rec.Event(trace.Event{
		Start: start, End: end, Kind: kind, Src: c.srv.machine.NIC().Name(),
		Bytes: bytes, Conn: int32(c.id), Slot: int16(slot), Seq: seq,
	})
}

// SetRecorder routes the tuner's decision log to rec (nil falls back to
// each client's own recorder).
func (t *Tuner) SetRecorder(rec *telemetry.Recorder) { t.rec = rec }

// logDecision records one re-selection outcome with the sample window that
// justified it.
func (t *Tuner) logDecision(p *sim.Proc, c *Client, param string, old, new int) {
	rec := t.rec
	if rec == nil {
		rec = c.rec
	}
	if rec == nil {
		return
	}
	rec.Decide(telemetry.Decision{
		At: p.Now(), Conn: int(c.connID()), Param: param, Old: old, New: new,
		Window:       len(t.sampler.Sizes),
		MedianSize:   median(t.sampler.Sizes),
		MedianProcNs: median(t.sampler.ProcTimes),
	})
}

// median summarizes a sample window for the decision log; only run at
// re-selection boundaries, never on the per-call path.
func median[T cmp.Ordered](s []T) T {
	if len(s) == 0 {
		var zero T
		return zero
	}
	c := slices.Clone(s)
	slices.Sort(c)
	return c[len(c)/2]
}
