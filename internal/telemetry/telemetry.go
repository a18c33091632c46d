// Package telemetry is the observability layer for the RFP data path: a
// zero-allocation, virtual-time-aware recorder that the core client, the
// Jakiro store and the shard fan-out thread through their hot paths.
//
// Design constraints, in order:
//
//   - Determinism. Recording costs host time only — no virtual time is
//     charged, no random numbers are drawn — so a run with telemetry on is
//     byte-identical (in simulated results) to the same run with it off,
//     and a detached recorder (the default) costs one nil check per hook.
//   - Zero allocation on the hot path. Counters are atomics, latency
//     histograms are fixed log-linear bucket arrays, the occupancy gauge is
//     a fixed array indexed by outstanding depth. Only the bounded tuner
//     decision log and the optional span ring retain per-event records.
//   - Race-clean snapshots. Snapshot() may be called from any goroutine
//     while the simulation is recording: all hot-path state is atomic and
//     the decision log is mutex-guarded. (The optional span ring is the one
//     exception: like trace.Ring it is single-writer and must be read only
//     after the run.)
//
// All Recorder methods are safe on a nil receiver, mirroring trace.Ring, so
// instrumented code needs no branches beyond the method call.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rfp/internal/sim"
	"rfp/internal/trace"
)

// MaxOccupancy is the deepest ring the occupancy gauge resolves; samples
// beyond it clamp into the last bin. Matches core.MaxDepth (not imported —
// core depends on telemetry, not the reverse).
const MaxOccupancy = 64

// decisionCap bounds the retained tuner decision log; once full, older
// decisions are dropped oldest-first.
const decisionCap = 256

// Config sizes a Recorder's retained state.
type Config struct {
	// SpanEvents is the capacity of the call-span event ring; 0 disables
	// span recording (counters and histograms still work).
	SpanEvents int
}

// Recorder accumulates per-call telemetry. One recorder may be shared by
// any number of connections (a Group, a Jakiro client's partitions, a whole
// shard fan-out); counters then aggregate across them.
//
//rfp:nilsafe
type Recorder struct {
	writes    atomic.Uint64
	reads     atomic.Uint64
	retries   atomic.Uint64
	fallbacks atomic.Uint64

	total    Hist // post -> completion
	send     Hist // post -> request delivered
	fetchLeg Hist // delivery -> completion, calls finished in fetch mode
	replyLeg Hist // delivery -> completion, calls finished in reply mode

	occ [MaxOccupancy + 1]atomic.Uint64

	decMu     sync.Mutex
	decisions []Decision
	decTotal  uint64

	spans *trace.Ring
}

// New creates a recorder: counters, histograms and the bounded decision
// log, plus span recording when cfg.SpanEvents > 0.
func New(cfg Config) *Recorder {
	r := &Recorder{}
	if cfg.SpanEvents > 0 {
		r.spans = trace.NewRing(cfg.SpanEvents)
	}
	return r
}

// CallRecord is one claimed call as the recorder sees it: the one-sided
// verbs it completed and, unless it failed, its latency legs.
type CallRecord struct {
	Writes   int   // request writes completed (post + resends)
	Reads    int   // fetch reads completed (first reads, retries, continuations, fallback probes)
	Retries  int   // fetches that read an incomplete or stale image
	Fallback bool  // switched from fetching to server-reply in flight
	Failed   bool  // resolved with an error: verbs only, no legs
	Reply    bool  // completed by a server reply
	TotalNs  int64 // post -> completion
	SendNs   int64 // post -> request delivered
	RecvNs   int64 // delivery -> completion
}

// Claim records one call as its claim resolves it — the recorder's one
// per-call hook. The verb counters take every call, failed or not; the
// histograms take the completed ones, with the completion leg attributed
// to fetch or server-reply mode, so their counts are the call counts.
//
//rfp:hotpath
func (r *Recorder) Claim(c CallRecord) {
	if r == nil {
		return
	}
	if c.Writes|c.Reads|c.Retries != 0 { // a legs-only Call has none
		r.writes.Add(uint64(c.Writes))
		r.reads.Add(uint64(c.Reads))
		r.retries.Add(uint64(c.Retries))
	}
	if c.Fallback {
		r.fallbacks.Add(1)
	}
	if c.Failed {
		return
	}
	r.total.Add(c.TotalNs)
	r.send.Add(c.SendNs)
	if c.Reply {
		r.replyLeg.Add(c.RecvNs)
	} else {
		r.fetchLeg.Add(c.RecvNs)
	}
}

// Call records one completed call's legs alone: a Claim that carries no
// verbs.
//
//rfp:hotpath
func (r *Recorder) Call(totalNs, sendNs, recvNs int64, reply bool) {
	r.Claim(CallRecord{TotalNs: totalNs, SendNs: sendNs, RecvNs: recvNs, Reply: reply})
}

// Occupancy samples the ring occupancy (requests outstanding after a post).
//
//rfp:hotpath
func (r *Recorder) Occupancy(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	if n > MaxOccupancy {
		n = MaxOccupancy
	}
	r.occ[n].Add(1)
}

// Decide appends one tuner decision to the bounded log.
func (r *Recorder) Decide(d Decision) {
	if r == nil {
		return
	}
	r.decMu.Lock()
	r.decTotal++
	if len(r.decisions) >= decisionCap {
		copy(r.decisions, r.decisions[1:])
		r.decisions = r.decisions[:len(r.decisions)-1]
	}
	r.decisions = append(r.decisions, d)
	r.decMu.Unlock()
}

// Event records one call-scoped span event; a no-op unless the recorder was
// configured with SpanEvents > 0. Single-writer, like trace.Ring.
//
//rfp:hotpath
func (r *Recorder) Event(e trace.Event) {
	if r == nil {
		return
	}
	r.spans.Record(e)
}

// SpanEvents returns the retained call-scoped events (nil when span
// recording is off). Read after the run only.
func (r *Recorder) SpanEvents() []trace.Event {
	if r == nil {
		return nil
	}
	return r.spans.Events()
}

// Spans stitches the retained span events into per-call spans. Read after
// the run only.
func (r *Recorder) Spans() (spans []trace.Span, orphans []trace.Event) {
	if r == nil {
		return nil, nil
	}
	return trace.Stitch(r.spans.Events())
}

// Snapshot copies the recorder's aggregate state. Safe to call from any
// goroutine while the simulation is still recording.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.total.snapshot(&s.Total)
	r.send.snapshot(&s.Send)
	r.fetchLeg.snapshot(&s.FetchLeg)
	r.replyLeg.snapshot(&s.ReplyLeg)
	s.Calls = s.Total.Count
	s.FetchCalls = s.FetchLeg.Count
	s.ReplyCalls = s.ReplyLeg.Count
	s.Writes = r.writes.Load()
	s.Reads = r.reads.Load()
	s.Retries = r.retries.Load()
	s.Fallbacks = r.fallbacks.Load()
	for i := range r.occ {
		s.Occupancy[i] = r.occ[i].Load()
	}
	r.decMu.Lock()
	s.Decisions = append([]Decision(nil), r.decisions...)
	s.DecisionsTotal = r.decTotal
	r.decMu.Unlock()
	return s
}

// Decision is one tuner or recovery control-plane action, with the sample
// window that justified it.
type Decision struct {
	At    sim.Time
	Conn  int    // connection id; -1 when unknown
	Param string // "F", "R", "depth", "mode", "demote"
	Old   int
	New   int
	// Justification: the calibration window the tuner acted on.
	Window       int   // samples in the window
	MedianSize   int   // median response size over the window (bytes)
	MedianProcNs int64 // median server processing time over the window
	Deferred     bool  // change staged, applied at the next ring quiesce
}

// String renders one decision log line.
func (d Decision) String() string {
	tag := ""
	if d.Deferred {
		tag = " (deferred)"
	}
	if d.Window > 0 {
		return fmt.Sprintf("t=%-9v conn=%-2d %-6s %d -> %d%s  [window %d, median size %dB, median proc %dns]",
			d.At, d.Conn, d.Param, d.Old, d.New, tag, d.Window, d.MedianSize, d.MedianProcNs)
	}
	return fmt.Sprintf("t=%-9v conn=%-2d %-6s %d -> %d%s",
		d.At, d.Conn, d.Param, d.Old, d.New, tag)
}
