package core

// Client side of RFP: client_send pushes the request into the server's
// request buffer with one RDMA Write; client_recv repeatedly fetches the
// response buffer with RDMA Reads of size F, falling back to server-reply
// after K consecutive calls overrun the retry threshold R, and switching
// back once the observed server process time shortens again (paper
// Sec. 3.2, Discussion).

import (
	"errors"
	"fmt"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
)

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("core: connection closed")

// switchAfterOverruns is the number of consecutive overrunning calls
// required before the client actually switches to server-reply, so isolated
// requests with unexpectedly long process time do not cause needless mode
// flapping.
const switchAfterOverruns = 2

// fallbackFetchNs is how often, while waiting in reply mode for the one call
// that raced the mode switch, the client additionally issues a remote fetch:
// a response buffered server-side just before the mode flag arrived is still
// collected.
const fallbackFetchNs int64 = 5000

// RetryHistSize bounds the per-call retry histogram; calls with more
// retries land in the last bucket.
const RetryHistSize = 32

// ClientStats accumulates per-connection behaviour of the hybrid mechanism.
type ClientStats struct {
	Calls           uint64
	FetchReads      uint64 // RDMA Reads issued while fetching (incl. retries)
	SecondReads     uint64 // continuation reads because size > F
	ReplyDeliveries uint64 // calls completed via server-reply
	Retries         uint64 // total failed fetch attempts
	MaxRetries      int    // worst single-call failed-attempt count
	RetryHist       [RetryHistSize]uint64
	SwitchToReply   uint64
	SwitchToFetch   uint64
	IdleNs          int64 // CPU idle time accumulated waiting in reply mode

	// Latency breakdown: virtual time accumulated in each call phase.
	SendNs      int64 // request delivery (client_send)
	FetchNs     int64 // remote fetching, including retries
	ReplyWaitNs int64 // waiting in reply mode (polls + idle)

	// Recovery path (extension, DESIGN.md §10); all zero on a lossless run.
	FaultRetries uint64 // transport errors absorbed by the recovery loop
	Resends      uint64 // request re-deliveries (request lost or corrupted)
	Reconnects   uint64 // connection re-establishments
	Demotions    uint64 // permanent demotions to server-reply mode
	Deadlines    uint64 // calls failed terminally at their deadline
}

// Add folds o into s: counters and accumulated times sum, MaxRetries takes
// the larger value.
func (s *ClientStats) Add(o ClientStats) {
	s.Calls += o.Calls
	s.FetchReads += o.FetchReads
	s.SecondReads += o.SecondReads
	s.ReplyDeliveries += o.ReplyDeliveries
	s.Retries += o.Retries
	if o.MaxRetries > s.MaxRetries {
		s.MaxRetries = o.MaxRetries
	}
	for i, v := range o.RetryHist {
		s.RetryHist[i] += v
	}
	s.SwitchToReply += o.SwitchToReply
	s.SwitchToFetch += o.SwitchToFetch
	s.IdleNs += o.IdleNs
	s.SendNs += o.SendNs
	s.FetchNs += o.FetchNs
	s.ReplyWaitNs += o.ReplyWaitNs
	s.FaultRetries += o.FaultRetries
	s.Resends += o.Resends
	s.Reconnects += o.Reconnects
	s.Demotions += o.Demotions
	s.Deadlines += o.Deadlines
}

// Sub returns the window delta s − o of two samples of the same counters.
// MaxRetries is a running maximum and has no delta: it keeps s's value.
func (s ClientStats) Sub(o ClientStats) ClientStats {
	s.Calls -= o.Calls
	s.FetchReads -= o.FetchReads
	s.SecondReads -= o.SecondReads
	s.ReplyDeliveries -= o.ReplyDeliveries
	s.Retries -= o.Retries
	for i, v := range o.RetryHist {
		s.RetryHist[i] -= v
	}
	s.SwitchToReply -= o.SwitchToReply
	s.SwitchToFetch -= o.SwitchToFetch
	s.IdleNs -= o.IdleNs
	s.SendNs -= o.SendNs
	s.FetchNs -= o.FetchNs
	s.ReplyWaitNs -= o.ReplyWaitNs
	s.FaultRetries -= o.FaultRetries
	s.Resends -= o.Resends
	s.Reconnects -= o.Reconnects
	s.Demotions -= o.Demotions
	s.Deadlines -= o.Deadlines
	return s
}

// Client is the client-side endpoint of one RFP connection. A Client must
// be driven by a single simulated thread.
type Client struct {
	machine *fabric.Machine
	params  Params
	qp      *rnic.QP      // lease.QP(): possibly shared with other logical clients
	server  rnic.RemoteMR // windowed handle onto this ring's region carve
	maxReq  int
	maxResp int
	local   *rnic.SlabLease // reply-mode landing buffers, one respStride per slot
	landing []byte          // local.Buf(), cached for the poll path

	// lease is the client's claim on an endpoint (DESIGN.md §13). Posts go
	// to the endpoint's hardware CQ, whose demux forwards the completions
	// carrying tag — OR-ed into every WR ID — to cq.
	lease *rnic.EndpointLease
	tag   uint64

	// Slot-ring geometry and per-slot staging (index = slot). The sync
	// Send/Recv path is the ring's depth-1 special case pinned to slot 0.
	// depth is the active ring depth; maxDepth is the slot capacity the
	// region was registered for (reqOffs/respOffs cover all of it, the
	// slot arrays only the active depth).
	depth      int
	maxDepth   int
	respStride int
	reqOffs    []int
	respOffs   []int
	stages     [][]byte // request staging, one per slot
	fetches    [][]byte // fetch/response landing, one per slot

	seq            uint16
	mode           Mode
	closed         bool
	consecOverruns int
	justSwitched   bool // the in-flight call raced the mode switch
	tuner          *Tuner

	// Pipelined-call state (ring.go).
	slots       []slot
	cq          *rnic.CQ
	nextSlot    int
	outstanding int
	pendingMode Mode // mode switch deferred until the ring quiesces
	hasPending  bool
	wrScratch   []rnic.WR // issue() batch staging, reused across engine steps

	// Deferred parameter changes (control plane): like mode switches, F
	// and depth changes decided while posts are in flight apply only once
	// the ring quiesces (outstanding == 0). Zero means no change pending.
	pendingF     int
	pendingDepth int

	// Fan-out group membership (group.go): cq is then the group's queue,
	// which dispatches to members by tag.
	group *Group

	// Telemetry (telemetry.go): optional recorder plus the synchronous
	// path's call timestamps (the ring path keeps per-slot times in slot).
	rec        *telemetry.Recorder
	callPostAt sim.Time // sync path: Send entry
	callSentAt sim.Time // sync path: request delivered

	// Recovery state (recover.go). srv/conn are the server-side endpoints
	// this connection re-establishes against after a fatal transport error.
	srv           *Server
	conn          *Conn
	needReconnect bool
	demoted       bool
	attempts      int      // sync-path backoff counter for the current call
	deadline      sim.Time // sync-path terminal failure time
	resendDue     sim.Time // sync-path next request re-delivery
	lastReqLen    int      // staged request length (slot 0), for resends
	callFaulted   bool     // the current sync call needed fault recovery
	faultedCalls  int      // consecutive fault-recovered calls (demotion)

	Stats ClientStats
}

// Mode returns the connection's current delivery mode as seen by the
// client.
func (c *Client) Mode() Mode { return c.mode }

// Params returns the effective parameters.
func (c *Client) Params() Params { return c.params }

// SetFetchSize changes F at runtime (used by the on-line tuner). The value
// is clamped to the response buffer. With posts in flight the change is
// deferred until the ring quiesces, under the same rule as mode switches
// (DESIGN.md §8): an in-flight fetch was posted with the old F, and its
// continuation-read arithmetic must keep seeing that F until the call is
// claimed.
func (c *Client) SetFetchSize(f int) {
	if f > HeaderSize+c.maxResp {
		f = HeaderSize + c.maxResp
	}
	if f < HeaderSize+1 {
		f = HeaderSize + 1
	}
	if c.outstanding > 0 {
		c.pendingF = f
		return
	}
	c.pendingF = 0
	c.params.F = f
}

// SetDepth resizes the request ring at runtime (used by the depth tuner),
// clamped to [1, MaxDepth] — the slot capacity registered at Accept. With
// posts in flight the resize is deferred until the ring quiesces, so a slot
// is never reallocated under a pending completion; keep-ring-full drivers
// should watch PendingDepth and drain to let the resize land.
func (c *Client) SetDepth(d int) {
	if d < 1 {
		d = 1
	}
	if d > c.maxDepth {
		d = c.maxDepth
	}
	if c.outstanding > 0 {
		if d == c.depth {
			c.pendingDepth = 0
		} else {
			c.pendingDepth = d
		}
		return
	}
	c.pendingDepth = 0
	c.resize(d)
}

// PendingDepth returns a deferred ring depth not yet applied (0 if none).
func (c *Client) PendingDepth() int { return c.pendingDepth }

// MaxDepth returns the ring's slot capacity (the bound of SetDepth).
func (c *Client) MaxDepth() int { return c.maxDepth }

// targetDepth is the depth the ring is headed for: the pending resize if
// one is queued, else the active depth.
func (c *Client) targetDepth() int {
	if c.pendingDepth != 0 {
		return c.pendingDepth
	}
	return c.depth
}

// applyPendingParams applies deferred F/depth changes once the ring is
// empty. Unlike mode switches these are client-local (the region already
// has capacity for every depth), so no RDMA write and no simulated time are
// involved.
func (c *Client) applyPendingParams() {
	if c.outstanding > 0 {
		return
	}
	if c.pendingF != 0 {
		c.params.F = c.pendingF
		c.pendingF = 0
	}
	if c.pendingDepth != 0 {
		d := c.pendingDepth
		c.pendingDepth = 0
		c.resize(d)
	}
}

// resize reallocates the slot arrays for the new depth; only called with
// the ring quiesced. Staging and fetch buffers of surviving slots carry
// over; slots beyond the old depth get fresh buffers, and buffers beyond
// the new depth are dropped for the collector.
func (c *Client) resize(d int) {
	if d == c.depth {
		return
	}
	slots := make([]slot, d)
	stages := make([][]byte, d)
	fetches := make([][]byte, d)
	copy(stages, c.stages)
	copy(fetches, c.fetches)
	for i := len(c.stages); i < d; i++ {
		stages[i] = make([]byte, HeaderSize+c.maxReq)
	}
	for i := len(c.fetches); i < d; i++ {
		fetches[i] = make([]byte, HeaderSize+c.maxResp)
	}
	c.slots, c.stages, c.fetches = slots, stages, fetches
	c.depth = d
	c.nextSlot = 0
}

// Send transmits a request payload to the server (client_send): one RDMA
// Write carrying header and payload, in-bound on the server side. The
// payload must not change until Send returns: a pending reconnect or mode
// switch runs — and yields — before the payload is staged, so another proc
// re-encoding a shared buffer meanwhile would be sent in its place.
func (c *Client) Send(p *sim.Proc, payload []byte) error {
	if c.closed {
		return ErrClosed
	}
	if c.outstanding > 0 {
		return ErrRingBusy
	}
	if len(payload) > c.maxReq {
		return fmt.Errorf("core: request of %d bytes exceeds limit %d", len(payload), c.maxReq)
	}
	start := p.Now()
	defer func() { c.Stats.SendNs += int64(p.Now().Sub(start)) }()
	if c.needReconnect && c.recoveryOn() {
		// The transport died after the previous call resolved: the ring is
		// quiesced, so re-establish before staging anything.
		if err := c.reconnect(p); err != nil {
			return err
		}
	}
	// A mode switch or parameter change decided while the ring was busy
	// applies now that it has quiesced.
	if err := c.applyPendingMode(p); err != nil {
		return err
	}
	c.applyPendingParams()
	c.seq++
	// Clear the local landing header so a reply-mode delivery for this
	// call is unambiguous.
	putHeader(c.landing, header{})
	stage := c.stages[0]
	putHeader(stage, header{valid: true, size: len(payload), seq: c.seq})
	copy(stage[HeaderSize:], payload)
	c.lastReqLen = len(payload)
	c.beginCall(p)
	c.callPostAt = start
	if err := c.deliver(p); err != nil {
		return err
	}
	c.callSentAt = p.Now()
	c.rec.Occupancy(1)
	c.callEvent(trace.CallPost, start, c.callSentAt, -1, c.seq, len(payload))
	return nil
}

// Recv obtains the response for the last Send (client_recv), returning the
// number of payload bytes copied into out. It blocks (in virtual time)
// until the response is delivered through whichever mode the hybrid
// mechanism is in.
func (c *Client) Recv(p *sim.Proc, out []byte) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	c.Stats.Calls++
	if c.mode == ModeReply {
		return c.recvReply(p, out)
	}
	return c.recvFetch(p, out)
}

// Close tears the connection down: the server-side flag is marked closed
// (Serve loops drop the connection from their polling sets), the local
// reply-landing region and the endpoint lease are released, and the client
// leaves its fan-out group. Further calls return ErrClosed, and
// every in-flight posted request resolves with ErrClosed on its next Poll —
// a definite outcome for each handle, so callers can release the request
// buffers they own.
func (c *Client) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	// A deferred F/depth change can never land once the connection closes —
	// the ring will not quiesce into further posts — so drop it; a late
	// claim must not reshape a dead ring.
	c.pendingF, c.pendingDepth = 0, 0
	c.hasPending = false
	if c.needReconnect && c.recoveryOn() {
		// Best effort: tear-down wants to reach the (restarted) server's
		// flag byte so its Serve loops drop the connection.
		//rfpvet:allow errdrop best-effort teardown; a failed reconnect leaves nothing to close
		_ = c.reconnect(p)
	}
	c.closed = true
	for i := range c.slots {
		if s := &c.slots[i]; s.state != slotFree {
			s.state = slotFailed
			s.err = ErrClosed
		}
	}
	err := c.qp.Write(p, c.server, 0, []byte{modeClosed})
	c.local.Release()
	// Free the WR-ID tag for the machine's next logical client. Straggler
	// completions under the old tag are dropped by the endpoint demux
	// (counted, never delivered to another client).
	c.lease.Release()
	if c.group != nil {
		c.group.remove(c)
	}
	return err
}

// Call is the convenience RPC round trip: Send then Recv. As for Send, req
// must not change until Call returns.
func (c *Client) Call(p *sim.Proc, req, out []byte) (int, error) {
	if err := c.Send(p, req); err != nil {
		return 0, err
	}
	return c.Recv(p, out)
}

// recvFetch repeatedly fetches the server-side response buffer. Each fetch
// reads F bytes (header + payload prefix); a response longer than F costs
// one continuation read, which the inline size field makes possible without
// a separate size-probe round trip.
func (c *Client) recvFetch(p *sim.Proc, out []byte) (int, error) {
	start := p.Now()
	defer func() { c.Stats.FetchNs += int64(p.Now().Sub(start)) }()
	failed := 0
	overrun := false
	for {
		hdr, n, err := c.fetchOnce(p, out)
		if err != nil {
			if !c.recoverable(err) {
				return 0, err
			}
			if rerr := c.recoverSync(p, err); rerr != nil {
				return 0, rerr
			}
			continue
		}
		if hdr.valid && hdr.seq == c.seq {
			c.recordRetries(failed)
			if overrun {
				c.consecOverruns++
			} else {
				c.consecOverruns = 0
			}
			c.observeCall(p, hdr)
			c.noteCallOutcome(p)
			if c.rec != nil {
				done := p.Now()
				c.rec.Call(int64(done.Sub(c.callPostAt)), int64(c.callSentAt.Sub(c.callPostAt)),
					int64(done.Sub(start)), false)
				c.callEvent(trace.CallDone, done, done, -1, c.seq, n)
			}
			return n, nil
		}
		failed++
		c.Stats.Retries++
		if failed > c.params.R && !overrun {
			overrun = true
			// Only consecutive overrunning calls trigger the actual
			// switch, so isolated slow requests don't flap the mode.
			if !c.params.DisableSwitch && c.consecOverruns+1 >= switchAfterOverruns {
				c.recordRetries(failed)
				c.consecOverruns = 0
				c.rec.Fallback()
				c.callEvent(trace.Fallback, p.Now(), p.Now(), -1, c.seq, 0)
				if err := c.switchMode(p, ModeReply); err != nil {
					return 0, err
				}
				return c.recvReply(p, out)
			}
		}
		if c.recoveryOn() {
			// A request lost to corruption or a restart never produces a
			// valid header: re-deliver at resendDue, give up at deadline.
			if rerr := c.checkCallTimers(p); rerr != nil {
				return 0, rerr
			}
		}
	}
}

// fetchOnce issues one RDMA Read of F bytes and decodes what it saw. If the
// header announces a payload longer than F, the remainder is fetched with a
// single continuation read. Under NoInline the first read covers only the
// header, so every successful fetch costs two reads.
func (c *Client) fetchOnce(p *sim.Proc, out []byte) (header, int, error) {
	t0 := p.Now()
	f := c.fetchLen()
	fetch := c.fetches[0]
	if err := c.qp.Read(p, c.server, c.respOffs[0], fetch[:f]); err != nil {
		return header{}, 0, err
	}
	c.Stats.FetchReads++
	c.rec.Reads(1)
	hdr := parseHeader(fetch)
	if !hdr.valid || hdr.seq != c.seq {
		c.rec.Retries(1)
		c.callEvent(trace.FetchMiss, t0, p.Now(), -1, c.seq, f)
		return hdr, 0, nil
	}
	if hdr.size > c.maxResp {
		return header{}, 0, fmt.Errorf("core: server announced %d-byte response beyond limit %d", hdr.size, c.maxResp)
	}
	total := HeaderSize + hdr.size
	if total > f {
		if err := c.qp.Read(p, c.server, c.respOffs[0]+f, fetch[f:total]); err != nil {
			return header{}, 0, err
		}
		c.Stats.FetchReads++
		c.Stats.SecondReads++
		c.rec.Reads(1)
	}
	n := copy(out, fetch[HeaderSize:total])
	c.callEvent(trace.FetchHit, t0, p.Now(), -1, c.seq, total)
	return hdr, n, nil
}

// fetchLen is the size of the first read of a fetch: F normally, just the
// header under the NoInline ablation.
func (c *Client) fetchLen() int {
	if c.params.NoInline {
		return HeaderSize
	}
	return c.params.F
}

// recvReply waits for the server to push the response into the client's
// local buffer, polling local memory sparsely (cheap for the CPU — this is
// where reply mode saves client cycles, Fig. 15). For the one call that was
// in flight when the mode switched, the response may already have been
// buffered server-side before the mode flag landed; that call alone also
// issues occasional remote fetches so it cannot strand. Steady-state reply
// calls never fetch: the server pushes every response once it sees the flag.
func (c *Client) recvReply(p *sim.Proc, out []byte) (int, error) {
	start := p.Now()
	defer func() { c.Stats.ReplyWaitNs += int64(p.Now().Sub(start)) }()
	prof := c.machine.Profile()
	fallback := c.justSwitched && !c.params.ForceReply
	c.justSwitched = false
	var waited int64
	nextFallback := fallbackFetchNs
	for {
		hdr := parseHeader(c.landing)
		if hdr.valid && hdr.seq == c.seq {
			n := copy(out, c.landing[HeaderSize:HeaderSize+hdr.size])
			c.Stats.ReplyDeliveries++
			if err := c.maybeSwitchBack(p, hdr); err != nil {
				return 0, err
			}
			c.observeCall(p, hdr)
			c.noteCallOutcome(p)
			c.recordReplyCall(p, start, n)
			return n, nil
		}
		if fallback && waited >= nextFallback {
			nextFallback += fallbackFetchNs
			fhdr, n, err := c.fetchOnce(p, out)
			if err != nil {
				if !c.recoverable(err) {
					return 0, err
				}
				if rerr := c.recoverSync(p, err); rerr != nil {
					return 0, rerr
				}
				continue
			}
			if fhdr.valid && fhdr.seq == c.seq {
				c.Stats.ReplyDeliveries++
				if err := c.maybeSwitchBack(p, fhdr); err != nil {
					return 0, err
				}
				c.observeCall(p, fhdr)
				c.noteCallOutcome(p)
				c.recordReplyCall(p, start, n)
				return n, nil
			}
		}
		if c.recoveryOn() {
			if rerr := c.checkCallTimers(p); rerr != nil {
				return 0, rerr
			}
		}
		p.Sleep(sim.Duration(c.params.ReplyPollNs))
		waited += c.params.ReplyPollNs
		idle := c.params.ReplyPollNs - prof.LocalPollNs
		if idle > 0 {
			c.Stats.IdleNs += idle
		}
	}
}

// maybeSwitchBack returns the connection to fetch mode when the server's
// reported process time has dropped back below the threshold.
func (c *Client) maybeSwitchBack(p *sim.Proc, hdr header) error {
	if c.params.ForceReply || c.demoted || int(hdr.timeUs) > c.params.SwitchBackUs {
		return nil
	}
	return c.switchMode(p, ModeFetch)
}

// switchMode updates the client-local mode and mirrors it into the
// server-side flag with a 1-byte RDMA Write (the flag is only ever written
// by the client, paper Sec. 3.2 Discussion).
func (c *Client) switchMode(p *sim.Proc, m Mode) error {
	if c.mode == m {
		return nil
	}
	c.mode = m
	if m == ModeReply {
		c.Stats.SwitchToReply++
		c.justSwitched = true
	} else {
		c.Stats.SwitchToFetch++
	}
	return c.qp.Write(p, c.server, 0, []byte{byte(m)})
}

// observeCall feeds the attached tuner, if any, with the completed call's
// result size and the server-reported process time.
func (c *Client) observeCall(p *sim.Proc, hdr header) {
	if c.tuner != nil {
		c.tuner.observe(p, c, hdr.size, int64(hdr.timeUs)*1000)
	}
}

// recordReplyCall reports one reply-mode call completion to the telemetry
// recorder (legStart is the recvReply entry time).
func (c *Client) recordReplyCall(p *sim.Proc, legStart sim.Time, n int) {
	if c.rec == nil {
		return
	}
	done := p.Now()
	c.rec.Call(int64(done.Sub(c.callPostAt)), int64(c.callSentAt.Sub(c.callPostAt)),
		int64(done.Sub(legStart)), true)
	c.callEvent(trace.CallDone, done, done, -1, c.seq, n)
}

func (c *Client) recordRetries(failed int) {
	if failed > c.Stats.MaxRetries {
		c.Stats.MaxRetries = failed
	}
	b := failed
	if b >= RetryHistSize {
		b = RetryHistSize - 1
	}
	c.Stats.RetryHist[b]++
}
