package core

// Client side of RFP: client_send pushes the request into the server's
// request buffer with one RDMA Write; client_recv repeatedly fetches the
// response buffer with RDMA Reads of size F, falling back to server-reply
// after K consecutive calls overrun the retry threshold R, and switching
// back once the observed server process time shortens again (paper
// Sec. 3.2, Discussion).
//
// A call is one record — a ring slot (ring.go) — walked through one state
// machine by whichever driver the caller picked: Send/Recv below, the
// paper's blocking pair, step the engine for one call at a time; Post/Poll
// keep up to Depth calls in flight. The drivers share staging, completion
// handling, recovery timers and the claim; what differs is scope — Poll
// steps every connection sharing the queue, a synchronous call only its own
// ring — and policy, listed on Recv.

import (
	"errors"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("core: connection closed")

// switchAfterOverruns is the number of consecutive overrunning calls
// required before the client actually switches to server-reply, so isolated
// requests with unexpectedly long process time do not cause needless mode
// flapping.
const switchAfterOverruns = 2

// switchBackUs is the hybrid mechanism's way back: in server-reply mode the
// client watches the 16-bit process-time field of responses, and once it
// drops to at most this many microseconds (the crossover of Fig. 9 on the
// ConnectX-3 cluster) the client switches back to repeated fetching.
const switchBackUs = 7

// fallbackFetchNs is how often a call switched to reply in flight
// additionally issues a remote fetch while it waits: a response the server
// published before the call's mode byte arrived is still collected.
const fallbackFetchNs int64 = 5000

// RetryHistSize bounds the per-call retry histogram; calls with more
// retries land in the last bucket.
const RetryHistSize = 32

// ClientStats accumulates per-connection behaviour of the hybrid mechanism.
type ClientStats struct {
	Calls           uint64
	FetchReads      uint64 // fetch Reads completed (incl. retries), added at each call's claim
	SecondReads     uint64 // continuation reads because size > F
	ReplyDeliveries uint64 // calls completed via server-reply
	Retries         uint64 // failed fetch attempts, added at each call's claim
	MaxRetries      int    // worst single-call failed-attempt count
	RetryHist       [RetryHistSize]uint64
	SwitchToReply   uint64
	SwitchToFetch   uint64
	IdleNs          int64 // CPU idle time accumulated waiting in reply mode

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
	qp      *rnic.QP        // lease.QP(): possibly shared with other logical clients
	server  rnic.RemoteMR   // windowed handle onto this ring's region carve
	local   *rnic.SlabLease // reply-mode landing buffers, one respStride per slot
	landing []byte          // local.Buf(), cached for the poll path

	// lease is the client's claim on an endpoint (DESIGN.md §13). Posts go
	// to the endpoint's hardware CQ, whose demux forwards the completions
	// carrying tag — OR-ed into every WR ID — to cq.
	lease *rnic.EndpointLease
	tag   uint64

	// Slot-ring geometry and per-slot staging (index = slot). maxDepth is
	// the slot capacity the region was registered for, and the slot arrays
	// cover all of it; depth bounds the slots a new post may take. Slot
	// offsets in the region follow from srv.cfg (reqOffAt, respOffAt).
	depth      int
	maxDepth   int
	respStride int
	stages     [][]byte // request staging, one per slot
	fetches    [][]byte // fetch/response landing, one per slot

	napIdleNs      int64 // CPU-idle part of one reply-mode poll interval
	seq            uint16
	mode           Mode    // the mode the next post carries
	flagByte       [1]byte // source of the closing 1-byte server-flag write
	closed         bool
	consecOverruns int
	tuner          *Tuner

	// The synchronous reply wait (Recv): replyDue bound once, so a call's
	// wait allocates no closure.
	replyDone func() bool

	// Call state (ring.go): one slot record per call in flight, whichever
	// driver staged it. Between Send and Recv, inCall is set and call is the
	// synchronous call's slot.
	slots       []slot
	cq          *rnic.CQ
	nextSlot    int
	outstanding int
	wrScratch   []rnic.WR // issue() batch staging, reused across engine steps
	call        int
	inCall      bool

	// Fan-out group membership (group.go), nil alone: cq is then the
	// group's queue, and the engine steps every member (peers). self is c
	// alone: a lone connection's peers, and any synchronous call's scope.
	group *Group
	self  [1]*Client

	// Telemetry (telemetry.go): optional recorder; a call's timestamps live
	// in its slot.
	rec *telemetry.Recorder

	// Recovery state (recover.go). srv/conn are the server-side endpoints
	// this connection re-establishes against after a fatal transport error.
	srv           *Server
	conn          *Conn
	needReconnect bool
	demoted       bool
	faultedCalls  int // consecutive fault-recovered calls (demotion)

	Stats ClientStats
}

// Mode returns the delivery mode the connection's next call carries.
func (c *Client) Mode() Mode { return c.mode }

// Params returns the effective parameters.
func (c *Client) Params() Params { return c.params }

// SetFetchSize changes F at runtime (used by the on-line tuner), clamped
// to the response buffer. It applies per call: a call keeps the F it was
// posted with, so its continuation-read arithmetic never mixes two values,
// and every later post reads with the new one.
func (c *Client) SetFetchSize(f int) { c.params.F = c.clampF(f) }

// SetDepth changes how many calls may be in flight (used by the depth
// tuner), clamped to [1, MaxDepth] — the slot capacity registered at
// Accept, which the slot arrays already cover. It applies at once: after a
// grow the new slots take posts, after a shrink Post reports ErrRingFull
// until fewer than the new depth are outstanding, while calls in higher
// slots drain as usual.
func (c *Client) SetDepth(d int) {
	c.depth = min(max(d, 1), c.maxDepth)
	c.nextSlot %= c.depth
}

// clampF bounds a fetch size to [HeaderSize+1, HeaderSize+MaxResponse]: a
// fetch reads at least the header and the first payload byte, and never
// past the response buffer.
func (c *Client) clampF(f int) int {
	return min(max(f, HeaderSize+1), HeaderSize+c.srv.cfg.MaxResponse)
}

// Send transmits a request payload to the server (client_send): one RDMA
// Write carrying header and payload, in-bound on the server side. It is the
// synchronous driver's front half: the call is staged into a slot exactly as
// Post stages one, then the engine is stepped until the request is
// delivered. A step of this driver is issue, else await: it never reaps its
// queue without blocking — the one virtual-time charge that separates it
// from Poll's progress loop — and it issues and waits for its own ring
// only, handing any other group member's completion to that member.
// The payload must not change until Send returns: a pending reconnect
// runs — and yields — before the payload is staged, so another proc
// re-encoding a shared buffer meanwhile would be sent in its place. With
// anything in flight — posted handles, or an earlier Send not yet redeemed
// by Recv — Send returns ErrRingBusy.
func (c *Client) Send(p *sim.Proc, payload []byte) error {
	if c.outstanding > 0 && !c.closed {
		return ErrRingBusy
	}
	start := p.Now()
	var si int
	var err error
	if c.needReconnect && c.recoveryOn() {
		// One attempt: a synchronous caller hears at once that the server is
		// still down — a replicated client re-routes on it — where Post waits
		// the restart out.
		err = c.reconnect(p)
	}
	if err == nil {
		si, err = c.stage(p, payload, start)
	}
	if err == nil {
		c.call, c.inCall = si, true
		for sl := &c.slots[si]; sl.state == slotPosted || sl.state == slotRepost || sl.state == slotFailed; {
			if sl.state != slotFailed {
				if !c.issue(p) {
					c.await(p, c.self[:])
				}
			} else if !c.redial(p, si) {
				// Undeliverable: Send reports the call's outcome itself.
				c.inCall = false
				_, err = c.claim(p, si, nil)
				break
			}
		}
	}
	return err
}

// Recv obtains the response for the last Send (client_recv), returning the
// number of payload bytes copied into out. It blocks (in virtual time)
// until the response is delivered through whichever mode the call is in;
// without a Send in flight it returns ErrBadHandle.
//
// Recv is the synchronous driver's back half: it steps the slot engine Poll
// drives — the hybrid switch included — and claims through the same
// routine, so a call's legs reach the recorder from its slot's timestamps
// whichever driver made it. What Recv adds is the policy of a
// one-call-at-a-time caller, which the paper's figures were measured with
// (DESIGN.md §8 names the archive behind each item): the call counts in
// Stats.Calls when Recv starts, whatever its outcome; a connection that
// dies under the call is re-established inside the call's own deadline;
// and the reply wait is one SleepEvery.
func (c *Client) Recv(p *sim.Proc, out []byte) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if !c.inCall {
		return 0, ErrBadHandle
	}
	c.inCall = false
	c.Stats.Calls++
	si := c.call
	sl := &c.slots[si]
	for sl.state != slotReady {
		if sl.state == slotFailed {
			if !c.redial(p, si) {
				break
			}
			continue
		}
		if c.issue(p) {
			continue
		}
		if sl.mode == ModeFetch || sl.state != slotWaiting {
			c.await(p, c.self[:])
			continue
		}
		// Reply mode, request delivered, nothing to act on: nap on the
		// call's own slot until replyDue sees something move.
		p.SleepEvery(sim.Duration(c.params.ReplyPollNs), c.replyDone)
	}
	return c.claim(p, si, out)
}

// replyDue is the predicate of Recv's reply wait, run after every nap —
// between naps in scheduler context (sim.Proc.SleepEvery), so it only looks.
// It charges the nap where a loop around replyNap would have — measurement
// windows read Stats while clients are mid-wait — and reports whether Recv
// has anything to act on: a response in the call's landing, a recovery timer
// due, or a switched call's next fallback fetch.
//
//rfp:hotpath
func (c *Client) replyDue() bool {
	c.Stats.IdleNs += c.napIdleNs
	if _, ok := c.replyIn(c.call); ok {
		return true
	}
	sl := &c.slots[c.call]
	now := c.machine.Shard().Now()
	if c.recoveryOn() && (now >= sl.deadline || now >= sl.resendAt) {
		return true
	}
	return sl.justSwitched && now >= sl.fallbackAt
}

// Close tears the connection down: the server-side flag is marked closed
// (Serve loops drop the connection from their polling sets), the local
// reply-landing region and the endpoint lease are released, and the client
// leaves its fan-out group and its tuner. Further calls return ErrClosed, and
// every in-flight posted request resolves with ErrClosed on its next Poll —
// a definite outcome for each handle, so callers can release the request
// buffers they own.
func (c *Client) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
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
	c.flagByte[0] = modeClosed
	err := c.qp.Write(p, c.server, 0, c.flagByte[:])
	c.local.Release()
	// Free the WR-ID tag for the machine's next logical client. Straggler
	// completions under the old tag are dropped by the endpoint demux
	// (counted, never delivered to another client).
	c.lease.Release()
	if c.group != nil {
		c.group.remove(c)
	}
	c.AttachTuner(nil)
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

// fetchLen is the size of the first read of a fetch: F normally, just the
// header under the NoInline ablation.
func (c *Client) fetchLen() int {
	if c.params.NoInline {
		return HeaderSize
	}
	return c.params.F
}

// setMode sets the mode the client's next posts carry, counting the
// switch. It writes nothing remote: each request carries its mode.
func (c *Client) setMode(m Mode) {
	if c.mode == m {
		return
	}
	c.mode = m
	if m == ModeReply {
		c.Stats.SwitchToReply++
	} else {
		c.Stats.SwitchToFetch++
	}
}

// observeCall feeds the attached tuner, if any, with the completed call's
// result size and the server-reported process time.
func (c *Client) observeCall(p *sim.Proc, hdr header) {
	if c.tuner != nil {
		c.tuner.observe(p, c, hdr.size, int64(hdr.timeUs)*1000)
	}
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
