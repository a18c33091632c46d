package core

// The call engine: one slot record per call in flight and the state machine
// that walks it — staged, request write posted, delivered, fetch reads (or a
// reply-mode landing) until the response validates, claimed. Two drivers
// step it. Post/Poll, here, are the pipelined pair: Post stages a request
// into a free slot and issues its RDMA Write without waiting; Poll drives
// all in-flight slots forward (reaping completions, batching fetch reads
// under one doorbell, checking reply-mode landings) until the polled
// handle's response is validated, so a connection with Params.Depth > 1 can
// keep several requests in flight from one simulated thread — the pipelining
// optimization the paper sets aside as orthogonal (Sec. 2.2), which lifts
// single-thread throughput from round-trip-bound toward the initiator
// engine's ceiling. Send/Recv (client.go) are the paper's blocking pair over
// the same slots: one call at a time, stepped without Poll's non-blocking
// reap.
//
// Hybrid-switch rule, one for both drivers: each call carries its mode in
// its own request header (wire.go), and a post carries the client's mode.
// The K-th consecutive call to cross R switches to server-reply in the
// middle of that call (overran): it and every later post go to reply, and
// one small Write rewrites its own request's mode byte. A reply-mode
// response reporting a short process time switches later posts back, at no
// cost: the next request says it. Other calls in flight finish in their
// own mode, so the mode never waits for the ring. Ring geometry does: a
// resize (SetDepth), an F change and a reconnect apply only once the ring
// quiesces (outstanding == 0), and a pending resize enforces it — Post
// reports ErrRingFull — so a driver that claims whenever its ring is full
// drains it without knowing a resize is on the way.

import (
	"errors"
	"fmt"

	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
)

// Ring errors.
var (
	// ErrRingFull reports a Post with every slot already in flight, or
	// with a resize (SetDepth) waiting for the ring to drain: claim an
	// earlier handle and post again.
	ErrRingFull = errors.New("core: request ring full")
	// ErrRingBusy reports a synchronous Send/Call while requests are still
	// in flight — posted handles, or an earlier Send awaiting its Recv;
	// claim them first.
	ErrRingBusy = errors.New("core: requests in flight; claim them before calling synchronously")
	// ErrBadHandle reports a Poll with a handle that is not in flight
	// (already claimed, or from another connection), or a Recv with no Send
	// in flight.
	ErrBadHandle = errors.New("core: handle does not identify an in-flight request")
)

// Handle identifies one in-flight posted request on a connection's ring.
type Handle struct {
	slot int
	seq  uint16
}

// slotPhase is the client-side life cycle of one ring slot.
type slotPhase uint8

const (
	slotFree    slotPhase = iota
	slotPosted            // request write posted, completion not yet seen
	slotWaiting           // request delivered; awaiting response
	slotReading           // a fetch (or continuation) read is in flight
	slotRepost            // request write must be re-posted after backoff
	slotReady             // response validated, waiting for Poll to claim
	slotFailed            // definite error; Poll returns it
)

// slot is the client-side record of one call in flight, whichever driver
// staged it.
type slot struct {
	state   slotPhase
	seq     uint16
	mode    Mode // the delivery mode the call's request carries
	writes  int  // request writes completed for this call (post + resends)
	reads   int  // fetch reads completed for this call
	failed  int  // failed fetch attempts for this call
	overrun bool // failed count crossed R
	hdr     header
	err     error

	// A call switched to reply in flight may have been published before
	// its mode byte landed: it also fetches, at fallbackAt, until answered.
	justSwitched bool
	fallbackAt   sim.Time

	// Recovery state (recover.go); zero unless Params.DeadlineNs is set.
	reqLen   int      // staged request length, for resends
	attempts int      // transport-error retries, drives the backoff
	retryAt  sim.Time // earliest next transport retry
	resendAt sim.Time // next request re-delivery if still unanswered
	deadline sim.Time // terminal failure time
	faulted  bool     // this call needed fault recovery (demotion input)

	// Telemetry timestamps (telemetry.go); virtual times copied for free,
	// consumed only when a recorder is attached.
	postedAt sim.Time // Post/Send entry
	sentAt   sim.Time // request write completed
	readyAt  sim.Time // response validated (the call's true completion)
}

// Work-request ID encoding: kind | slot<<8 | seq<<32 | member<<48, so
// completions route back to their slot and stale completions (a slot
// resolved by Close and reused) are detectable. The member field is the
// client's endpoint-lease tag: the endpoint demux routes by it to the
// client's queue, a group's queue by it to the member.
const (
	wrKindSend   = iota // request RDMA Write
	wrKindFetch         // first fetch read (F bytes)
	wrKindFetch2        // continuation read (size > F)
)

//rfp:hotpath
func (c *Client) ringID(kind, slot int, seq uint16) uint64 {
	return c.tag | uint64(kind) | uint64(slot)<<8 | uint64(seq)<<32
}

// Depth returns the connection's request-ring depth.
func (c *Client) Depth() int { return c.depth }

// stage is the front half of client_send in both its forms — Send and Post
// stage a call through it. It first settles what was deferred to a quiesced
// ring (a reconnect, an F or depth change), then claims a free slot, arms
// its recovery timers, copies header, the client's mode and payload into
// the slot's staging buffer and posts the request write. It returns the
// slot.
//
//rfp:hotpath
func (c *Client) stage(p *sim.Proc, req []byte, start sim.Time) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if len(req) > c.srv.cfg.MaxRequest {
		//rfpvet:allow hotpathalloc oversized-request error path, never taken by well-formed callers
		return 0, fmt.Errorf("core: request of %d bytes exceeds limit %d", len(req), c.srv.cfg.MaxRequest)
	}
	if c.needReconnect && c.recoveryOn() {
		if c.outstanding > 0 {
			// In-flight handles were resolved with the fatal error; they
			// must be claimed before the ring can re-register its buffers
			// (the quiesce rule, exactly as for resizes).
			return 0, ErrReconnect
		}
		if err := c.reconnectBlocking(p); err != nil {
			return 0, err
		}
	}
	// A parameter change decided while the ring was busy applies once it
	// has quiesced (see the file comment); a pending resize admits no post
	// until then.
	if c.pendingDepth != 0 && c.outstanding > 0 {
		return 0, ErrRingFull
	}
	c.applyPendingParams()
	si := c.nextSlot
	for n := 0; c.slots[si].state != slotFree; si = (si + 1) % c.depth {
		if n++; n == c.depth {
			return 0, ErrRingFull
		}
	}
	c.nextSlot = (si + 1) % c.depth
	c.seq++
	c.slots[si] = slot{state: slotPosted, seq: c.seq, mode: c.mode, reqLen: len(req), postedAt: start}
	if c.recoveryOn() {
		now := p.Now()
		c.slots[si].deadline = now.Add(sim.Duration(c.params.DeadlineNs))
		c.slots[si].resendAt = now.Add(c.params.resendNs())
	}
	c.outstanding++
	if c.cq == nil {
		// First call: a connection that never calls allocates no queue.
		c.cq = rnic.NewCQ(c.machine.NIC())
		c.lease.Redirect(c.cq)
	}
	// Clear the slot's local landing header so a reply-mode delivery for
	// this call is unambiguous, then stage header + payload and post.
	putHeader(c.landing[si*c.respStride:], header{})
	putHeader(c.stages[si], header{valid: true, size: len(req), seq: c.seq})
	c.stages[si][reqModeOff] = byte(c.mode)
	copy(c.stages[si][HeaderSize:], req)
	c.repostSend(p, si)
	c.rec.Occupancy(c.outstanding)
	c.callEvent(trace.CallPost, start, p.Now(), si, c.seq, len(req))
	return si, nil
}

// Post stages a request into a free ring slot and issues its delivery
// without waiting for completion (the pipelined form of client_send). The
// payload is copied into the slot's staging buffer before Post returns, so
// the caller may reuse req as soon as it does — but not before: like Send,
// Post may yield (reconnect) ahead of staging, and req must not change
// until it returns. The returned handle must be redeemed with Poll.
// With every slot in flight, or a resize pending, Post returns ErrRingFull.
//
//rfp:hotpath
func (c *Client) Post(p *sim.Proc, req []byte) (Handle, error) {
	si, err := c.stage(p, req, p.Now())
	if err != nil {
		return Handle{}, err
	}
	return Handle{slot: si, seq: c.seq}, nil
}

// Poll blocks (in virtual time) until the request identified by h has a
// definite outcome, copies the response payload into out and returns its
// length (the pipelined form of client_recv). While waiting it drives every
// in-flight slot: fetch reads for all awaiting slots share one doorbell, so
// deep rings keep the NIC's issue engine busy instead of one round trip at
// a time.
//
//rfp:hotpath
func (c *Client) Poll(p *sim.Proc, h Handle, out []byte) (int, error) {
	if h.slot < 0 || h.slot >= c.depth {
		return 0, ErrBadHandle
	}
	sl := &c.slots[h.slot]
	if sl.state == slotFree || sl.seq != h.seq {
		return 0, ErrBadHandle
	}
	for sl.state != slotReady && sl.state != slotFailed {
		c.progress(p)
	}
	if sl.state == slotReady {
		c.Stats.Calls++
	}
	return c.claim(p, h.slot, out)
}

// claim resolves slot si for its caller and frees it — the one exit of a
// call, behind Recv and Poll alike. Ready or failed, the call's verbs and
// failed fetches, counted into its slot as their completions were handled,
// are reported here once: to Stats, to the recorder with the call's legs,
// and — for a call that fetched — to the retry histogram. A failed slot
// then yields its error. A ready one yields its payload, counts toward
// demotion and feeds the hybrid mechanism: a fetch-mode call, unless it
// overran, breaks the run of overruns; a reply-mode call counts as a reply
// delivery and switches later posts back to fetch once the server's
// process time is under the threshold.
//
//rfp:hotpath
func (c *Client) claim(p *sim.Proc, si int, out []byte) (int, error) {
	sl := &c.slots[si]
	hdr, faulted, replied := sl.hdr, sl.faulted, sl.mode == ModeReply
	c.Stats.FetchReads += uint64(sl.reads)
	c.Stats.Retries += uint64(sl.failed)
	if !replied || sl.justSwitched {
		c.recordRetries(sl.failed)
	}
	call := telemetry.CallRecord{Writes: sl.writes, Reads: sl.reads, Retries: sl.failed,
		Fallback: sl.justSwitched, Failed: sl.state == slotFailed, Reply: replied}
	if call.Failed {
		err := sl.err
		c.rec.Claim(call)
		c.releaseSlot(si)
		c.noteCallOutcome(p, faulted)
		return 0, err
	}
	n := copy(out, c.fetches[si][HeaderSize:HeaderSize+hdr.size])
	if c.rec != nil {
		sent := max(sl.sentAt, sl.postedAt) // a reply may land before the send CQE is reaped
		call.TotalNs, call.SendNs, call.RecvNs = int64(sl.readyAt.Sub(sl.postedAt)),
			int64(sent.Sub(sl.postedAt)), int64(sl.readyAt.Sub(sent))
		c.rec.Claim(call)
		c.callEvent(trace.CallDone, sl.readyAt, p.Now(), si, sl.seq, n)
	}
	// Demotion first: a connection it demotes does not switch back.
	c.noteCallOutcome(p, faulted)
	if replied {
		c.Stats.ReplyDeliveries++
		if !c.params.ForceReply && !c.demoted && int(hdr.timeUs) <= switchBackUs {
			c.setMode(ModeFetch)
		}
	} else if !sl.overrun {
		c.consecOverruns = 0
	}
	c.releaseSlot(si)
	c.observeCall(p, hdr)
	return n, nil
}

//rfp:hotpath
func (c *Client) releaseSlot(i int) {
	c.slots[i] = slot{}
	c.outstanding--
	// The claim that empties the ring is the other quiesce point (besides
	// Post/Send): deferred F/depth changes land here, so a decision takes
	// effect as soon as the ring drains even if the caller never posts
	// again.
	c.applyPendingParams()
}

// inFlight reports what the ring waits on: a completion the hardware owes
// (a request write or a read in flight), and a reply-mode call awaiting the
// server's push.
//
//rfp:hotpath
func (c *Client) inFlight() (owed, pushed bool) {
	for i := range c.slots {
		switch sl := &c.slots[i]; {
		case sl.state == slotPosted || sl.state == slotReading:
			owed = true
		case sl.state == slotWaiting && sl.mode == ModeReply:
			pushed = true
		}
	}
	return owed, pushed
}

// progress advances the in-flight slots by one step of the pipelined
// driver: reap available completions, issue work for slots that can
// proceed, and otherwise block until the next completion (or, in reply
// mode, the next sparse local poll). A grouped connection delegates to the
// group engine, which runs the same reap/issue/await cycle across every
// member at once.
//
//rfp:hotpath
func (c *Client) progress(p *sim.Proc) {
	if c.group != nil {
		c.group.progress(p)
		return
	}
	if advanced := c.reap(p); c.issue(p) || advanced {
		return
	}
	c.await(p)
}

// reap drains the connection's completion queue without blocking, routing
// each completion to its slot.
//
//rfp:hotpath
func (c *Client) reap(p *sim.Proc) bool {
	advanced := false
	for {
		e, ok := c.cq.Poll(p)
		if !ok {
			break
		}
		if c.handleCQE(p, e) {
			advanced = true
		}
	}
	return advanced
}

// issue posts work for every slot that can proceed, each in its own mode:
// a fetch read per awaiting fetch-mode slot, the batch sharing a doorbell,
// and a check of each awaiting reply-mode slot's local landing — plus the
// fallback fetch of a call switched in flight, when due.
//
//rfp:hotpath
func (c *Client) issue(p *sim.Proc) bool {
	advanced := false
	// Batch into the connection's persistent scratch: a fresh []WR here
	// would heap-allocate on every engine step of every deep-ring call (the
	// WRs are copied into the send queue before Post/PostBatch return, so
	// reuse is safe).
	c.wrScratch = c.wrScratch[:0]
	for i := range c.slots {
		sl := &c.slots[i]
		// A response that has landed wins over a timer due at the same
		// instant.
		if sl.mode == ModeReply && c.landed(p, i) || c.recoveryOn() && c.slotTimers(p, i) {
			advanced = true
			continue
		}
		if sl.state != slotWaiting || sl.mode == ModeReply && (!sl.justSwitched || p.Now() < sl.fallbackAt) {
			continue
		}
		if c.recoveryOn() && sl.retryAt > p.Now() {
			continue // backing off after a failed fetch
		}
		c.wrScratch = append(c.wrScratch, c.fetchWR(i))
		sl.state = slotReading
	}
	if len(c.wrScratch) == 1 {
		c.qp.Post(p, c.lease.PostCQ(), c.wrScratch[0])
	} else if len(c.wrScratch) > 1 {
		c.qp.PostBatch(p, c.lease.PostCQ(), c.wrScratch)
	}
	return advanced || len(c.wrScratch) > 0
}

// landed checks the reply landing of slot i, if it awaits a response: a
// valid header carrying the call's sequence number means the server has
// pushed it, and the slot is ready.
//
//rfp:hotpath
func (c *Client) landed(p *sim.Proc, i int) bool {
	sl := &c.slots[i]
	if sl.state != slotWaiting {
		return false
	}
	hdr, ok := c.replyIn(i)
	if !ok {
		return false
	}
	copy(c.fetches[i], c.landing[i*c.respStride:][:HeaderSize+hdr.size])
	sl.hdr, sl.state, sl.readyAt = hdr, slotReady, p.Now()
	return true
}

// replyIn reads the header in slot i's landing and reports whether it is the
// response to the slot's call.
//
//rfp:hotpath
func (c *Client) replyIn(i int) (header, bool) {
	hdr := parseHeader(c.landing[i*c.respStride:])
	return hdr, hdr.valid && hdr.seq == c.slots[i].seq
}

// fetchWR is slot i's fetch read: the first F bytes of its response area
// (just the header under NoInline).
//
//rfp:hotpath
func (c *Client) fetchWR(i int) rnic.WR {
	return rnic.WR{
		ID:     c.ringID(wrKindFetch, i, c.slots[i].seq),
		Op:     rnic.WRRead,
		Remote: c.server,
		Roff:   respOffAt(c.srv.cfg, i),
		Local:  c.fetches[i][:c.fetchLen()],
	}
}

// await blocks until hardware or the server moves: wait for the next
// completion if one is owed, else poll the reply landing sparsely — where
// reply mode saves client cycles (Fig. 15). A group member's queue is the
// group's, so whatever completes is handed to the member it belongs to: a
// synchronous call on one member must not drop another member's
// completions as stale.
//
//rfp:hotpath
func (c *Client) await(p *sim.Proc) {
	owed, pushed := c.inFlight()
	if owed {
		if e := c.cq.Wait(p); c.group != nil {
			c.group.dispatch(p, e)
		} else {
			c.handleCQE(p, e)
		}
		return
	}
	if pushed {
		c.replyNap(p)
		return
	}
	if c.recoveryOn() {
		// Every live slot is backing off or awaiting a resend/deadline:
		// sleep exactly until the earliest recovery timer is due.
		if t, ok := c.nextTimer(); ok && t > p.Now() {
			p.SleepUntil(t)
		}
	}
}

// replyNap is one sparse reply-mode poll interval, with the CPU idle for
// everything past the poll itself.
//
//rfp:hotpath
func (c *Client) replyNap(p *sim.Proc) {
	p.Sleep(sim.Duration(c.params.ReplyPollNs))
	c.Stats.IdleNs += c.napIdleNs
}

// handleCQE routes one completion to its slot, reporting whether any state
// advanced. Stale completions — for a slot Close resolved or a seq long
// claimed — are dropped.
//
//rfp:hotpath
func (c *Client) handleCQE(p *sim.Proc, e rnic.CQE) bool {
	kind := int(e.ID & 0xff)
	si := int(e.ID >> 8 & 0xffffff)
	seq := uint16(e.ID >> 32)
	if si >= len(c.slots) {
		// Stale completion for a slot beyond the current depth (the ring
		// shrank since it was posted): nothing references it any more.
		return false
	}
	sl := &c.slots[si]
	if sl.seq != seq || sl.state == slotFree || sl.state == slotReady || sl.state == slotFailed {
		return false
	}
	// Verbs are counted into the call's slot here, where their completion
	// is handled, for both drivers; claim reports them.
	if kind == wrKindSend {
		sl.writes++
	} else {
		sl.reads++
	}
	if e.Err != nil {
		if !c.recoverable(e.Err) {
			sl.state = slotFailed
			sl.err = e.Err
			return true
		}
		c.Stats.FaultRetries++
		sl.faulted = true
		if connLevel(e.Err) {
			// The connection is gone: every in-flight handle resolves with
			// the error, and the next quiesced Post reconnects.
			c.failInflight(e.Err)
			return true
		}
		if p.Now() >= sl.deadline {
			sl.state = slotFailed
			sl.err = ErrDeadline
			c.Stats.Deadlines++
			return true
		}
		sl.attempts++
		sl.retryAt = p.Now().Add(backoffFor(c.params, sl.attempts))
		if kind == wrKindSend {
			sl.state = slotRepost // re-post the request write after backoff
		} else {
			sl.state = slotWaiting // re-fetch after backoff
		}
		return true
	}
	switch kind {
	case wrKindSend:
		if sl.state == slotPosted {
			sl.state = slotWaiting
			sl.sentAt = p.Now()
		}
	case wrKindFetch:
		if sl.state != slotReading {
			return false
		}
		hdr := parseHeader(c.fetches[si])
		if !hdr.valid || hdr.seq != sl.seq {
			// Stale or half-written response: retry. The slot returns to
			// waiting and the next step re-reads it — the paper's repeated
			// remote fetching; crossing R makes the call an overrun for the
			// hybrid switch. A switched call's fallback fetch comes round
			// again in fallbackFetchNs.
			sl.failed++
			c.callEvent(trace.FetchMiss, p.Now(), p.Now(), si, sl.seq, c.fetchLen())
			sl.state = slotWaiting
			if sl.mode == ModeReply {
				sl.fallbackAt = p.Now().Add(sim.Duration(fallbackFetchNs))
			} else if sl.failed > c.params.R && !sl.overrun {
				sl.overrun = true
				c.overran(p, si)
				if c.recoveryOn() && sl.state == slotWaiting {
					// R misses: the server is slow, or the request was lost
					// on the wire. Re-delivering now revives a lost one
					// long before resendAt and costs a slow one a compare
					// (at most once, Conn.TryRecv).
					c.Stats.Resends++
					c.repostSend(p, si)
				}
			}
			return true
		}
		if hdr.size > c.srv.cfg.MaxResponse {
			sl.state = slotFailed
			//rfpvet:allow hotpathalloc size-overflow error path, terminal for the call
			sl.err = fmt.Errorf("core: server announced %d-byte response beyond limit %d", hdr.size, c.srv.cfg.MaxResponse)
			return true
		}
		sl.hdr = hdr
		if total := HeaderSize + hdr.size; total > c.fetchLen() {
			// The inline size field tells us exactly what remains: one
			// continuation read, no size-probe round trip.
			f := c.fetchLen()
			c.qp.Post(p, c.lease.PostCQ(), rnic.WR{
				ID:     c.ringID(wrKindFetch2, si, sl.seq),
				Op:     rnic.WRRead,
				Remote: c.server,
				Roff:   respOffAt(c.srv.cfg, si) + f,
				Local:  c.fetches[si][f:total],
			})
			return true // still slotReading, awaiting the continuation
		}
		sl.state = slotReady
		sl.readyAt = p.Now()
		c.callEvent(trace.FetchHit, p.Now(), p.Now(), si, sl.seq, HeaderSize+hdr.size)
	case wrKindFetch2:
		if sl.state != slotReading {
			return false
		}
		c.Stats.SecondReads++
		sl.state = slotReady
		sl.readyAt = p.Now()
		c.callEvent(trace.FetchHit, p.Now(), p.Now(), si, sl.seq, HeaderSize+sl.hdr.size)
	}
	return true
}

// overran feeds the hybrid switch a fetch-mode call that has just crossed R.
// The K-th consecutive one switches to server-reply in the middle of the
// call — paper Sec. 3.2's fallback, in whichever driver it runs: every
// later post carries reply, and one 1-byte Write rewrites the call's own
// request mode byte, from the staging copy so that a resend carries it too.
// The server may publish before that byte lands; the call's fallback fetch
// collects such a response.
//
//rfp:hotpath
func (c *Client) overran(p *sim.Proc, si int) {
	if c.consecOverruns++; c.params.DisableSwitch || c.consecOverruns < switchAfterOverruns {
		return
	}
	sl := &c.slots[si]
	c.consecOverruns = 0
	c.callEvent(trace.Fallback, p.Now(), p.Now(), si, sl.seq, 0)
	c.setMode(ModeReply)
	sl.mode, sl.justSwitched = ModeReply, true
	c.stages[si][reqModeOff] = byte(ModeReply)
	if err := c.qp.Write(p, c.server, reqOffAt(c.srv.cfg, si)+reqModeOff, c.stages[si][reqModeOff:reqModeOff+1]); err != nil {
		sl.state, sl.err = slotFailed, err
		return
	}
	sl.fallbackAt = p.Now().Add(sim.Duration(fallbackFetchNs))
}
