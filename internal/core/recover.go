package core

// Recovery path (extension, DESIGN.md §10). The paper assumes a lossless
// fabric: every RDMA operation completes and every buffered response is
// eventually fetched. Under fault injection (internal/faults) that stops
// being true, so connections with Params.DeadlineNs set gain a recovery
// state machine:
//
//   - transient errors (a lost completion, rnic.ErrTimeout) retry the
//     failed operation after capped exponential backoff;
//   - connection-level errors (QP in error state, deregistered region,
//     crashed machine) resolve every in-flight call, then re-establish the
//     connection — fresh region, landing buffers and QP pair swapped into
//     the same server-side Conn — at the next quiesce point, reusing the
//     ring's quiesce rule (DESIGN.md §8);
//   - a call with no valid response after resendNs, or whose fetches
//     cross R, re-delivers its request (same sequence number, so the
//     server runs it at most once), which is the only way to revive a
//     request lost to corruption or a server restart;
//   - DeadlineNs bounds all of it: past the deadline the call fails
//     terminally with ErrDeadline, so no fault plan can wedge a caller.
//
// With DeadlineNs zero (the default) none of this machinery runs and the
// connection behaves exactly like the paper's lossless model.

import (
	"errors"
	"fmt"

	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

// Recovery errors.
var (
	// ErrDeadline reports a call that found no response within
	// Params.DeadlineNs despite retries, resends and reconnects.
	ErrDeadline = errors.New("core: call deadline exceeded")
	// ErrServerDown reports a reconnect attempt against a crashed machine.
	ErrServerDown = errors.New("core: server machine is down")
	// ErrReconnect reports a Post on a connection that lost its transport
	// while handles were still unclaimed: claim them (each resolves with
	// the original error), and the next Post re-establishes the connection.
	ErrReconnect = errors.New("core: connection lost; claim outstanding handles to reconnect")
)

// reconnectSetupNs is the CPU/control cost of re-establishing a connection,
// on top of the out-of-band round trips.
const reconnectSetupNs = 2000

// resendNs is how long a call waits for a valid response before re-sending
// its request (same sequence number): a corrupted request write or a server
// restart loses the request silently, and only a resend can revive the call.
// An eighth of the deadline, at least 5000 ns. A resent request that ran
// already is not run again (Conn.TryRecv).
func (p Params) resendNs() sim.Duration {
	return sim.Duration(max(p.DeadlineNs/8, 5000))
}

// recoveryOn reports whether this connection has the recovery path enabled.
func (c *Client) recoveryOn() bool { return c.params.DeadlineNs > 0 }

// recoverable reports whether the recovery loop should absorb err and keep
// the call alive. Always false with recovery disabled, so the lossless
// model's error surface is unchanged.
func (c *Client) recoverable(err error) bool {
	if !c.recoveryOn() {
		return false
	}
	return errors.Is(err, rnic.ErrTimeout) || connLevel(err)
}

// connLevel reports whether err means the connection itself is gone and
// only a reconnect can help. ErrTimeout is the one transient error; the
// rest are fatal to the QP or the remote registration.
func connLevel(err error) bool {
	return errors.Is(err, rnic.ErrQPState) || errors.Is(err, rnic.ErrNICDown) ||
		errors.Is(err, rnic.ErrDeregister) || errors.Is(err, rnic.ErrBadKey)
}

// backoffFor computes the exponential backoff for the given attempt number
// (1-based), capped at 32x the base.
func backoffFor(params Params, attempt int) sim.Duration {
	d := params.BackoffNs
	for i := 1; i < attempt && d < 32*params.BackoffNs; i++ {
		d *= 2
	}
	if d <= 0 {
		d = 1000
	}
	return sim.Duration(d)
}

// redial is the synchronous driver's answer to a slot failed under it. A
// pipelined caller's handles resolve with the fatal error and its next Post
// reconnects; a synchronous caller has no next Post inside the call, so a
// call whose connection died (connLevel) backs off, re-establishes the
// connection and re-delivers its request — same slot, same sequence number
// — for as long as its own deadline allows. A failed attempt is not
// terminal: the server may still be down, and the driver comes back here
// until the deadline. It reports false when the failure is final.
func (c *Client) redial(p *sim.Proc, si int) bool {
	sl := &c.slots[si]
	if !c.recoveryOn() || !connLevel(sl.err) {
		return false
	}
	if p.Now() >= sl.deadline {
		sl.err = fmt.Errorf("%w (last transport error: %v)", ErrDeadline, sl.err)
		c.Stats.Deadlines++
		return false
	}
	sl.attempts++
	p.Sleep(backoffFor(c.params, sl.attempts))
	if c.reconnect(p) == nil {
		// The server-side slots are fresh, so the request is gone with the
		// old ones: deliver it again.
		sl.resendAt = p.Now().Add(c.params.resendNs())
		c.Stats.Resends++
		c.repostSend(p, si)
	}
	return true
}

// reconnect re-establishes the connection in place after a fatal transport
// error: a fresh server-side region, client landing registration and
// endpoint lease are bound into the existing server-side Conn, so Serve loops
// keep polling the same connection object. This is ring re-registration
// under the quiesce rule: the caller guarantees no posted request still
// references the old buffers.
//
//rfp:quiesced callers hold the quiesce rule — stage/reconnectBlocking require outstanding == 0, and redial runs only after failInflight has resolved every in-flight slot, its own included
func (c *Client) reconnect(p *sim.Proc) error {
	if c.closed {
		return ErrClosed
	}
	// Control-plane exchange: buffer locations travel out of band exactly
	// as at Accept (paper Sec. 3.1), a few round trips plus setup work. The
	// attempt is charged before the outcome is known — discovering a dead
	// server costs the round trip too, which keeps failed-reconnect loops
	// advancing virtual time.
	p.Sleep(sim.Duration(3*c.machine.Profile().PropagationNs + reconnectSetupNs))
	if c.srv.machine.Down() {
		return ErrServerDown
	}
	// Acquire before releasing, exactly like the paper's handshake redone
	// (the old registrations are deregistered only once the fresh ones
	// exist). The fresh endpoint lease delivers into the client's existing
	// queue under a new WR-ID tag, so any straggler completion under the old
	// tag is dropped by the demux instead of resolving a fresh slot.
	res, err := c.srv.leaseResources(c.machine, c.maxDepth)
	if err != nil {
		return err
	}
	c.conn.lease.Release()
	c.local.Release()
	c.lease.Release()
	c.bind(res)
	c.needReconnect = false
	c.Stats.Reconnects++
	return nil
}

// reconnectBlocking retries reconnect with backoff for up to DeadlineNs —
// the next Post's bounded wait for a restarting server.
func (c *Client) reconnectBlocking(p *sim.Proc) error {
	limit := p.Now().Add(sim.Duration(c.params.DeadlineNs))
	attempt := 0
	for {
		err := c.reconnect(p)
		if err == nil || errors.Is(err, ErrClosed) {
			return err
		}
		attempt++
		d := backoffFor(c.params, attempt)
		if p.Now().Add(d) >= limit {
			return err
		}
		p.Sleep(d)
	}
}

// noteCallOutcome tracks consecutive fault-recovered calls for permanent
// demotion (Params.DemoteAfter); faulted says whether the call just claimed
// needed fault recovery. Free on the healthy path.
func (c *Client) noteCallOutcome(p *sim.Proc, faulted bool) {
	if !faulted {
		c.faultedCalls = 0
		return
	}
	c.faultedCalls++
	if d := c.params.DemoteAfter; d > 0 && !c.demoted && c.faultedCalls >= d {
		c.demote(p)
	}
}

// demote pins the connection to server-reply mode permanently: the fetch
// path keeps needing fault recovery, so stop probing it. Every later post
// carries reply, calls in flight finish in their own mode, and switch-back
// is suppressed from here on; the tuner surfaces the event.
func (c *Client) demote(p *sim.Proc) {
	c.demoted = true
	c.Stats.Demotions++
	if c.tuner != nil {
		c.tuner.Demotions++
	}
	c.rec.Decide(telemetry.Decision{
		At: p.Now(), Conn: int(c.connID()), Param: "demote",
		Old: int(c.mode), New: int(ModeReply),
	})
	c.setMode(ModeReply)
}

// failInflight resolves every in-flight slot with err — a crash must leave
// no handle unresolved — and marks the connection for re-establishment at
// the next quiesce point.
func (c *Client) failInflight(err error) {
	for i := range c.slots {
		sl := &c.slots[i]
		switch sl.state {
		case slotFree, slotReady, slotFailed:
		default:
			sl.state = slotFailed
			sl.err = err
		}
	}
	c.needReconnect = true
}

// slotTimers fires one slot's due recovery timers: terminal deadline,
// deferred request (re)post after backoff, and request re-delivery for a
// call unanswered past resendAt. Reports whether the slot advanced.
//
//rfp:hotpath
func (c *Client) slotTimers(p *sim.Proc, i int) bool {
	sl := &c.slots[i]
	switch sl.state {
	case slotFree, slotReady, slotFailed:
		return false
	}
	now := p.Now()
	if now >= sl.deadline {
		sl.state = slotFailed
		sl.err = ErrDeadline
		c.Stats.Deadlines++
		return true
	}
	if sl.state == slotRepost && now >= sl.retryAt {
		c.repostSend(p, i)
		return true
	}
	if sl.state == slotWaiting && now >= sl.resendAt {
		sl.resendAt = now.Add(c.params.resendNs())
		sl.faulted = true
		c.Stats.Resends++
		c.repostSend(p, i)
		return true
	}
	return false
}

// repostSend (re)posts slot i's request write — same slot, same sequence
// number; the staging buffer still holds the request bytes.
//
//rfp:hotpath
func (c *Client) repostSend(p *sim.Proc, i int) {
	sl := &c.slots[i]
	sl.state = slotPosted
	c.qp.Post(p, c.lease.PostCQ(), rnic.WR{
		ID:     c.ringID(wrKindSend, i, sl.seq),
		Op:     rnic.WRWrite,
		Remote: c.server,
		Roff:   reqOffAt(c.srv.cfg, i),
		Local:  c.stages[i][:HeaderSize+sl.reqLen],
	})
}

// nextTimer returns the earliest pending recovery timer across the ring,
// or 0 if none is armed (recovery off), so an otherwise-idle poll loop can
// sleep exactly until it is due.
//
//rfp:hotpath
func (c *Client) nextTimer() sim.Time {
	var t sim.Time
	min := func(v sim.Time) {
		if v != 0 && (t == 0 || v < t) {
			t = v
		}
	}
	for i := range c.slots {
		sl := &c.slots[i]
		switch sl.state {
		case slotRepost:
			min(sl.retryAt)
			min(sl.deadline)
		case slotWaiting:
			min(sl.retryAt)
			min(sl.resendAt)
			min(sl.deadline)
		case slotPosted, slotReading:
			min(sl.deadline)
		}
	}
	return t
}
