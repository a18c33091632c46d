package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
)

// callInstants are the three virtual instants of one synchronous call as
// its caller sees them: Send entry, Send return (request delivered), Recv
// return (response claimed).
type callInstants struct{ post, delivered, done sim.Time }

// timelineShape is one synchronous call shape on the one-client echo rig.
type timelineShape struct {
	name   string
	params func(*Params)
	procNs func(call int) int64 // server process time charged per call
	calls  int
	reqLen int
	check  func(t *testing.T, s ClientStats) // the shape really is what its name says
	want   []callInstants
	events uint64
	digest uint64
}

// runTimeline drives sh on a fresh seed-1 rig and returns what the caller
// saw plus the kernel's own fingerprint of the run.
func runTimeline(t *testing.T, sh timelineShape) ([]callInstants, uint64, uint64, ClientStats) {
	t.Helper()
	env := sim.NewEnv(1)
	defer env.Close()
	env.EnableKernelTrace()
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	srv := NewServer(cl.Server, ServerConfig{MaxRequest: 1024, MaxResponse: 1024})
	params := DefaultParams()
	if sh.params != nil {
		sh.params(&params)
	}
	cli, conn := srv.Accept(cl.Clients[0], params)
	srv.AddThreads(1)
	served := 0
	srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			if sh.procNs != nil {
				srv.Machine().ComputeNs(p, sh.procNs(served))
			}
			served++
			return copy(resp, req)
		})
	})
	var got []callInstants
	cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		req := make([]byte, sh.reqLen)
		for i := range req {
			req[i] = byte(i)
		}
		out := make([]byte, 1024)
		for i := 0; i < sh.calls; i++ {
			var ci callInstants
			ci.post = p.Now()
			if err := cli.Send(p, req); err != nil {
				t.Errorf("%s: call %d Send: %v", sh.name, i, err)
				return
			}
			ci.delivered = p.Now()
			n, err := cli.Recv(p, out)
			if err != nil || n != len(req) || string(out[:n]) != string(req) {
				t.Errorf("%s: call %d Recv: n=%d err=%v", sh.name, i, n, err)
				return
			}
			ci.done = p.Now()
			got = append(got, ci)
		}
	})
	env.Run(sim.Time(sim.Millisecond))
	return got, env.EventsRetired(), env.KernelDigest(), cli.Stats
}

// TestSyncCallTimelinePinned pins the virtual timeline of the synchronous
// call — (post, delivered, done) per call, plus the kernel's retired-event
// count and digest of the whole run — for six call shapes. The constants
// were recorded at the commit before Send/Recv became a driver over the
// ring's slot engine, when they were straight-line code over the blocking
// verbs: the two must be the same protocol to the nanosecond and to the
// event, which is what keeps every archived figure byte-identical. This is
// the unit-speed guard in front of the 22 s archive comparisons. One shape
// has been re-pinned since, with its reason beside it.
func TestSyncCallTimelinePinned(t *testing.T) {
	shapes := []timelineShape{
		{
			name: "first-fetch-hit", calls: 2, reqLen: 16,
			// The echo server publishes before the first fetch snapshots.
			check: func(t *testing.T, s ClientStats) {
				if s.Retries != 0 || s.FetchReads != 2 || s.SecondReads != 0 {
					t.Errorf("first-fetch-hit: retries=%d reads=%d second=%d", s.Retries, s.FetchReads, s.SecondReads)
				}
			},
			want:   []callInstants{{0, 1497, 3169}, {3169, 4677, 6329}},
			events: 51, digest: 0xabaa38a2590f80f5,
		},
		{
			name: "miss-then-hit", calls: 2, reqLen: 16,
			procNs: func(int) int64 { return 1500 },
			check: func(t *testing.T, s ClientStats) {
				if s.Retries != 2 || s.FetchReads != 4 || s.MaxRetries != 1 {
					t.Errorf("miss-then-hit: retries=%d reads=%d max=%d", s.Retries, s.FetchReads, s.MaxRetries)
				}
			},
			want:   []callInstants{{0, 1497, 4831}, {4831, 6329, 9628}},
			events: 71, digest: 0xd59501dc6ef3b7fc,
		},
		{
			name: "continuation-read", calls: 2, reqLen: 600,
			check: func(t *testing.T, s ClientStats) {
				if s.SecondReads != 2 || s.FetchReads != 2*2+s.Retries {
					t.Errorf("continuation-read: second=%d reads=%d retries=%d", s.SecondReads, s.FetchReads, s.Retries)
				}
			},
			want:   []callInstants{{0, 1729, 5082}, {5082, 6812, 10130}},
			events: 71, digest: 0x99c1c7a5a13f5f3,
		},
		{
			name: "no-inline", calls: 2, reqLen: 16,
			params: func(p *Params) { p.NoInline = true },
			check: func(t *testing.T, s ClientStats) {
				if s.SecondReads != 2 || s.FetchReads != 2*2+s.Retries {
					t.Errorf("no-inline: second=%d reads=%d retries=%d", s.SecondReads, s.FetchReads, s.Retries)
				}
			},
			want:   []callInstants{{0, 1497, 4733}, {4733, 6231, 9432}},
			events: 74, digest: 0xe376757c05105eb2,
		},
		{
			name: "force-reply", calls: 2, reqLen: 16,
			params: func(p *Params) { p.ForceReply = true },
			check: func(t *testing.T, s ClientStats) {
				if s.ReplyDeliveries != 2 || s.FetchReads != 0 || s.SwitchToReply != 0 {
					t.Errorf("force-reply: deliveries=%d reads=%d switches=%d", s.ReplyDeliveries, s.FetchReads, s.SwitchToReply)
				}
			},
			want:   []callInstants{{0, 1497, 3497}, {3497, 5005, 8005}},
			events: 53, digest: 0xdd9b0c6e3ccab51e,
		},
		{
			// Calls 0 and 1 overrun R: the second trips the mid-call switch
			// and is delivered by server-reply (reporting 30 µs, so no
			// switch-back); call 2 is a steady reply-mode call whose short
			// process time switches the connection back at claim; call 3
			// fetches again. Re-pinned when the mode moved into the request
			// header: the switch back is a local assignment — call 3's
			// request carries fetch — so call 2's claim no longer writes the
			// server-side flag, and calls 2 and 3 end 1480 ns earlier with
			// 10 fewer events. Calls 0 and 1, the mid-call switch included,
			// hold to the nanosecond.
			name: "mid-call-switch-and-back", calls: 4, reqLen: 16,
			procNs: func(call int) int64 {
				if call < 2 {
					return 30000
				}
				return 0
			},
			want:   []callInstants{{0, 1497, 33036}, {33036, 34556, 66058}, {66058, 67568, 68568}, {68568, 70058, 71718}},
			events: 351, digest: 0x1936c5d81c40e5c5,
			check: func(t *testing.T, s ClientStats) {
				if s.SwitchToReply != 1 || s.SwitchToFetch != 1 || s.ReplyDeliveries != 2 {
					t.Errorf("mid-call-switch-and-back: toReply=%d toFetch=%d deliveries=%d",
						s.SwitchToReply, s.SwitchToFetch, s.ReplyDeliveries)
				}
			},
		},
	}
	for _, sh := range shapes {
		got, events, digest, st := runTimeline(t, sh)
		if st.Calls != uint64(sh.calls) {
			t.Errorf("%s: Stats.Calls = %d, want %d", sh.name, st.Calls, sh.calls)
		}
		sh.check(t, st)
		if fmt.Sprint(got) != fmt.Sprint(sh.want) || events != sh.events || digest != sh.digest {
			var b strings.Builder
			for _, ci := range got {
				fmt.Fprintf(&b, "{%d, %d, %d}, ", ci.post, ci.delivered, ci.done)
			}
			t.Errorf("%s: timeline moved:\n got  want: []callInstants{%s},\n\t\t\tevents: %d, digest: %#x,\n want %v events=%d digest=%#x",
				sh.name, strings.TrimSuffix(b.String(), ", "), events, digest, sh.want, sh.events, sh.digest)
		}
	}
}

// TestRecvWithoutSend: a Recv with no Send in flight names no call. It used
// to count one in Stats.Calls and fetch the idle response buffer forever
// (3,079 reads in 5 ms of virtual time at default parameters, never
// returning); now it is ErrBadHandle and touches nothing — with the recovery
// path armed or not, before the first call and after a claimed one.
func TestRecvWithoutSend(t *testing.T) {
	for _, deadlineNs := range []int64{0, 50_000} {
		r := newRig(t, 1, ServerConfig{})
		params := DefaultParams()
		params.DeadlineNs = deadlineNs
		cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
		r.srv.AddThreads(1)
		r.srv.Machine().Spawn("srv", func(p *sim.Proc) { Serve(p, []*Conn{conn}, echoHandler) })
		finished := false
		r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 64)
			if n, err := cli.Recv(p, out); n != 0 || err != ErrBadHandle {
				t.Errorf("deadline %d: Recv before any Send = (%d, %v), want ErrBadHandle", deadlineNs, n, err)
			}
			if cli.Stats != (ClientStats{}) {
				t.Errorf("deadline %d: a Recv with nothing to receive touched Stats: %+v", deadlineNs, cli.Stats)
			}
			if _, err := cli.Call(p, []byte("x"), out); err != nil {
				t.Errorf("deadline %d: Call: %v", deadlineNs, err)
			}
			before, at := cli.Stats, p.Now()
			if _, err := cli.Recv(p, out); err != ErrBadHandle {
				t.Errorf("deadline %d: second Recv for one Send: err = %v, want ErrBadHandle", deadlineNs, err)
			}
			if cli.Stats != before || p.Now() != at {
				t.Errorf("deadline %d: the refused Recv moved Stats or the clock", deadlineNs)
			}
			finished = true
		})
		r.env.Run(sim.Time(5 * sim.Millisecond))
		if !finished {
			t.Fatalf("deadline %d: Recv without Send never returned", deadlineNs)
		}
	}
}

// TestSecondSendBeforeRecv: the synchronous call occupies its slot from Send
// to Recv. A second Send used to overwrite the staged call silently (the
// server served both requests, Recv returned the second response and the
// first was lost); now it is ErrRingBusy and stages nothing, and a Post into
// the depth-1 ring the call fills is ErrRingFull.
func TestSecondSendBeforeRecv(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	served := 0
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			served++
			return copy(resp, req)
		})
	})
	var got string
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		if err := cli.Send(p, []byte("first")); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		if err := cli.Send(p, []byte("second")); err != ErrRingBusy {
			t.Errorf("second Send before Recv: err = %v, want ErrRingBusy", err)
		}
		if _, err := cli.Post(p, []byte("posted")); err != ErrRingFull {
			t.Errorf("Post between Send and Recv on a depth-1 ring: err = %v, want ErrRingFull", err)
		}
		n, err := cli.Recv(p, out)
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		got = string(out[:n])
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if got != "first" || served != 1 || cli.Stats.Calls != 1 {
		t.Fatalf("response %q, %d requests served, Calls = %d; want the first call's response, 1, 1", got, served, cli.Stats.Calls)
	}
}

// TestGroupSyncCallHandsOverCompletions: a grouped member's queue is the
// group's, so a synchronous call on member B waits on the queue member A's
// posted requests complete into. B's wait must hand A's completions to A
// (Group.dispatch) rather than drop them as stale — and must not drive A's
// ring: A's fetches are A's to post.
func TestGroupSyncCallHandsOverCompletions(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = 4
	cliA, connA := r.srv.Accept(r.cluster.Clients[0], params)
	cliB, connB := r.srv.Accept(r.cluster.Clients[0], params)
	g := NewGroup()
	for _, c := range []*Client{cliA, cliB} {
		if err := g.Add(c); err != nil {
			t.Fatalf("group add: %v", err)
		}
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) { Serve(p, []*Conn{connA, connB}, echoHandler) })
	resolved := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		var hs [3]Handle
		for i := range hs {
			var err error
			if hs[i], err = cliA.Post(p, []byte{'a', byte(i)}); err != nil {
				t.Errorf("post A%d: %v", i, err)
				return
			}
		}
		// A's three request writes are still in flight: their completions
		// arrive on the shared queue while B waits for its own.
		n, err := cliB.Call(p, []byte("sync-b"), out)
		if err != nil || string(out[:n]) != "sync-b" {
			t.Errorf("B's synchronous call: (%q, %v)", out[:n], err)
			return
		}
		for i := range cliA.slots[:3] {
			if st := cliA.slots[i].state; st != slotWaiting {
				t.Errorf("A's slot %d is in phase %d after B's call, want delivered (%d): its send completion was not handed over", i, st, slotWaiting)
			}
		}
		if cliA.Stats.FetchReads != 0 {
			t.Errorf("B's call drove A's ring: %d of A's fetches completed", cliA.Stats.FetchReads)
		}
		for i, h := range hs {
			if n, err := cliA.Poll(p, h, out); err != nil || n != 2 || out[0] != 'a' || out[1] != byte(i) {
				t.Errorf("poll A%d: (% x, %v)", i, out[:n], err)
				return
			}
			resolved++
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if resolved != 3 || cliB.Stats.Calls != 1 {
		t.Fatalf("resolved %d/3 of A's posts, B made %d calls", resolved, cliB.Stats.Calls)
	}
	if n := r.cluster.Clients[0].NIC().Misrouted; n != 0 {
		t.Fatalf("misrouted completions: %d", n)
	}
}

// TestReplyWaitAccruesPerNap: the reply wait charges each nap's idle time at
// that nap's instant, whoever takes the wake-up. An fn event fired in the
// middle of a ForceReply call's wait — what a measurement window's snapshot
// is — reads exactly the naps so far; accounting for them in bulk once the
// wait returns would read none (and moved fig15 and ablation-switch).
func TestReplyWaitAccruesPerNap(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.ForceReply = true
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, slowHandler(r.srv.Machine(), sim.Micros(30)))
	})
	poll := sim.Duration(params.ReplyPollNs)
	var recvAt, doneAt sim.Time
	sampled := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		if err := cli.Send(p, []byte("nap")); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		recvAt = p.Now()
		// Between the 12th and the 13th nap of the wait.
		r.env.At(recvAt.Add(12*poll+poll/4), func() {
			sampled = true
			if want := 12 * cli.napIdleNs; cli.Stats.IdleNs != want {
				t.Errorf("IdleNs mid-wait, 12 naps in = %d, want %d", cli.Stats.IdleNs, want)
			}
		})
		if _, err := cli.Recv(p, out); err != nil {
			t.Errorf("Recv: %v", err)
		}
		doneAt = p.Now()
	})
	r.env.Run(sim.Time(sim.Millisecond))
	naps := int64(doneAt.Sub(recvAt) / poll)
	if !sampled || naps <= 12 || doneAt != recvAt.Add(sim.Duration(naps)*poll) {
		t.Fatalf("sampled=%v; wait %v..%v is not a whole number (> 12) of %v naps", sampled, recvAt, doneAt, poll)
	}
	if want := naps * cli.napIdleNs; cli.napIdleNs <= 0 || cli.Stats.IdleNs != want {
		t.Fatalf("IdleNs after %d naps = %d, want %d", naps, cli.Stats.IdleNs, want)
	}
}

// TestReplyWaitTimersFireOnTick: with recovery on, the reply wait's
// predicate watches the call's timers as well as its landing. A request the
// server sits on past resendAt is re-delivered at the first nap to end at or
// after resendAt — not when the response finally lands — and a call nobody
// answers fails at the first nap to end at or after its deadline.
func TestReplyWaitTimersFireOnTick(t *testing.T) {
	run := func(deadlineNs int64, handler sim.Duration, body func(p *sim.Proc, r *testRig, cli *Client)) {
		r := newRig(t, 1, ServerConfig{})
		params := recoveryParams(deadlineNs)
		params.ForceReply = true
		cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
		r.srv.AddThreads(1)
		r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
			Serve(p, []*Conn{conn}, slowHandler(r.srv.Machine(), handler))
		})
		finished := false
		r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
			body(p, r, cli)
			finished = true
		})
		r.env.Run(sim.Time(sim.Millisecond))
		if !finished {
			t.Fatalf("deadline %d: the call never returned", deadlineNs)
		}
	}
	out := make([]byte, 64)
	poll := sim.Duration(DefaultParams().ReplyPollNs)

	// resendNs = 80 µs / 8 = 10 µs; the response lands after ~27 µs.
	run(80_000, sim.Micros(25), func(p *sim.Proc, r *testRig, cli *Client) {
		if err := cli.Send(p, []byte("resend")); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		resendAt := cli.slots[cli.call].resendAt
		tick := p.Now()
		for tick < resendAt {
			tick = tick.Add(poll)
		}
		if tick == resendAt {
			t.Errorf("resendAt %v does not fall between two naps (wait starts %v)", resendAt, p.Now())
		}
		r.env.At(tick-1, func() {
			if cli.Stats.Resends != 0 {
				t.Errorf("resent %d times before the nap ending at %v", cli.Stats.Resends, tick)
			}
		})
		r.env.At(tick+1, func() {
			if cli.Stats.Resends != 1 {
				t.Errorf("Resends = %d just after the first nap past resendAt (%v), want 1", cli.Stats.Resends, tick)
			}
		})
		if n, err := cli.Recv(p, out); err != nil || string(out[:n]) != "resend" {
			t.Errorf("Recv = (%q, %v)", out[:n], err)
		}
	})

	run(20_000, sim.Micros(200), func(p *sim.Proc, r *testRig, cli *Client) {
		if err := cli.Send(p, []byte("deadline")); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		deadline := cli.slots[cli.call].deadline
		_, err := cli.Recv(p, out)
		if late := p.Now().Sub(deadline); !errors.Is(err, ErrDeadline) || late < 0 || late >= poll {
			t.Errorf("Recv = %v at %v, want ErrDeadline within one %v nap of the deadline %v", err, p.Now(), poll, deadline)
		}
	})
}
