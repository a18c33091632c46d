package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

// TestResentRequestRunsOnce: a request re-delivered after its response was
// published does not run the handler again (at-most-once execution, Conn.TryRecv).
// In fetch mode the published response is simply fetched; in reply mode the
// stored response is pushed again. The first call carries seq 0 (the
// sequence wrapped), which an empty record must not match, and a reconnect
// empties the record.
func TestResentRequestRunsOnce(t *testing.T) {
	for _, reply := range []bool{false, true} {
		t.Run(fmt.Sprintf("reply=%v", reply), func(t *testing.T) {
			r := newRig(t, 1, ServerConfig{})
			params := DefaultParams()
			params.ForceReply = reply
			params.DeadlineNs = 1_000_000
			cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
			r.srv.AddThreads(1)
			runs := 0
			r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
				Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
					runs++
					return copy(resp, req)
				})
			})
			cli.seq = math.MaxUint16 // the first request carries seq 0
			r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
				h, err := cli.Post(p, []byte("once"))
				if err != nil || h.seq != 0 {
					t.Errorf("post: seq %d, err %v; want seq 0", h.seq, err)
					return
				}
				p.Sleep(20 * sim.Microsecond) // served and published
				if runs != 1 {
					t.Errorf("before the resend: %d runs, want 1", runs)
				}
				cli.repostSend(p, h.slot) // the resend timer's re-delivery
				out := make([]byte, 16)
				if n, err := cli.Poll(p, h, out); err != nil || string(out[:n]) != "once" {
					t.Errorf("poll: %q, %v", out[:n], err)
				}
				p.Sleep(20 * sim.Microsecond) // the resend reaches the server
				if err := cli.reconnect(p); err != nil {
					t.Errorf("reconnect: %v", err)
				}
			})
			r.env.Run(sim.Time(sim.Millisecond))
			if runs != 1 {
				t.Fatalf("handler ran %d times for one request and its resend, want 1", runs)
			}
			wantPushes := uint64(0)
			if reply {
				wantPushes = 2 // the response, and once more for the resend
			}
			if conn.ServedReply != wantPushes || cli.Stats.Calls != 1 {
				t.Fatalf("pushes = %d, calls = %d; want %d, 1", conn.ServedReply, cli.Stats.Calls, wantPushes)
			}
			for s, v := range conn.ran {
				if v != 0 {
					t.Fatalf("slot %d still records seq %d after the reconnect", s, v&0xffff)
				}
			}
		})
	}
}

// TestLateWriteCounted: a resend's Write that completes after its call's
// response has validated, but before the call is claimed, still counts as
// the call's verb. Call 0 is served and its response pushed before a
// resend re-delivers it; call 1 is posted behind the resend, so polling it
// validates call 0 from its landing, then reaps the resend's completion.
// The recorder must see all three Writes, and Stats must count the resend
// nowhere but in Writes.
func TestLateWriteCounted(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.ForceReply = true
	params.Depth = 2
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	rec := telemetry.New(telemetry.Config{})
	cli.SetRecorder(rec)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) { Serve(p, []*Conn{conn}, echoHandler) })
	var late slotPhase
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		h0, err := cli.Post(p, []byte("zero"))
		if err != nil {
			t.Errorf("post 0: %v", err)
			return
		}
		p.Sleep(20 * sim.Microsecond) // served and pushed
		cli.repostSend(p, h0.slot)    // the resend timer's re-delivery
		h1, err := cli.Post(p, []byte("one"))
		if err != nil {
			t.Errorf("post 1: %v", err)
			return
		}
		out := make([]byte, 16)
		if n, err := cli.Poll(p, h1, out); err != nil || string(out[:n]) != "one" {
			t.Errorf("poll 1: %q, %v", out[:n], err)
		}
		late = cli.slots[h0.slot].state
		if n, err := cli.Poll(p, h0, out); err != nil || string(out[:n]) != "zero" {
			t.Errorf("poll 0: %q, %v", out[:n], err)
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if late != slotReady {
		t.Fatalf("call 0 in phase %d while call 1 was polled, want ready (%d): the resend did not complete late", late, slotReady)
	}
	if s := rec.Snapshot(); s.Calls != 2 || s.Writes != 3 || s.Reads != 0 {
		t.Fatalf("recorder: %d calls, %d writes, %d reads; want 2, 3 (two posts and the resend), 0", s.Calls, s.Writes, s.Reads)
	}
	if st := cli.Stats; st.Calls != 2 || st.ReplyDeliveries != 2 || st.FetchReads != 0 || st.Resends != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRingSwitchesWithSlotsInFlight: a depth-4 ring kept full — a claim
// for every post, never drained — switches to server-reply while other
// calls are in flight, the new posts carry reply while the older ones
// finish fetching, and a short process time switches it back, again
// without the ring emptying.
func TestRingSwitchesWithSlotsInFlight(t *testing.T) {
	const depth = 4
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	slow := true
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			if slow {
				r.srv.Machine().Compute(p, 40*sim.Microsecond)
			}
			return copy(resp, req)
		})
	})
	var toReplyAt, toFetchAt int = -1, -1 // ring occupancy when each switch was seen
	mixed := false                        // a reply-mode post beside a fetch-mode one
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		var ring []Handle
		out := make([]byte, 64)
		for i := 0; i < 60; i++ {
			if i == 30 {
				slow = false
			}
			h, err := cli.Post(p, []byte(fmt.Sprintf("op-%d", i)))
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			ring = append(ring, h)
			for _, o := range ring {
				if cli.slots[o.slot].mode != cli.slots[h.slot].mode {
					mixed = true
				}
			}
			if len(ring) < depth {
				continue
			}
			before := cli.Stats
			if _, err := cli.Poll(p, ring[0], out); err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			ring = ring[1:]
			if cli.Stats.SwitchToReply > before.SwitchToReply && toReplyAt < 0 {
				toReplyAt = cli.outstanding
			}
			if cli.Stats.SwitchToFetch > before.SwitchToFetch && toFetchAt < 0 {
				toFetchAt = cli.outstanding
			}
		}
	})
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if toReplyAt < 1 || toFetchAt < 1 {
		t.Fatalf("switches seen with %d (to reply) and %d (to fetch) calls still in flight; want both ≥ 1 (-1: none)",
			toReplyAt, toFetchAt)
	}
	if !mixed {
		t.Fatal("no post carried a mode other than a call still in flight")
	}
	if cli.Mode() != ModeFetch || cli.Stats.ReplyDeliveries == 0 {
		t.Fatalf("mode %v, %d reply deliveries; want fetch after the fast phase, > 0", cli.Mode(), cli.Stats.ReplyDeliveries)
	}
}

// TestHandlerOwnsRequest: a handler that yields still reads its own
// request. The client's call fails at its deadline while the handler runs,
// which frees the slot, and the next call is written into that same slot
// before the handler reads req.
func TestHandlerOwnsRequest(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], recoveryParams(40_000))
	r.srv.AddThreads(1)
	var seen []string
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			if len(seen) == 0 {
				r.srv.Machine().ComputeNs(p, 50_000) // outlives the 40 µs deadline
			}
			seen = append(seen, string(req))
			return copy(resp, req)
		})
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 16)
		if _, err := cli.Call(p, []byte("first"), out); !errors.Is(err, ErrDeadline) {
			t.Errorf("first call: err %v, want ErrDeadline", err)
			return
		}
		if n, err := cli.Call(p, []byte("second"), out); err != nil || string(out[:n]) != "second" {
			t.Errorf("second call: %q, %v", out[:n], err)
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if len(seen) != 2 || seen[0] != "first" || seen[1] != "second" {
		t.Fatalf("handlers read %q, want [first second]", seen)
	}
}
