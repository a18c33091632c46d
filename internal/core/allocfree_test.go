package core

import (
	"testing"

	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

// TestSteadyStateCallsAllocFree is the RFP layer's allocation floor: once the
// flight pools, FIFO rings and calendar buckets under it are warm, a call
// costs the host no heap allocation whichever driver and mode carries it —
// Call by repeated fetching, Call by server-reply, Call across the hybrid
// mechanism's mode switches (the 1-byte flag write), the same with a live
// recorder taking each claimed call (spans off), and Post/Poll keeping a
// depth-8 ring full on each of two connections through a Group.
func TestSteadyStateCallsAllocFree(t *testing.T) {
	// callLoop drives synchronous calls; slowEvery > 0 marks runs of
	// slowEvery requests slow, then as many fast, so the handler's process
	// time flips the connection between the two modes.
	callLoop := func(t *testing.T, cli *Client, slowEvery int, calls *int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			req, out := make([]byte, 32), make([]byte, 64)
			for i := 0; ; i++ {
				req[0] = 0
				if slowEvery > 0 && i/slowEvery%2 == 0 {
					req[0] = 1
				}
				if _, err := cli.Call(p, req, out); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				*calls++
			}
		}
	}
	syncCalls := func(params Params, slowEvery int, rec *telemetry.Recorder) func(*testing.T, *testRig, *int) func() {
		return func(t *testing.T, r *testRig, calls *int) func() {
			cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
			cli.SetRecorder(rec)
			r.srv.AddThreads(1)
			r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
				Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
					if req[0] == 1 {
						r.srv.Machine().Compute(p, 30*sim.Microsecond)
					}
					return copy(resp, req)
				})
			})
			r.cluster.Clients[0].Spawn("cli", callLoop(t, cli, slowEvery, calls))
			return func() {
				st := cli.Stats
				switch {
				case params.ForceReply && st.ReplyDeliveries+1 < st.Calls: // one call is in flight
					t.Errorf("%d of %d calls delivered by server-reply, want all", st.ReplyDeliveries, st.Calls)
				case slowEvery == 0 && !params.ForceReply && st.ReplyDeliveries != 0:
					t.Errorf("%d calls delivered by server-reply, want none", st.ReplyDeliveries)
				case slowEvery > 0 && (st.SwitchToReply < 10 || st.SwitchToFetch < 10):
					t.Errorf("only %d switches to reply and %d back", st.SwitchToReply, st.SwitchToFetch)
				}
				if s := rec.Snapshot(); rec != nil && (s.Calls+1 < st.Calls || s.Writes < s.Calls || s.Fallbacks == 0) {
					t.Errorf("recorder saw %d calls of %d, %d writes, %d fallbacks", s.Calls, st.Calls, s.Writes, s.Fallbacks)
				}
			}
		}
	}
	forceReply := DefaultParams()
	forceReply.ForceReply = true

	drives := []struct {
		name  string
		build func(t *testing.T, r *testRig, calls *int) (check func())
	}{
		{"fetch", syncCalls(DefaultParams(), 0, nil)},
		{"reply", syncCalls(forceReply, 0, nil)},
		{"switching", syncCalls(DefaultParams(), 3, nil)},
		{"switching-recorded", syncCalls(DefaultParams(), 3, telemetry.New(telemetry.Config{}))},
		{"group-depth8", func(t *testing.T, r *testRig, calls *int) func() {
			const depth = 8
			params := DefaultParams()
			params.Depth = depth
			g := NewGroup()
			var clis []*Client
			for i := 0; i < 2; i++ {
				cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
				if err := g.Add(cli); err != nil {
					t.Fatal(err)
				}
				clis = append(clis, cli)
				r.srv.AddThreads(1)
				r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
					Serve(p, []*Conn{conn}, echoHandler)
				})
			}
			r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
				req, out := make([]byte, 32), make([]byte, 64)
				// Both rings stay full; handles are claimed oldest first,
				// alternating connections, from a fixed circular window.
				var hs [2 * depth]Handle
				for i := range hs {
					h, err := clis[i%2].Post(p, req)
					if err != nil {
						t.Errorf("post: %v", err)
						return
					}
					hs[i] = h
				}
				for i := 0; ; i = (i + 1) % len(hs) {
					if _, err := clis[i%2].Poll(p, hs[i], out); err != nil {
						t.Errorf("poll: %v", err)
						return
					}
					*calls++
					h, err := clis[i%2].Post(p, req)
					if err != nil {
						t.Errorf("post: %v", err)
						return
					}
					hs[i] = h
				}
			})
			return func() {}
		}},
	}
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			r := newRig(t, 1, ServerConfig{MaxRequest: 64, MaxResponse: 64})
			calls := 0
			check := d.build(t, r, &calls)
			// Warm the flight pools, the FIFO rings and the calendar, whose
			// 256 bucket arrays each grow to their own deepest fill: the
			// slowest drive here needs 10 ms for the last of them.
			r.env.Run(sim.Time(40 * sim.Millisecond))
			before := calls
			allocs := testing.AllocsPerRun(10, func() {
				r.env.Run(r.env.Now().Add(200 * sim.Microsecond))
			})
			if calls-before < 100 {
				t.Fatalf("only %d calls completed in the measured windows", calls-before)
			}
			check()
			if allocs != 0 {
				t.Fatalf("steady-state calls allocate %.1f objects per 200us window (%d calls), want 0",
					allocs, (calls-before)/11)
			}
		})
	}
}
