package core

import (
	"testing"

	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

func TestCloseStopsClientCalls(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	var before, after error
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		_, before = cli.Call(p, []byte("a"), out)
		if err := cli.Close(p); err != nil {
			t.Errorf("Close: %v", err)
			return
		}
		_, after = cli.Call(p, []byte("b"), out)
		if err := cli.Close(p); err != nil { // idempotent
			t.Errorf("second Close: %v", err)
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if before != nil {
		t.Fatalf("call before close: %v", before)
	}
	if after != ErrClosed {
		t.Fatalf("call after close err = %v, want ErrClosed", after)
	}
	if !conn.Closed() {
		t.Fatal("server-side flag not marked closed")
	}
}

func TestServeRetiresWhenAllConnsClose(t *testing.T) {
	r := newRig(t, 2, ServerConfig{})
	cliA, connA := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	cliB, connB := r.srv.Accept(r.cluster.Clients[1], DefaultParams())
	r.srv.AddThreads(1)
	served := 0
	retired := false
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{connA, connB}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			served++
			return copy(resp, req)
		})
		retired = true
	})
	r.cluster.Clients[0].Spawn("cliA", func(p *sim.Proc) {
		out := make([]byte, 8)
		_, _ = cliA.Call(p, []byte("a"), out)
		_ = cliA.Close(p)
	})
	r.cluster.Clients[1].Spawn("cliB", func(p *sim.Proc) {
		out := make([]byte, 8)
		_, _ = cliB.Call(p, []byte("b"), out)
		p.Sleep(sim.Micros(50))
		_ = cliB.Close(p)
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if served != 2 {
		t.Fatalf("served %d", served)
	}
	if !retired {
		t.Fatal("Serve did not return after all connections closed")
	}
}

func TestClosedConnNotPolled(t *testing.T) {
	// A closed connection must not consume serve cycles — the remaining
	// client still gets full service.
	r := newRig(t, 2, ServerConfig{})
	cliA, connA := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	cliB, connB := r.srv.Accept(r.cluster.Clients[1], DefaultParams())
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{connA, connB}, echoHandler)
	})
	ok := 0
	r.cluster.Clients[0].Spawn("cliA", func(p *sim.Proc) {
		_ = cliA.Close(p)
	})
	r.cluster.Clients[1].Spawn("cliB", func(p *sim.Proc) {
		out := make([]byte, 8)
		for i := 0; i < 50; i++ {
			if _, err := cliB.Call(p, []byte{byte(i)}, out); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			ok++
		}
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if ok != 50 {
		t.Fatalf("%d/50 calls after peer closed", ok)
	}
}

// breakdown makes calls echo calls on a fresh rig with a recorder attached
// and returns what it recorded: a call's legs reach the recorder only from
// its slot's timestamps, at the claim.
func breakdown(t *testing.T, params Params, calls int) telemetry.Snapshot {
	t.Helper()
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	rec := telemetry.New(telemetry.Config{})
	cli.SetRecorder(rec)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < calls; i++ {
			if _, err := cli.Call(p, []byte("x"), out); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	s := rec.Snapshot()
	if s.Calls != uint64(calls) || cli.Stats.Calls != uint64(calls) {
		t.Fatalf("recorded %d calls, Stats counts %d, want %d", s.Calls, cli.Stats.Calls, calls)
	}
	return s
}

func TestLatencyBreakdownAccumulates(t *testing.T) {
	s := breakdown(t, DefaultParams(), 20)
	if s.FetchCalls != 20 || s.ReplyLeg.Count != 0 || s.ReplyLeg.Sum != 0 {
		t.Fatalf("fetch-mode calls: %d fetch, %d reply (%d ns)", s.FetchCalls, s.ReplyLeg.Count, s.ReplyLeg.Sum)
	}
	// Per-call send ~1.5us, fetch ~1.7us on an idle rig.
	perSend := float64(s.Send.Sum) / float64(s.Calls)
	perFetch := float64(s.FetchLeg.Sum) / float64(s.Calls)
	if perSend < 1000 || perSend > 2500 {
		t.Fatalf("send = %.0f ns/call", perSend)
	}
	if perFetch < 1200 || perFetch > 3000 {
		t.Fatalf("fetch = %.0f ns/call", perFetch)
	}
	if s.Total.Sum != s.Send.Sum+s.FetchLeg.Sum {
		t.Fatalf("legs %d + %d ns do not sum to the total %d", s.Send.Sum, s.FetchLeg.Sum, s.Total.Sum)
	}
}

func TestBreakdownReplyMode(t *testing.T) {
	params := DefaultParams()
	params.ForceReply = true
	s := breakdown(t, params, 10)
	if s.ReplyCalls != 10 || s.ReplyLeg.Sum <= 0 {
		t.Fatalf("reply-mode calls: %d reply, %d ns", s.ReplyCalls, s.ReplyLeg.Sum)
	}
	if s.FetchLeg.Count != 0 || s.FetchLeg.Sum != 0 {
		t.Fatalf("ForceReply should never fetch: %d calls, %d ns", s.FetchLeg.Count, s.FetchLeg.Sum)
	}
	if s.Send.Sum <= 0 || s.Total.Sum != s.Send.Sum+s.ReplyLeg.Sum {
		t.Fatalf("legs send %d + reply %d ns, total %d", s.Send.Sum, s.ReplyLeg.Sum, s.Total.Sum)
	}
}
