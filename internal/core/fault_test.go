package core

// Failure-injection and adversarial-condition tests for the RFP protocol:
// what happens when buffers are deregistered mid-flight, when responses
// race mode switches, when sequence numbers wrap, and when many clients
// hammer a single slow connection set.

import (
	"testing"

	"rfp/internal/rnic"
	"rfp/internal/sim"
)

func TestDeregisteredServerRegionFailsCalls(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	var firstErr, secondErr error
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		_, firstErr = cli.Call(p, []byte("ok"), out)
		conn.lease.Release() // simulate the server tearing down (dedicated lease: deregisters)
		_, secondErr = cli.Call(p, []byte("fails"), out)
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if firstErr != nil {
		t.Fatalf("first call: %v", firstErr)
	}
	if secondErr != rnic.ErrDeregister {
		t.Fatalf("second call err = %v, want ErrDeregister", secondErr)
	}
}

func TestSequenceWrapAround(t *testing.T) {
	// Force the 16-bit sequence close to wrap and verify calls stay
	// correct across the boundary.
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	cli.seq = 65530
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	ok := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 12; i++ { // crosses 65535 -> 0
			n, err := cli.Call(p, []byte{byte(i)}, out)
			if err != nil || n != 1 || out[0] != byte(i) {
				t.Errorf("call %d: n=%d err=%v", i, n, err)
				return
			}
			ok++
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if ok != 12 {
		t.Fatalf("%d/12 calls survived the wrap", ok)
	}
}

func TestStaleResponseNotMistaken(t *testing.T) {
	// The scenario the sequence field exists for: the client fetches
	// immediately after sending request N+1, while the response buffer
	// still holds response N with its status bit set. The stale bytes must
	// be rejected, not returned.
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.DisableSwitch = true
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	i := 0
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			i++
			// Make every second response slow so the old response sits in
			// the buffer while the client is already fetching for the new
			// sequence number.
			if i%2 == 0 {
				r.srv.Machine().Compute(p, sim.Micros(8))
			}
			resp[0] = byte(i)
			return 1
		})
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 8)
		for k := 1; k <= 10; k++ {
			n, err := cli.Call(p, []byte("x"), out)
			if err != nil || n != 1 {
				t.Errorf("call %d: %v", k, err)
				return
			}
			if int(out[0]) != k {
				t.Errorf("call %d returned stale response %d", k, out[0])
				return
			}
		}
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if cli.Stats.Retries == 0 {
		t.Fatal("slow responses should have produced fetch retries")
	}
}

func TestReplyModeSurvivesSwitchRace(t *testing.T) {
	// Stress the switch window: a server that alternates fast/slow phases
	// drives repeated mode flips; every call must still complete with the
	// right payload.
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	i := 0
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			i++
			if (i/10)%2 == 1 { // slow decade
				r.srv.Machine().Compute(p, sim.Micros(20))
			}
			resp[0] = byte(i)
			return 1
		})
	})
	completed := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 8)
		for k := 1; k <= 60; k++ {
			n, err := cli.Call(p, []byte("x"), out)
			if err != nil || n != 1 || int(out[0]) != k {
				t.Errorf("call %d: n=%d val=%d err=%v", k, n, out[0], err)
				return
			}
			completed++
		}
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if completed != 60 {
		t.Fatalf("%d/60 calls completed across mode flips", completed)
	}
	if cli.Stats.SwitchToReply == 0 || cli.Stats.SwitchToFetch == 0 {
		t.Fatalf("expected flips both ways: toReply=%d toFetch=%d",
			cli.Stats.SwitchToReply, cli.Stats.SwitchToFetch)
	}
}

func TestManyClientsOneServerThreadCorrectness(t *testing.T) {
	// 16 clients against one server thread: heavy pickup queueing, every
	// response must still reach its own caller (no cross-connection leaks).
	const n = 16
	r := newRig(t, n, ServerConfig{})
	clis := make([]*Client, n)
	var conns []*Conn
	for i := 0; i < n; i++ {
		cli, conn := r.srv.Accept(r.cluster.Clients[i%len(r.cluster.Clients)], DefaultParams())
		clis[i] = cli
		conns = append(conns, conn)
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, conns, echoHandler)
	})
	done := 0
	for i := 0; i < n; i++ {
		i := i
		cli := clis[i]
		r.cluster.Clients[i%len(r.cluster.Clients)].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 64)
			for k := 0; k < 40; k++ {
				msg := []byte{byte(i), byte(k), 0xAB}
				nn, err := cli.Call(p, msg, out)
				if err != nil || nn != 3 || out[0] != byte(i) || out[1] != byte(k) {
					t.Errorf("client %d call %d: cross-connection corruption (%v, % x)", i, k, err, out[:nn])
					return
				}
				done++
			}
		})
	}
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if done != n*40 {
		t.Fatalf("%d/%d calls completed", done, n*40)
	}
}

func TestNoInlineStillCorrect(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.NoInline = true
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	var got []byte
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		n, err := cli.Call(p, []byte("probe-mode"), out)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if string(got) != "probe-mode" {
		t.Fatalf("got %q", got)
	}
	// Every successful no-inline fetch costs a header read + payload read.
	if cli.Stats.SecondReads != 1 {
		t.Fatalf("SecondReads = %d, want 1", cli.Stats.SecondReads)
	}
}
