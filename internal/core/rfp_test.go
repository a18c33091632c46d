package core

import (
	"bytes"
	"fmt"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
)

// testRig is a one-server/n-client-machine harness for RFP tests.
type testRig struct {
	env     *sim.Env
	cluster *fabric.Cluster
	srv     *Server
}

func newRig(t *testing.T, clients int, cfg ServerConfig) *testRig {
	t.Helper()
	env := sim.NewEnv(7)
	t.Cleanup(env.Close)
	cl := fabric.NewCluster(env, hw.ConnectX3(), clients)
	return &testRig{env: env, cluster: cl, srv: NewServer(cl.Server, cfg)}
}

func echoHandler(p *sim.Proc, c *Conn, req, resp []byte) int {
	return copy(resp, req)
}

// slowHandler returns an echo handler that charges d of CPU per request.
func slowHandler(m *fabric.Machine, d sim.Duration) Handler {
	return func(p *sim.Proc, c *Conn, req, resp []byte) int {
		m.Compute(p, d)
		return copy(resp, req)
	}
}

func TestEchoCall(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	var got []byte
	var n int
	var err error
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 128)
		n, err = cli.Call(p, []byte("ping-payload"), out)
		got = out[:n]
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "ping-payload" {
		t.Fatalf("echo = %q", got)
	}
	if cli.Stats.Calls != 1 {
		t.Fatalf("Calls = %d", cli.Stats.Calls)
	}
	if conn.ServedFetch != 1 || conn.ServedReply != 0 {
		t.Fatalf("served fetch=%d reply=%d", conn.ServedFetch, conn.ServedReply)
	}
}

func TestManySequentialCalls(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	ok := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 200; i++ {
			req := []byte(fmt.Sprintf("msg-%03d", i))
			n, err := cli.Call(p, req, out)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(out[:n], req) {
				t.Errorf("call %d: got %q want %q", i, out[:n], req)
				return
			}
			ok++
		}
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if ok != 200 {
		t.Fatalf("completed %d/200 calls", ok)
	}
}

func TestEmptyRequestAndResponse(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int { return 0 })
	})
	var n int
	var err error
	done := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		n, err = cli.Call(p, nil, make([]byte, 8))
		done = true
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !done || err != nil || n != 0 {
		t.Fatalf("done=%v n=%d err=%v", done, n, err)
	}
}

func TestOversizeRequestRejected(t *testing.T) {
	r := newRig(t, 1, ServerConfig{MaxRequest: 64})
	cli, _ := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	var err error
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		err = cli.Send(p, make([]byte, 65))
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if err == nil {
		t.Fatal("oversize request accepted")
	}
}

func TestOversizeResponseRejected(t *testing.T) {
	r := newRig(t, 1, ServerConfig{MaxResponse: 64})
	_, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	var err error
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		err = conn.Send(p, make([]byte, 65))
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if err == nil {
		t.Fatal("oversize response accepted")
	}
}

func TestSecondReadForLargeResponse(t *testing.T) {
	r := newRig(t, 1, ServerConfig{MaxResponse: 4096})
	params := DefaultParams()
	params.F = 256
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	big := bytes.Repeat([]byte{0xAB}, 1500)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			return copy(resp, big)
		})
	})
	var got []byte
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 4096)
		n, err := cli.Call(p, []byte("x"), out)
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		got = out[:n]
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !bytes.Equal(got, big) {
		t.Fatalf("large response corrupted: %d bytes", len(got))
	}
	if cli.Stats.SecondReads != 1 {
		t.Fatalf("SecondReads = %d, want 1", cli.Stats.SecondReads)
	}
}

func TestNoSecondReadWhenFCovers(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.F = 256
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			return copy(resp, bytes.Repeat([]byte{1}, 248)) // 248+8 == F
		})
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 256)
		if _, err := cli.Call(p, []byte("x"), out); err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if cli.Stats.SecondReads != 0 {
		t.Fatalf("SecondReads = %d, want 0", cli.Stats.SecondReads)
	}
}

// TestFetchSizeAppliesPerCall: a call reads with the F it was posted with.
// One call posted at F = 64, a second posted after SetFetchSize(1024), both
// answered with 500 B: only the first needs a continuation read.
func TestFetchSizeAppliesPerCall(t *testing.T) {
	r := newRig(t, 1, ServerConfig{MaxResponse: 2048})
	params := DefaultParams()
	params.F = 64
	params.Depth = 2
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	val := bytes.Repeat([]byte{0x5A}, 500)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			return copy(resp, val)
		})
	})
	ok := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 2048)
		h1, err := cli.Post(p, []byte("a"))
		if err != nil {
			t.Errorf("post at F=64: %v", err)
			return
		}
		cli.SetFetchSize(1024)
		if f := cli.Params().F; f != 1024 {
			t.Errorf("F = %d with a call in flight, want 1024", f)
		}
		h2, err := cli.Post(p, []byte("b"))
		if err != nil {
			t.Errorf("post at F=1024: %v", err)
			return
		}
		for i, h := range []Handle{h1, h2} {
			n, err := cli.Poll(p, h, out)
			if err != nil || !bytes.Equal(out[:n], val) {
				t.Errorf("poll %d: %d bytes, err %v", i, n, err)
				return
			}
			if cli.Stats.SecondReads != 1 {
				t.Errorf("SecondReads = %d after claim %d, want 1", cli.Stats.SecondReads, i)
				return
			}
		}
		ok = true
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

func TestRetriesUnderSlowServer(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.DisableSwitch = true
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, slowHandler(r.srv.Machine(), sim.Micros(10)))
	})
	calls := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 10; i++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			calls++
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if calls != 10 {
		t.Fatalf("calls = %d", calls)
	}
	if cli.Stats.Retries == 0 {
		t.Fatal("a 10us server should force fetch retries")
	}
	if cli.Stats.SwitchToReply != 0 {
		t.Fatal("DisableSwitch must prevent mode switches")
	}
	if cli.Stats.MaxRetries <= params.R {
		t.Fatalf("MaxRetries = %d, want > R with switching disabled", cli.Stats.MaxRetries)
	}
}

func TestHybridSwitchesToReplyAfterKOverruns(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams() // K = 2
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, slowHandler(r.srv.Machine(), sim.Micros(25)))
	})
	calls := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 6; i++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			calls++
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if calls != 6 {
		t.Fatalf("calls = %d", calls)
	}
	if cli.Stats.SwitchToReply != 1 {
		t.Fatalf("SwitchToReply = %d, want exactly 1", cli.Stats.SwitchToReply)
	}
	if cli.Mode() != ModeReply {
		t.Fatalf("mode = %v, want reply under persistent 25us processing", cli.Mode())
	}
	if cli.Stats.ReplyDeliveries == 0 {
		t.Fatal("no reply-mode deliveries recorded")
	}
	if conn.ServedReply == 0 {
		t.Fatal("server never pushed a reply")
	}
	if cli.Stats.IdleNs == 0 {
		t.Fatal("reply-mode waiting should accumulate idle time")
	}
}

func TestSingleSlowCallDoesNotSwitch(t *testing.T) {
	// Paper Sec. 3.2 Discussion: one isolated slow request must not flap
	// the mode; only K consecutive overruns do.
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	i := 0
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			i++
			if i == 3 { // one isolated spike
				r.srv.Machine().Compute(p, sim.Micros(30))
			}
			return copy(resp, req)
		})
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := 0; k < 10; k++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("Call: %v", err)
				return
			}
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if cli.Stats.SwitchToReply != 0 {
		t.Fatalf("isolated spike caused %d switches", cli.Stats.SwitchToReply)
	}
	if cli.Stats.MaxRetries == 0 {
		t.Fatal("spike should have caused retries")
	}
}

func TestSwitchBackWhenServerSpeedsUp(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	r.srv.AddThreads(1)
	slow := true
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			if slow {
				r.srv.Machine().Compute(p, sim.Micros(25))
			}
			return copy(resp, req)
		})
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := 0; k < 8; k++ { // drive into reply mode
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("%v", err)
				return
			}
		}
		if cli.Mode() != ModeReply {
			t.Error("not in reply mode after slow phase")
		}
		slow = false
		for k := 0; k < 8; k++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("%v", err)
				return
			}
		}
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if cli.Stats.SwitchToFetch == 0 {
		t.Fatal("client never switched back to fetch mode")
	}
	if cli.Mode() != ModeFetch {
		t.Fatalf("final mode = %v, want fetch after fast phase", cli.Mode())
	}
}

func TestForceReplyBaseline(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.ForceReply = true
	params.ReplyPollNs = 200
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	calls := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := 0; k < 20; k++ {
			n, err := cli.Call(p, []byte("sr"), out)
			if err != nil || n != 2 {
				t.Errorf("call: n=%d err=%v", n, err)
				return
			}
			calls++
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if calls != 20 {
		t.Fatalf("calls = %d", calls)
	}
	if conn.ServedReply != 20 || conn.ServedFetch != 0 {
		t.Fatalf("served reply=%d fetch=%d, want all reply", conn.ServedReply, conn.ServedFetch)
	}
	if cli.Stats.FetchReads != 0 {
		t.Fatalf("ForceReply client issued %d fetch reads", cli.Stats.FetchReads)
	}
	if cli.Stats.SwitchToFetch != 0 {
		t.Fatal("ForceReply must never switch")
	}
}

// TestModeFlagVisibleToServer: a ForceReply client's mode reaches the
// server with its very first request — the request header carries it — so
// the first response is pushed, not left in the server's buffer to be
// fetched.
func TestModeFlagVisibleToServer(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.ForceReply = true
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if n, err := cli.Call(p, []byte("first"), make([]byte, 64)); err != nil || n != 5 {
			t.Errorf("first call: n=%d err=%v", n, err)
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if conn.ServedReply != 1 || conn.ServedFetch != 0 || cli.Stats.FetchReads != 0 || cli.Stats.ReplyDeliveries != 1 {
		t.Fatalf("first response: pushed=%d buffered=%d fetch reads=%d reply deliveries=%d; want 1, 0, 0, 1",
			conn.ServedReply, conn.ServedFetch, cli.Stats.FetchReads, cli.Stats.ReplyDeliveries)
	}
}

func TestServeMultipleConnsOneThread(t *testing.T) {
	const nClients = 4
	r := newRig(t, nClients, ServerConfig{})
	var conns []*Conn
	var clis []*Client
	for i := 0; i < nClients; i++ {
		cli, conn := r.srv.Accept(r.cluster.Clients[i], DefaultParams())
		clis = append(clis, cli)
		conns = append(conns, conn)
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, conns, echoHandler)
	})
	done := 0
	for i := 0; i < nClients; i++ {
		i := i
		r.cluster.Clients[i].AddThreads(1)
		r.cluster.Clients[i].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 64)
			for k := 0; k < 50; k++ {
				req := []byte(fmt.Sprintf("c%d-%d", i, k))
				n, err := clis[i].Call(p, req, out)
				if err != nil || !bytes.Equal(out[:n], req) {
					t.Errorf("client %d call %d: %q err=%v", i, k, out[:n], err)
					return
				}
			}
			done++
		})
	}
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if done != nClients {
		t.Fatalf("%d/%d clients finished", done, nClients)
	}
}

func TestConnIDsSequential(t *testing.T) {
	r := newRig(t, 3, ServerConfig{})
	for i := 0; i < 3; i++ {
		_, conn := r.srv.Accept(r.cluster.Clients[i], DefaultParams())
		if conn.ID() != i {
			t.Fatalf("conn id = %d, want %d", conn.ID(), i)
		}
	}
	if len(r.srv.conns) != 3 {
		t.Fatalf("%d conns accepted, want 3", len(r.srv.conns))
	}
}

func TestSetFetchSizeClamped(t *testing.T) {
	r := newRig(t, 1, ServerConfig{MaxResponse: 512})
	cli, _ := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	cli.SetFetchSize(10_000)
	if cli.Params().F != HeaderSize+512 {
		t.Fatalf("F = %d, want clamped to %d", cli.Params().F, HeaderSize+512)
	}
	cli.SetFetchSize(0)
	if cli.Params().F != HeaderSize+1 {
		t.Fatalf("F = %d, want floor", cli.Params().F)
	}
}

func TestAcceptClampsF(t *testing.T) {
	r := newRig(t, 1, ServerConfig{MaxResponse: 100})
	params := DefaultParams()
	params.F = 4096
	cli, _ := r.srv.Accept(r.cluster.Clients[0], params)
	if cli.Params().F != HeaderSize+100 {
		t.Fatalf("F = %d", cli.Params().F)
	}
}
