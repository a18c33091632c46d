package core

import (
	"errors"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/rnic"
	"rfp/internal/sim"
)

// poolCfg is a small pooled server configuration for tests: one or few QPs,
// slab-carved regions.
func poolCfg(qps int) ServerConfig {
	return ServerConfig{Pool: PoolConfig{QPs: qps, SlabBytes: 64 << 10}}
}

// misrouted sums the demux drops of the rig's client NICs (the table and its
// count live on the NIC that reaps).
func (r *testRig) misrouted() uint64 {
	var n uint64
	for _, m := range r.cluster.Clients {
		n += m.NIC().Misrouted
	}
	return n
}

// TestPooledEchoEndToEnd: many logical clients over a 2-QP pool make
// interleaved sync calls; every response reaches its own caller and the
// transport stays at pool-sized QP counts.
func TestPooledEchoEndToEnd(t *testing.T) {
	const n = 12
	r := newRig(t, 2, poolCfg(2))
	clis := make([]*Client, n)
	var conns []*Conn
	for i := 0; i < n; i++ {
		cli, conn, err := r.srv.TryAccept(r.cluster.Clients[i%2], DefaultParams())
		if err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		clis[i] = cli
		conns = append(conns, conn)
	}
	if got := r.srv.Pool().Leases(); got != n {
		t.Fatalf("pool leases = %d, want %d", got, n)
	}
	// 2 client machines x 2 QPs per peer: at most 4 endpoints.
	if got := r.srv.Pool().Endpoints(); got > 4 {
		t.Fatalf("pool endpoints = %d, want <= 4", got)
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, conns, echoHandler)
	})
	done := 0
	for i := 0; i < n; i++ {
		i := i
		cli := clis[i]
		r.cluster.Clients[i%2].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 64)
			for k := 0; k < 25; k++ {
				msg := []byte{0xC0, byte(i), byte(k)}
				nn, err := cli.Call(p, msg, out)
				if err != nil || nn != 3 || out[1] != byte(i) || out[2] != byte(k) {
					t.Errorf("client %d call %d: (%v, % x)", i, k, err, out[:nn])
					return
				}
				done++
			}
		})
	}
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if done != n*25 {
		t.Fatalf("%d/%d calls completed", done, n*25)
	}
	if n := r.misrouted(); n != 0 {
		t.Fatalf("misrouted completions: %d", n)
	}
}

// TestPooledPipelinedCalls: the ring path (Post/Poll) works through a shared
// endpoint's demuxed CQ, two clients pipelining on the same QP.
func TestPooledPipelinedCalls(t *testing.T) {
	r := newRig(t, 1, poolCfg(1))
	params := DefaultParams()
	params.Depth = 4
	a, ca := r.srv.Accept(r.cluster.Clients[0], params)
	b, cb := r.srv.Accept(r.cluster.Clients[0], params)
	if ae, be := a.lease.Endpoint(), b.lease.Endpoint(); ae != be {
		t.Fatal("QPs=1 clients landed on different endpoints")
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{ca, cb}, echoHandler)
	})
	run := func(cli *Client, mark byte, count *int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			out := make([]byte, 64)
			for k := 0; k < 10; k++ {
				var hs []Handle
				for j := 0; j < 4; j++ {
					h, err := cli.Post(p, []byte{mark, byte(k), byte(j)})
					if err != nil {
						t.Errorf("post: %v", err)
						return
					}
					hs = append(hs, h)
				}
				for j, h := range hs {
					n, err := cli.Poll(p, h, out)
					if err != nil || n != 3 || out[0] != mark || out[2] != byte(j) {
						t.Errorf("poll %c/%d/%d: (%v, % x)", mark, k, j, err, out[:n])
						return
					}
					*count++
				}
			}
		}
	}
	var na, nb int
	r.cluster.Clients[0].Spawn("cliA", run(a, 'A', &na))
	r.cluster.Clients[0].Spawn("cliB", run(b, 'B', &nb))
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if na != 40 || nb != 40 {
		t.Fatalf("completed A=%d B=%d, want 40/40", na, nb)
	}
	if n := r.misrouted(); n != 0 {
		t.Fatalf("misrouted completions: %d", n)
	}
}

// TestGroupTagCapacityGuard: overflowing the client NIC's WR-ID tag space is
// a typed error at TryAccept — whichever server the connection leads to —
// never a silent alias of two logical clients onto one tag.
func TestGroupTagCapacityGuard(t *testing.T) {
	env := sim.NewEnv(7)
	t.Cleanup(env.Close)
	cl := newTwoServerCluster(env)
	cl.client.NIC().SetTagLimit(2)
	srvA := NewServer(cl.serverA, ServerConfig{})
	srvB := NewServer(cl.serverB, poolCfg(1))
	if _, _, err := srvA.TryAccept(cl.client, DefaultParams()); err != nil {
		t.Fatalf("first accept: %v", err)
	}
	if _, _, err := srvB.TryAccept(cl.client, DefaultParams()); err != nil {
		t.Fatalf("second accept: %v", err)
	}
	for name, srv := range map[string]*Server{"A": srvA, "B": srvB} {
		if _, _, err := srv.TryAccept(cl.client, DefaultParams()); !errors.Is(err, rnic.ErrTagSpace) {
			t.Fatalf("third accept from server %s: err = %v, want rnic.ErrTagSpace", name, err)
		}
		if got := srv.Slabs().Leases(); got != 1 {
			t.Fatalf("server %s holds %d region leases after the refused accept, want 1", name, got)
		}
	}
}

// TestGroupCrossPoolTags: two servers' leases to one client machine carry
// different tags from Accept on (the client NIC allocates them), so joining
// a group re-leases nothing and fan-out calls route correctly.
func TestGroupCrossPoolTags(t *testing.T) {
	env := sim.NewEnv(7)
	t.Cleanup(env.Close)
	cl := newTwoServerCluster(env)
	srvA := NewServer(cl.serverA, poolCfg(1))
	srvB := NewServer(cl.serverB, ServerConfig{})
	cliA, connA := srvA.Accept(cl.client, DefaultParams())
	cliB, connB := srvB.Accept(cl.client, DefaultParams())
	if cliA.tag == cliB.tag {
		t.Fatalf("leases of one client machine share tag %#x at Accept", cliA.tag)
	}
	tagA, tagB := cliA.tag, cliB.tag
	g := NewGroup()
	if err := g.Add(cliA); err != nil {
		t.Fatalf("add A: %v", err)
	}
	if err := g.Add(cliB); err != nil {
		t.Fatalf("add B: %v", err)
	}
	if cliA.tag != tagA || cliB.tag != tagB || srvA.Pool().Leases() != 1 || srvB.Pool().Leases() != 1 {
		t.Fatalf("Add re-leased: tags %#x/%#x -> %#x/%#x, leases A=%d B=%d",
			tagA, tagB, cliA.tag, cliB.tag, srvA.Pool().Leases(), srvB.Pool().Leases())
	}
	srvA.AddThreads(1)
	srvB.AddThreads(1)
	cl.serverA.Spawn("srvA", func(p *sim.Proc) { Serve(p, []*Conn{connA}, echoHandler) })
	cl.serverB.Spawn("srvB", func(p *sim.Proc) { Serve(p, []*Conn{connB}, echoHandler) })
	done := 0
	cl.client.Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := 0; k < 20; k++ {
			ha, err := cliA.Post(p, []byte{'a', byte(k)})
			if err != nil {
				t.Errorf("post A: %v", err)
				return
			}
			hb, err := cliB.Post(p, []byte{'b', byte(k)})
			if err != nil {
				t.Errorf("post B: %v", err)
				return
			}
			if n, err := cliA.Poll(p, ha, out); err != nil || out[0] != 'a' || n != 2 {
				t.Errorf("poll A: (%v, % x)", err, out[:n])
				return
			}
			if n, err := cliB.Poll(p, hb, out); err != nil || out[0] != 'b' || n != 2 {
				t.Errorf("poll B: (%v, % x)", err, out[:n])
				return
			}
			done++
		}
		// Close leaves the group: the freed tag must not keep a member slot.
		if err := cliA.Close(p); err != nil {
			t.Errorf("close A: %v", err)
		}
	})
	env.Run(sim.Time(20 * sim.Millisecond))
	if done != 20 {
		t.Fatalf("%d/20 fan-out rounds completed", done)
	}
	if n := cl.client.NIC().Misrouted; n != 0 {
		t.Fatalf("misrouted: %d", n)
	}
	if len(g.members) != 1 || g.members[0] != cliB || cliA.group != nil {
		t.Fatalf("closed member still in its group: %d members, tag %#x", len(g.members), tagA)
	}
}

// unifiedRun drives the same mixed load — a sync client, a depth-4 pipelined
// client, and a two-server depth-4 fan-out group on a second machine — under
// the given pool geometry, returning per-client op counts and the kernel's
// event digest.
func unifiedRun(t *testing.T, pool PoolConfig) ([]int, uint64) {
	env := sim.NewEnv(7)
	defer env.Close()
	env.EnableKernelTrace()
	prof := hw.ConnectX3()
	srvMs := []*fabric.Machine{fabric.NewMachine(env, "serverA", prof), fabric.NewMachine(env, "serverB", prof)}
	cliMs := []*fabric.Machine{fabric.NewMachine(env, "client0", prof), fabric.NewMachine(env, "client1", prof)}
	deep := DefaultParams()
	deep.Depth = 4
	var srvs []*Server
	var conns [2][]*Conn
	accept := func(s int, cm *fabric.Machine, pr Params) *Client {
		cli, conn := srvs[s].Accept(cm, pr)
		conns[s] = append(conns[s], conn)
		return cli
	}
	for _, m := range srvMs {
		srvs = append(srvs, NewServer(m, ServerConfig{Pool: pool}))
	}
	syncCli := accept(0, cliMs[0], DefaultParams())
	pipeCli := accept(0, cliMs[0], deep)
	fan := []*Client{accept(0, cliMs[1], deep), accept(1, cliMs[1], deep)}
	g := NewGroup()
	for _, c := range fan {
		if err := g.Add(c); err != nil {
			t.Fatalf("group add: %v", err)
		}
	}
	for s, m := range srvMs {
		own := conns[s]
		srvs[s].AddThreads(1)
		m.Spawn("srv", func(p *sim.Proc) { Serve(p, own, echoHandler) })
	}
	ops := make([]int, 4)
	pipelined := func(clis []*Client, counts []int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			out := make([]byte, 64)
			hs := make([]Handle, 4)
			for k := 0; ; k++ {
				for i, c := range clis {
					for j := range hs {
						h, err := c.Post(p, []byte{byte(i), byte(k), byte(j)})
						if err != nil {
							t.Errorf("post: %v", err)
							return
						}
						hs[j] = h
					}
					for j, h := range hs {
						if n, err := c.Poll(p, h, out); err != nil || n != 3 || out[0] != byte(i) || out[2] != byte(j) {
							t.Errorf("poll: (%v, % x)", err, out[:n])
							return
						}
						counts[i]++
					}
				}
			}
		}
	}
	cliMs[0].Spawn("sync", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := 0; ; k++ {
			if n, err := syncCli.Call(p, []byte{'s', byte(k)}, out); err != nil || n != 2 || out[1] != byte(k) {
				t.Errorf("call: (%v, % x)", err, out[:n])
				return
			}
			ops[0]++
		}
	})
	cliMs[0].Spawn("pipe", pipelined([]*Client{pipeCli}, ops[1:2]))
	cliMs[1].Spawn("fan", pipelined(fan, ops[2:4]))
	env.Run(sim.Time(2 * sim.Millisecond))
	for _, m := range cliMs {
		if m.NIC().Misrouted != 0 {
			t.Errorf("%s misrouted %d completions", m.Name(), m.NIC().Misrouted)
		}
	}
	return ops, env.KernelDigest()
}

// TestPrivateEndpointsMatchUnsharedPool: "dedicated" is a geometry, not a
// path. PoolConfig{} (an endpoint per lease) and a pool with more QPs than
// leases per machine (so no endpoint is ever shared) retire the same kernel
// events and complete the same calls.
func TestPrivateEndpointsMatchUnsharedPool(t *testing.T) {
	privOps, privDigest := unifiedRun(t, PoolConfig{})
	poolOps, poolDigest := unifiedRun(t, PoolConfig{QPs: 8})
	for i := range privOps {
		if privOps[i] == 0 || privOps[i] != poolOps[i] {
			t.Errorf("client %d: %d ops with private endpoints, %d with an unshared pool", i, privOps[i], poolOps[i])
		}
	}
	if privDigest != poolDigest {
		t.Errorf("kernel digest %#x with private endpoints, %#x with an unshared pool", privDigest, poolDigest)
	}
}

// TestPrivateEndpointRetiredWithLease: with PoolConfig{} an endpoint lives
// exactly as long as its lease — across Accept/Close churn and forced
// reconnects nothing accumulates — and a completion straggling in under a
// re-bound connection's old tag is dropped and counted, never delivered.
func TestPrivateEndpointRetiredWithLease(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cm := r.cluster.Clients[0]
	srvm := r.srv.Machine()
	r.srv.AddThreads(2)
	pr := recoveryParams(2_000_000)
	pr.Depth = 2
	keep, keepConn := r.srv.Accept(cm, pr)
	srvm.Spawn("srv", func(p *sim.Proc) { Serve(p, []*Conn{keepConn}, echoHandler) })
	finished := false
	cm.Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for round := 0; round < 50; round++ {
			cli, conn, err := r.srv.TryAccept(cm, DefaultParams())
			if err != nil {
				t.Errorf("round %d accept: %v", round, err)
				return
			}
			srvm.Spawn("churn-srv", func(p *sim.Proc) { Serve(p, []*Conn{conn}, echoHandler) })
			if n, err := cli.Call(p, []byte{byte(round)}, out); err != nil || n != 1 || out[0] != byte(round) {
				t.Errorf("round %d call: (%v, % x)", round, err, out[:n])
				return
			}
			if err := cli.Close(p); err != nil {
				t.Errorf("round %d close: %v", round, err)
				return
			}
		}
		// One pipelined call first, so the connection owns completion queues
		// that every re-bound lease must keep delivering into.
		h, err := keep.Post(p, []byte("piped"))
		if err != nil {
			t.Errorf("post: %v", err)
			return
		}
		if _, err := keep.Poll(p, h, out); err != nil {
			t.Errorf("poll: %v", err)
			return
		}
		old := keep.lease
		for k := 0; k < 50; k++ {
			keep.needReconnect = true
			h, err := keep.Post(p, []byte{byte(k)})
			if err != nil {
				t.Errorf("reconnect %d post: %v", k, err)
				return
			}
			if n, err := keep.Poll(p, h, out); err != nil || n != 1 || out[0] != byte(k) {
				t.Errorf("reconnect %d poll: (%v, % x)", k, err, out[:n])
				return
			}
		}
		// The straggler: a read still completing on the first endpoint under
		// its long-released tag.
		old.QP().Post(p, old.PostCQ(), rnic.WR{ID: old.Tag() | 7, Op: rnic.WRRead, Remote: keep.server, Local: out[:8]})
		p.Sleep(sim.Micros(50))
		finished = true
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if !finished {
		t.Fatal("client did not finish")
	}
	if keep.Stats.Reconnects != 50 {
		t.Fatalf("Reconnects = %d, want 50", keep.Stats.Reconnects)
	}
	pool := r.srv.Pool()
	if pool.Endpoints() != 1 || pool.Leases() != 1 {
		t.Fatalf("pool holds %d endpoints / %d leases, want 1/1", pool.Endpoints(), pool.Leases())
	}
	if got := r.srv.Slabs().Leases(); got != 1 {
		t.Fatalf("server region leases = %d, want 1 (old regions released)", got)
	}
	if keep.cq.Depth() != 0 {
		t.Fatal("straggler completion was delivered")
	}
	if n := cm.NIC().Misrouted; n != 1 {
		t.Fatalf("Misrouted = %d, want 1 (the straggler)", n)
	}
}

// TestPooledAcceptCloseChurn: dialer threads concurrently accept, call over,
// and close connections that all multiplex one endpoint (QPs: 1), recycling
// tags and slab carves; run under -race this exercises the pool's shared
// state across the sim's goroutine handoffs.
func TestPooledAcceptCloseChurn(t *testing.T) {
	const dialers = 6
	const rounds = 5
	r := newRig(t, dialers, poolCfg(1))
	// Up to one live serve thread per dialer at a time.
	r.srv.AddThreads(dialers)
	srvm := r.srv.Machine()
	done := 0
	for d := 0; d < dialers; d++ {
		d := d
		r.cluster.Clients[d].Spawn("dialer", func(p *sim.Proc) {
			out := make([]byte, 64)
			for round := 0; round < rounds; round++ {
				cli, conn, err := r.srv.TryAccept(r.cluster.Clients[d], DefaultParams())
				if err != nil {
					t.Errorf("dialer %d round %d accept: %v", d, round, err)
					return
				}
				srvm.Spawn("srv", func(p *sim.Proc) {
					Serve(p, []*Conn{conn}, echoHandler) // returns when conn closes
				})
				for k := 0; k < 5; k++ {
					msg := []byte{byte(d), byte(round), byte(k)}
					n, err := cli.Call(p, msg, out)
					if err != nil || n != 3 || out[0] != byte(d) || out[1] != byte(round) || out[2] != byte(k) {
						t.Errorf("dialer %d round %d call %d: (%v, % x)", d, round, k, err, out[:n])
						return
					}
				}
				if err := cli.Close(p); err != nil {
					t.Errorf("dialer %d round %d close: %v", d, round, err)
					return
				}
				done++
			}
		})
	}
	r.env.Run(sim.Time(100 * sim.Millisecond))
	if done != dialers*rounds {
		t.Fatalf("%d/%d churn rounds completed", done, dialers*rounds)
	}
	if got := r.srv.Pool().Leases(); got != 0 {
		t.Fatalf("pool leases leaked: %d", got)
	}
	if n := r.misrouted(); n != 0 {
		t.Fatalf("misrouted completions: %d", n)
	}
	if got := r.srv.Slabs().Leases(); got != 0 {
		t.Fatalf("region carves leaked: %d", got)
	}
}

// twoServerCluster is a hand-built topology for cross-pool tests: two server
// machines plus one client machine.
type twoServerCluster struct {
	serverA, serverB, client *fabric.Machine
}

func newTwoServerCluster(env *sim.Env) *twoServerCluster {
	prof := hw.ConnectX3()
	return &twoServerCluster{
		serverA: fabric.NewMachine(env, "serverA", prof),
		serverB: fabric.NewMachine(env, "serverB", prof),
		client:  fabric.NewMachine(env, "client", prof),
	}
}
