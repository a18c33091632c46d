package replica

import (
	"testing"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

type rig struct {
	env   *sim.Env
	cl    *fabric.Cluster
	peers []*fabric.Machine // non-initial-leader node machines
	svc   *Service
}

// newRig builds an n-node replication group (the cluster's server machine
// plus n-1 peers) with two client machines.
func newRig(t *testing.T, n int, cfg Config) *rig {
	t.Helper()
	env := sim.NewEnv(61)
	t.Cleanup(env.Close)
	cl := fabric.NewCluster(env, hw.ConnectX3(), 2)
	machines := []*fabric.Machine{cl.Server}
	var peers []*fabric.Machine
	for i := 1; i < n; i++ {
		m := fabric.NewMachine(env, "peer", hw.ConnectX3())
		peers = append(peers, m)
		machines = append(machines, m)
	}
	svc, err := NewService(machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{env: env, cl: cl, peers: peers, svc: svc}
}

// cliParams enables the recovery path so calls to crashed nodes fail over
// instead of hanging.
func cliParams() core.Params {
	return core.Params{DeadlineNs: 200_000, BackoffNs: 2_000}
}

func TestReplicatedPutVisibleEverywhere(t *testing.T) {
	r := newRig(t, 3, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()
	var got []byte
	var found bool
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if err := cli.Put(p, 42, []byte("replicated-value")); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		out := make([]byte, 64)
		n, ok, err := cli.Get(p, 42, out)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		found = ok
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if !found || string(got) != "replicated-value" {
		t.Fatalf("leader read: found=%v got=%q", found, got)
	}
	// The ack implies both followers already hold the value.
	key := workload.EncodeKey(make([]byte, workload.KeySize), 42)
	for i := 1; i < 3; i++ {
		v, ok := r.svc.Store(i).Get(key)
		if !ok || string(v) != "replicated-value" {
			t.Fatalf("follower %d: ok=%v v=%q", i, ok, v)
		}
	}
	if st := r.svc.Stats(); st.Commits != 1 {
		t.Fatalf("Commits = %d", st.Commits)
	}
}

func TestAckImpliesDurabilityOrdering(t *testing.T) {
	// Every acknowledged write is already in the follower's log at ack time;
	// its store apply lags at most one entry (the commit index piggybacks on
	// the next prepare or heartbeat). Interleave writes and follower-side
	// checks to pin both halves of that contract.
	r := newRig(t, 2, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()
	key := workload.EncodeKey(make([]byte, workload.KeySize), 7)
	violations := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		for v := uint32(1); v <= 50; v++ {
			workload.FillVersioned(val, 7, v)
			if err := cli.Put(p, 7, val); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			if got := r.svc.nodes[1].log.len(); got < int(v) {
				t.Errorf("ack for write %d with follower log at %d", v, got)
			}
			// The store may trail by one version, never more.
			if v > 1 {
				bv, ok := r.svc.Store(1).Get(key)
				if !ok {
					violations++
					continue
				}
				if got, okv := workload.ParseVersioned(bv, 7); !okv || got < v-1 {
					violations++
				}
			}
		}
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if violations != 0 {
		t.Fatalf("%d acked writes missing from the follower store", violations)
	}
	// After quiescing (heartbeats advertise the final commit), the store
	// holds the last version.
	bv, ok := r.svc.Store(1).Get(key)
	if v, okv := workload.ParseVersioned(bv, 7); !ok || !okv || v != 50 {
		t.Fatalf("final follower version: ok=%v v=%d", ok && okv, v)
	}
}

func TestLocalReadsServeAtFollowers(t *testing.T) {
	r := newRig(t, 3, Config{})
	r.svc.Preload(64, 32)
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), true)
	r.svc.Start()
	bad := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := uint64(0); k < 64; k++ {
			n, ok, err := cli.Get(p, k, out)
			if err != nil || !ok {
				t.Errorf("get %d: ok=%v err=%v", k, ok, err)
				return
			}
			if v, okv := workload.ParseVersioned(out[:n], k); !okv || v != 0 {
				bad++
			}
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if bad != 0 {
		t.Fatalf("%d preloaded reads returned wrong values", bad)
	}
	st := r.svc.Stats()
	if st.LocalReads == 0 {
		t.Fatalf("no reads served locally at followers: %+v", st)
	}
	if st.MaxServeAgeNs <= 0 || st.MaxServeAgeNs > r.svc.cfg.LeaseNs {
		t.Fatalf("serve age %d outside (0, lease %d]", st.MaxServeAgeNs, r.svc.cfg.LeaseNs)
	}
}

func TestMultipleClients(t *testing.T) {
	r := newRig(t, 2, Config{})
	cliA := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	cliB := r.svc.NewClient(r.cl.Clients[1], cliParams(), true)
	r.svc.Start()
	done := 0
	for i, cli := range []*Client{cliA, cliB} {
		i, cli := i, cli
		r.cl.Clients[i].Spawn("cli", func(p *sim.Proc) {
			val := make([]byte, 16)
			out := make([]byte, 32)
			for k := 0; k < 30; k++ {
				key := uint64(i*1000 + k)
				workload.FillValue(val, key, 0)
				if err := cli.Put(p, key, val); err != nil {
					t.Errorf("client %d put: %v", i, err)
					return
				}
				n, ok, err := cli.Get(p, key, out)
				if err != nil || !ok || !workload.CheckValue(out[:n], key, 0) {
					t.Errorf("client %d get: ok=%v err=%v", i, ok, err)
					return
				}
			}
			done++
		})
	}
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if done != 2 {
		t.Fatalf("%d/2 clients completed", done)
	}
	if st := r.svc.Stats(); st.Commits != 60 {
		t.Fatalf("Commits = %d", st.Commits)
	}
}

func TestGetMiss(t *testing.T) {
	r := newRig(t, 2, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()
	var found, ran bool
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_, found, _ = cli.Get(p, 12345, make([]byte, 8))
		ran = true
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if !ran || found {
		t.Fatalf("ran=%v found=%v", ran, found)
	}
}

func TestSingleNodeDegenerates(t *testing.T) {
	// One machine: no peers, no ctrl proc, every op served locally.
	r := newRig(t, 1, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), true)
	r.svc.Start()
	okRun := false
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 32)
		if err := cli.Put(p, 9, []byte("solo")); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		n, ok, err := cli.Get(p, 9, out)
		if err != nil || !ok || string(out[:n]) != "solo" {
			t.Errorf("get: %q ok=%v err=%v", out[:n], ok, err)
			return
		}
		okRun = true
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if !okRun {
		t.Fatal("single-node ops did not complete")
	}
	if st := r.svc.Stats(); st.Commits != 1 || st.LeaderReads != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestServiceValidation(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	if _, err := NewService(nil, Config{}); err == nil {
		t.Fatal("empty machine list accepted")
	}
	var many []*fabric.Machine
	for i := 0; i < 65; i++ {
		many = append(many, fabric.NewMachine(env, "m", hw.ConnectX3()))
	}
	if _, err := NewService(many, Config{}); err == nil {
		t.Fatal("65 machines accepted")
	}
}

func TestReplicationCostVisible(t *testing.T) {
	// A replicated PUT must take longer than a leader GET: it carries extra
	// RFP round trips (leader -> follower).
	r := newRig(t, 2, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()
	var putLat, getLat sim.Duration
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		out := make([]byte, 64)
		_ = cli.Put(p, 1, val) // warm
		start := p.Now()
		_ = cli.Put(p, 1, val)
		putLat = p.Now().Sub(start)
		start = p.Now()
		_, _, _ = cli.Get(p, 1, out)
		getLat = p.Now().Sub(start)
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if putLat < getLat+sim.Micros(2) {
		t.Fatalf("replicated put %v vs get %v: replication cost invisible", putLat, getLat)
	}
}

// BenchmarkReplicatedPut measures the host-side cost of simulating one
// fully replicated write (client -> leader -> follower -> ack chain).
func BenchmarkReplicatedPut(b *testing.B) {
	env := sim.NewEnv(3)
	defer env.Close()
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	fm := fabric.NewMachine(env, "peer", hw.ConnectX3())
	svc, err := NewService([]*fabric.Machine{cl.Server, fm}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	cli := svc.NewClient(cl.Clients[0], cliParams(), false)
	svc.Start()
	done := 0
	cl.Clients[0].Spawn("writer", func(p *sim.Proc) {
		val := make([]byte, 32)
		for {
			if err := cli.Put(p, uint64(done%1000), val); err != nil {
				b.Errorf("put: %v", err)
				return
			}
			done++
		}
	})
	b.ResetTimer()
	for done < b.N {
		env.Run(env.Now().Add(sim.Duration(100 * sim.Microsecond)))
	}
}

// TestPutSurvivesRequestSlotOverwrite pins the handler's aliasing rule: req
// is the ring slot itself, and when a resent PUT is served a second time the
// client — already satisfied by the first response — delivers its next
// (shorter) request into the same slot while the handler is mid-yield. The
// logged entry must be the PUT as received, not a splice of the two.
func TestPutSurvivesRequestSlotOverwrite(t *testing.T) {
	r := newRig(t, 1, Config{})
	n := r.svc.nodes[0]
	slot := make([]byte, 128)
	req := kv.EncodePut(slot, 14, []byte("value-of-key-14"))
	resp := make([]byte, 64)
	status := byte(0xff)
	r.cl.Server.Spawn("srv", func(p *sim.Proc) {
		n.handle(p, nil, req, resp)
		status = resp[0]
	})
	// Lands inside the handler's first compute burst (≥150ns).
	r.env.At(50, func() { kv.EncodeGet(slot, 21) })
	r.env.Run(sim.Time(sim.Millisecond))
	if status != kv.StatusOK {
		t.Fatalf("PUT status = %d, want OK", status)
	}
	key := make([]byte, workload.KeySize)
	if v, ok := n.store.Get(workload.EncodeKey(key, 14)); !ok || string(v) != "value-of-key-14" {
		t.Fatalf("key 14: ok=%v v=%q, want the PUT's value", ok, v)
	}
	if v, ok := n.store.Get(workload.EncodeKey(key, 21)); ok {
		t.Fatalf("key 21 was written (%q) by a request that only read it", v)
	}
}
