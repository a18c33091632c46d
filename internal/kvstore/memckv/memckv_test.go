package memckv

import (
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

type rig struct {
	env *sim.Env
	cl  *fabric.Cluster
	srv *Server
}

func newRig(t *testing.T, clients int, cfg Config) *rig {
	t.Helper()
	env := sim.NewEnv(31)
	t.Cleanup(env.Close)
	cl := fabric.NewCluster(env, hw.ConnectX3(), clients)
	return &rig{env: env, cl: cl, srv: NewServer(cl.Server, cfg)}
}

func TestPutGetRoundTrip(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 2})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var got []byte
	var found bool
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if err := cli.Put(p, 9, []byte("memc-value")); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		out := make([]byte, 64)
		n, ok, err := cli.Get(p, 9, out)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		found = ok
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !found || string(got) != "memc-value" {
		t.Fatalf("found=%v got=%q", found, got)
	}
}

func TestGetMiss(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 1})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var found, ran bool
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_, found, _ = cli.Get(p, 12345, make([]byte, 8))
		ran = true
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !ran || found {
		t.Fatalf("ran=%v found=%v", ran, found)
	}
}

func TestServerReplyTransport(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 1})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_ = cli.Put(p, 1, []byte("x"))
		_, _, _ = cli.Get(p, 1, make([]byte, 8))
	})
	r.env.Run(sim.Time(sim.Millisecond))
	st := cli.Stats()
	if st.FetchReads != 0 {
		t.Fatal("RDMA-Memcached must be pure server-reply (no remote fetches)")
	}
	if st.ReplyDeliveries != 2 {
		t.Fatalf("ReplyDeliveries = %d", st.ReplyDeliveries)
	}
}

func TestSharedStoreAcrossThreads(t *testing.T) {
	// Unlike Jakiro's EREW partitions, any thread sees any key.
	r := newRig(t, 2, Config{Threads: 2})
	cliA := r.srv.NewClient(r.cl.Clients[0]) // lands on thread 0
	cliB := r.srv.NewClient(r.cl.Clients[1]) // lands on thread 1
	r.srv.Start()
	var found bool
	r.cl.Clients[0].Spawn("writer", func(p *sim.Proc) {
		_ = cliA.Put(p, 777, []byte("shared"))
	})
	r.cl.Clients[1].Spawn("reader", func(p *sim.Proc) {
		p.Sleep(sim.Micros(100))
		out := make([]byte, 16)
		_, found, _ = cliB.Get(p, 777, out)
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !found {
		t.Fatal("key written via thread 0 invisible to thread 1 — store not shared")
	}
}

// measure drives the standard topology and returns MOPS.
func measure(t *testing.T, cfg Config, wcfg workload.Config, clients int, window sim.Duration) float64 {
	t.Helper()
	r := newRig(t, 7, cfg)
	r.srv.Preload(workload.Preload(wcfg), 32)
	placements := r.cl.ClientThreads(clients)
	clis := make([]*Client, len(placements))
	for i, pl := range placements {
		clis[i] = r.srv.NewClient(pl.Machine)
	}
	r.srv.Start()
	for i, pl := range placements {
		cli := clis[i]
		gen := workload.NewGenerator(wcfg, int64(500+i))
		pl.Machine.Spawn("cli", func(p *sim.Proc) {
			scratch := make([]byte, 256)
			for {
				if _, err := kv.Do(cli, p, gen.Next(), scratch); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		})
	}
	r.env.Run(sim.Time(window))
	var before uint64
	for _, c := range clis {
		before += c.Stats().Calls
	}
	start := r.env.Now()
	r.env.Run(start.Add(window))
	var after uint64
	for _, c := range clis {
		after += c.Stats().Calls
	}
	return stats.MOPS(after-before, int64(window))
}

func TestCPUBoundReadIntensive(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	// Paper Fig. 12: ~1.3 MOPS at 16 threads, far below the NIC's 2.1 MOPS
	// out-bound ceiling.
	mops := measure(t, Config{Buckets: 1 << 14}, workload.Config{Keys: 100_000, GetFraction: 0.95}, 35, 2*sim.Millisecond)
	if mops < 1.0 || mops > 1.7 {
		t.Fatalf("read-intensive = %.2f MOPS, want ~1.3", mops)
	}
}

func TestWriteIntensiveCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	// Paper Fig. 16: with 95% PUT the global lock serializes everything,
	// ~0.4 MOPS.
	mops := measure(t, Config{Buckets: 1 << 14}, workload.Config{Keys: 100_000, GetFraction: 0.05}, 35, 2*sim.Millisecond)
	if mops < 0.25 || mops > 0.6 {
		t.Fatalf("write-intensive = %.2f MOPS, want ~0.4", mops)
	}
}

func TestSkewBoostsThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	// Paper Fig. 19: skew makes hot keys cache-resident; throughput rises
	// toward the out-bound ceiling.
	uniform := measure(t, Config{Buckets: 1 << 14}, workload.Config{Keys: 100_000, GetFraction: 0.95}, 35, 2*sim.Millisecond)
	skewed := measure(t, Config{Buckets: 1 << 14}, workload.Config{Keys: 100_000, GetFraction: 0.95, ZipfTheta: 0.99}, 35, 2*sim.Millisecond)
	if skewed < 1.25*uniform {
		t.Fatalf("skewed %.2f vs uniform %.2f MOPS: want >=25%% uplift from cache locality", skewed, uniform)
	}
	if skewed > 2.4 {
		t.Fatalf("skewed %.2f MOPS exceeds the out-bound ceiling", skewed)
	}
}

func TestThreadScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	one := measure(t, Config{Threads: 1, Buckets: 1 << 14}, workload.Config{Keys: 50_000, GetFraction: 0.95}, 35, 2*sim.Millisecond)
	sixteen := measure(t, Config{Threads: 16, Buckets: 1 << 14}, workload.Config{Keys: 50_000, GetFraction: 0.95}, 35, 2*sim.Millisecond)
	if one < 0.1 || one > 0.35 {
		t.Fatalf("1 thread = %.2f MOPS, want ~0.2", one)
	}
	if sixteen < 3*one {
		t.Fatalf("16 threads (%.2f) should be well above 1 thread (%.2f)", sixteen, one)
	}
}
