package jakiro

import (
	"bytes"
	"errors"
	"testing"

	"rfp/internal/core"
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
	env := sim.NewEnv(21)
	t.Cleanup(env.Close)
	cl := fabric.NewCluster(env, hw.ConnectX3(), clients)
	return &rig{env: env, cl: cl, srv: NewServer(cl.Server, cfg)}
}

func TestPutGetRoundTrip(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 2, SpikeProb: -1})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var got []byte
	var found bool
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if err := cli.Put(p, 7, []byte("jakiro-value")); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		out := make([]byte, 64)
		n, ok, err := cli.Get(p, 7, out)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		found = ok
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !found || string(got) != "jakiro-value" {
		t.Fatalf("found=%v got=%q", found, got)
	}
}

func TestGetMiss(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 2, SpikeProb: -1})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var found bool
	ran := false
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_, found, _ = cli.Get(p, 999, make([]byte, 64))
		ran = true
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !ran || found {
		t.Fatalf("ran=%v found=%v", ran, found)
	}
}

func TestPreloadAndPartitioning(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 4, SpikeProb: -1})
	keys := workload.Preload(workload.Config{Keys: 1000})
	r.srv.Preload(keys, 32)
	total := 0
	for i := 0; i < 4; i++ {
		n := r.srv.Partition(i).Len()
		if n == 0 {
			t.Fatalf("partition %d empty — EREW partitioning broken", i)
		}
		total += n
	}
	if total != 1000 {
		t.Fatalf("preloaded %d/1000", total)
	}
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	misses := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := uint64(0); k < 100; k++ {
			n, ok, err := cli.Get(p, k, out)
			if err != nil {
				t.Errorf("Get %d: %v", k, err)
				return
			}
			if !ok {
				misses++
				continue
			}
			if !workload.CheckValue(out[:n], k, 0) {
				t.Errorf("value integrity broken for key %d", k)
				return
			}
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if misses != 0 {
		t.Fatalf("%d misses after preload", misses)
	}
}

func TestUpdateOverwrites(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 1, SpikeProb: -1})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var got []byte
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_ = cli.Put(p, 1, []byte("old"))
		_ = cli.Put(p, 1, []byte("new-longer-value"))
		out := make([]byte, 64)
		n, _, _ := cli.Get(p, 1, out)
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if string(got) != "new-longer-value" {
		t.Fatalf("got %q", got)
	}
}

func TestOversizeValueRejectedClientSide(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 1, MaxValue: 64, SpikeProb: -1})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var err error
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		err = cli.Put(p, 1, make([]byte, 65))
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if err == nil {
		t.Fatal("oversize value accepted")
	}
}

func TestDoRunsWorkloadOps(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 2, SpikeProb: -1})
	r.srv.Preload(workload.Preload(workload.Config{Keys: 100}), 32)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	gen := workload.NewGenerator(workload.Config{Keys: 100, GetFraction: 0.5}, 9)
	oks := 0
	const nOps = 100
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		scratch := make([]byte, 8192)
		for i := 0; i < nOps; i++ {
			ok, err := cli.Do(p, gen.Next(), scratch)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if ok {
				oks++
			}
		}
	})
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if oks != nOps {
		t.Fatalf("%d/%d ops succeeded", oks, nOps)
	}
}

func TestLargeValuesUseSecondRead(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 1, SpikeProb: -1})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	big := bytes.Repeat([]byte{0x5A}, 4096)
	var got []byte
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if err := cli.Put(p, 5, big); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		out := make([]byte, 8192)
		n, ok, err := cli.Get(p, 5, out)
		if err != nil || !ok {
			t.Errorf("Get: ok=%v err=%v", ok, err)
			return
		}
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if !bytes.Equal(got, big) {
		t.Fatalf("big value corrupted (%d bytes)", len(got))
	}
	if cli.Stats().SecondReads == 0 {
		t.Fatal("4KB value with F=256 must need a continuation read")
	}
}

func TestServerReplyVariant(t *testing.T) {
	cfg := Config{Threads: 2, SpikeProb: -1}
	cfg.Params = core.DefaultParams()
	cfg.Params.ForceReply = true
	r := newRig(t, 1, cfg)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var got []byte
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_ = cli.Put(p, 3, []byte("sr"))
		out := make([]byte, 16)
		n, _, _ := cli.Get(p, 3, out)
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if string(got) != "sr" {
		t.Fatalf("got %q", got)
	}
	st := cli.Stats()
	if st.FetchReads != 0 || st.ReplyDeliveries != 2 {
		t.Fatalf("ServerReply variant: fetch=%d reply=%d", st.FetchReads, st.ReplyDeliveries)
	}
}

func TestSpikesProduceRetriesNotSwitches(t *testing.T) {
	// Table 3's regime: rare long process times cause occasional multi-retry
	// calls but (almost) never mode switches. The spikes are the production
	// 5-15 us ones, 25x as frequent as the default.
	cfg := Config{Threads: 2, SpikeProb: 0.01}
	r := newRig(t, 1, cfg)
	r.srv.Preload(workload.Preload(workload.Config{Keys: 100}), 32)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 3000; i++ {
			if _, _, err := cli.Get(p, uint64(i%100), out); err != nil {
				t.Errorf("Get: %v", err)
				return
			}
		}
	})
	r.env.Run(sim.Time(100 * sim.Millisecond))
	st := cli.Stats()
	if st.Calls != 3000 {
		t.Fatalf("calls = %d", st.Calls)
	}
	if st.MaxRetries == 0 {
		t.Fatal("1% spikes should cause some retries")
	}
	multi := uint64(0)
	for i := 2; i < core.RetryHistSize; i++ {
		multi += st.RetryHist[i]
	}
	frac := float64(multi) / float64(st.Calls)
	if frac > 0.03 {
		t.Fatalf("%.3f of calls needed 2+ retries, want rare", frac)
	}
}

func TestNewClientAfterStartPanics(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 1, SpikeProb: -1})
	_ = r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = r.srv.NewClient(r.cl.Clients[0])
}

func TestThroughputReadIntensive(t *testing.T) {
	// Fig. 12's headline in miniature: 35 clients, 6 server threads, 32-byte
	// values, uniform 95% GET -> ~5.5 MOPS.
	if testing.Short() {
		t.Skip("saturation run")
	}
	r := newRig(t, 7, Config{Threads: 6, BucketsPerPartition: 8192})
	wcfg := workload.Config{Keys: 200_000, GetFraction: 0.95}
	r.srv.Preload(workload.Preload(wcfg), 32)
	placements := r.cl.ClientThreads(35)
	clients := make([]*Client, len(placements))
	for i, pl := range placements {
		clients[i] = r.srv.NewClient(pl.Machine)
	}
	r.srv.Start()
	for i, pl := range placements {
		cli := clients[i]
		gen := workload.NewGenerator(wcfg, int64(100+i))
		pl.Machine.Spawn("cli", func(p *sim.Proc) {
			scratch := make([]byte, 256)
			for {
				if _, err := cli.Do(p, gen.Next(), scratch); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		})
	}
	r.env.Run(sim.Time(sim.Millisecond)) // warmup
	var before uint64
	for _, c := range clients {
		before += c.Stats().Calls
	}
	start := r.env.Now()
	window := sim.Duration(2 * sim.Millisecond)
	r.env.Run(start.Add(window))
	var after uint64
	for _, c := range clients {
		after += c.Stats().Calls
	}
	mops := stats.MOPS(after-before, int64(window))
	if mops < 4.6 || mops > 6.5 {
		t.Fatalf("Jakiro read-intensive throughput = %.2f MOPS, want ~5.5", mops)
	}
}

// TestPostOpRejectsOversizePut: a pipelined PUT over MaxValue fails with
// Put's error before anything is staged, instead of slicing the request
// buffer past its end. The depth-2 ring keeps both slots free: two posts
// fit, the third finds it full, and both complete.
func TestPostOpRejectsOversizePut(t *testing.T) {
	cfg := Config{Threads: 1, MaxValue: 64, SpikeProb: -1}
	cfg.Params = core.DefaultParams()
	cfg.Params.Depth = 2
	r := newRig(t, 1, cfg)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	put := func(key uint64, size int) workload.Op {
		return workload.Op{Kind: workload.Put, Key: key, ValueSize: size}
	}
	ok := false
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if _, err := cli.PostOp(p, put(1, 65)); err == nil {
			t.Error("oversize PUT posted")
			return
		}
		var pds [2]PendingOp
		for i := range pds {
			var err error
			if pds[i], err = cli.PostOp(p, put(uint64(i), 64)); err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
		}
		if _, err := cli.PostOp(p, put(2, 64)); !errors.Is(err, core.ErrRingFull) {
			t.Errorf("third post on a depth-2 ring: err = %v, want ErrRingFull", err)
			return
		}
		for i, pd := range pds {
			if stored, err := cli.PollOp(p, pd, nil); err != nil || !stored {
				t.Errorf("poll %d: stored=%v err=%v", i, stored, err)
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

// TestRetiredOpcodesRejected: the protocol is GET and PUT only. A stale
// client's batched multi-get (0x03, [op][u16 count][keys]) or DELETE (0x04,
// [op][key]) gets StatusError from the handler, and the server keeps
// serving.
func TestRetiredOpcodesRejected(t *testing.T) {
	r := newRig(t, 1, Config{Threads: 1, SpikeProb: -1})
	r.srv.Preload([]uint64{7}, 32)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	ok := false
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		key := workload.EncodeKey(make([]byte, workload.KeySize), 7)
		for _, req := range [][]byte{append([]byte{0x03, 1, 0}, key...), append([]byte{0x04}, key...)} {
			n, err := cli.Conns()[0].Call(p, req, out)
			if err != nil || n != 1 || out[0] != kv.StatusError {
				t.Errorf("op 0x%02x: response % x, err %v; want StatusError", req[0], out[:n], err)
				return
			}
		}
		if _, found, err := cli.Get(p, 7, out); err != nil || !found {
			t.Errorf("Get after the retired ops: found=%v err=%v", found, err)
			return
		}
		ok = true
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestPutAfterDeadlineKeepsItsBytes: the handler decodes its request only
// after the process-time charge yields. A PUT that fails at its deadline
// meanwhile frees its ring slot, and the next PUT is written into it; the
// first handler must still store its own key and value.
func TestPutAfterDeadlineKeepsItsBytes(t *testing.T) {
	params := core.DefaultParams()
	params.DeadlineNs = 20_000
	r := newRig(t, 1, Config{Threads: 1, SpikeProb: -1, ExtraProcNs: 50_000, Params: params})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	puts := []string{1: "AAAAAAAA", 2: "BBBBBBBB"}
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		for k := 1; k < len(puts); k++ {
			// Each PUT outlives its deadline by 30 µs.
			if err := cli.Put(p, uint64(k), []byte(puts[k])); !errors.Is(err, core.ErrDeadline) {
				t.Errorf("Put(%d): err %v, want ErrDeadline", k, err)
			}
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	kbuf := make([]byte, workload.KeySize)
	for k := 1; k < len(puts); k++ {
		if v, ok := r.srv.Partition(0).Get(workload.EncodeKey(kbuf, uint64(k))); !ok || string(v) != puts[k] {
			t.Errorf("key %d holds %q (present %v), want %q", k, v, ok, puts[k])
		}
	}
}
