package experiments

import (
	"fmt"
	"testing"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/faults"
	"rfp/internal/sim"
)

// TestCrowdFootprintRatio is the ext-crowd acceptance smoke: at the top of
// the quick sweep the pooled transport must hold a small fraction of the
// dedicated baseline's registered memory, pool-sized QP counts, and the same
// throughput (the active subset never notices the multiplexing).
func TestCrowdFootprintRatio(t *testing.T) {
	o := archiveOpts().withDefaults()
	const n = 1000
	pooled := runCrowd(o, n, core.PoolConfig{QPs: crowdPoolQPs, SlabBytes: crowdSlabBytes})
	dedic := runCrowd(o, n, core.PoolConfig{})

	ratio := float64(pooled.res.RegisteredBytes) / float64(dedic.res.RegisteredBytes)
	if ratio > 0.25 {
		t.Errorf("footprint ratio at %d clients = %.1f%%, want <= 25%%", n, 100*ratio)
	}
	// Dedicated: one QP pair per client. Pooled: QPs per client machine.
	if dedic.res.QPs < n {
		t.Errorf("dedicated QPs = %d, want >= %d (one per client)", dedic.res.QPs, n)
	}
	if max := crowdMachines * crowdPoolQPs * 2; pooled.res.QPs > max {
		t.Errorf("pooled QPs = %d, want <= %d (pool-sized)", pooled.res.QPs, max)
	}
	if pooled.res.EndpointLeases != n {
		t.Errorf("endpoint leases = %d, want %d (one per logical client)", pooled.res.EndpointLeases, n)
	}
	if pooled.mops <= 0 || dedic.mops <= 0 {
		t.Fatalf("throughput collapsed: pooled %.3f, dedicated %.3f MOPS", pooled.mops, dedic.mops)
	}
	if pooled.mops < 0.9*dedic.mops {
		t.Errorf("pooled MOPS %.3f fell below 90%% of dedicated %.3f", pooled.mops, dedic.mops)
	}
}

// TestCrowdChaosLightPooled: pooled clients under the light fault plan
// (drops, delays, corruption). The demux contract is that no call is lost
// and no response crosses logical clients — every echo carries (client,
// call) in its payload, so a misrouted completion would surface as a
// corrupted or lost call, both of which must be zero.
func TestCrowdChaosLightPooled(t *testing.T) {
	o := archiveOpts().withDefaults()
	const clients, calls = 12, 80
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, clients)
	srv := core.NewServer(cl.Server, core.ServerConfig{
		MaxRequest: chaosMaxReq, MaxResponse: chaosMaxResp,
		Pool: core.PoolConfig{QPs: 2, SlabBytes: 64 << 10},
	})
	srv.AddThreads(4)

	params := core.DefaultParams()
	params.Depth = chaosDepth
	params.F = core.HeaderSize + chaosMaxResp
	params.DeadlineNs = 2_000_000
	params.BackoffNs = 2000
	params.DemoteAfter = 8

	machines := append([]*fabric.Machine{cl.Server}, cl.Clients...)
	inj := faults.Install(o.Seed+1, []faults.Stage{{Plan: faults.Plan{
		DropProb: 0.01, DelayProb: 0.03, CorruptProb: 0.01,
	}}}, machines...)

	clis := make([]*core.Client, clients)
	conns := make([]*core.Conn, clients)
	for i := range clis {
		var err error
		clis[i], conns[i], err = srv.TryAccept(cl.Clients[i], params)
		if err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		cl.Clients[i].AddThreads(1)
	}
	m := cl.Server
	for th := 0; th < 4; th++ {
		var own []*core.Conn
		for i := th; i < len(conns); i += 4 {
			own = append(own, conns[i])
		}
		if len(own) == 0 {
			continue
		}
		m.Spawn(fmt.Sprintf("srv%d", th), func(p *sim.Proc) {
			core.Serve(p, own, func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
				m.ComputeNs(p, 150)
				return copy(resp, req)
			})
		})
	}

	results := make([]*chaosClientResult, clients)
	for i := range clis {
		i := i
		results[i] = &chaosClientResult{}
		fn := chaosSyncClient
		if i%2 == 1 {
			fn = chaosPipeClient
		}
		cl.Clients[i].Spawn(fmt.Sprintf("chaos%d", i), func(p *sim.Proc) {
			fn(p, clis[i], i, calls, results[i])
		})
	}
	env.Run(sim.Time(200 * sim.Millisecond))

	done := 0
	for i, r := range results {
		if !r.finished {
			t.Errorf("pooled client %d never finished (deadlock)", i)
			continue
		}
		if lost := calls - r.done - r.failed - r.corrupted; lost != 0 {
			t.Errorf("pooled client %d lost %d calls", i, lost)
		}
		if r.corrupted != 0 {
			t.Errorf("pooled client %d accepted %d corrupted responses", i, r.corrupted)
		}
		done += r.done
	}
	if done == 0 {
		t.Fatal("no calls completed under the light plan")
	}
	if inj.Events() == 0 {
		t.Fatal("light plan injected nothing; the run proved nothing")
	}
	// The pool's straggler counter tracks safe drops (completions whose tag
	// was released mid-flight), never deliveries: after every client closed
	// cleanly, all leases are back.
	if srv.Pool().Leases() != 0 {
		t.Errorf("pool leases leaked: %d", srv.Pool().Leases())
	}
}

// TestCrowdDeterministicReplay: the sweep renders byte-identically from the
// same seed (ext-crowd joins the replay contract the chaos harness set).
func TestCrowdDeterministicReplay(t *testing.T) {
	assertReplays(t, "ext-crowd")
}
