package experiments

import (
	"bytes"
	"errors"
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
// (drops, delays, corruption), half calling synchronously and half keeping
// a depth-4 ring posted. The demux contract is that no call is lost and no
// response crosses logical clients — every echo carries (client, call) in
// its payload, so a misrouted completion would surface as a corrupted or
// lost call, both of which must be zero.
func TestCrowdChaosLightPooled(t *testing.T) {
	o := archiveOpts().withDefaults()
	const clients, calls, depth, maxReq, maxResp = 12, 80, 4, 128, 256
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, clients)
	srv := core.NewServer(cl.Server, core.ServerConfig{
		MaxRequest: maxReq, MaxResponse: maxResp,
		Pool: core.PoolConfig{QPs: 2, SlabBytes: 64 << 10},
	})
	srv.AddThreads(4)

	params := core.DefaultParams()
	params.Depth = depth
	params.F = core.HeaderSize + maxResp
	params.DeadlineNs = 2_000_000
	params.BackoffNs = 2000
	params.DemoteAfter = 8

	machines := append([]*fabric.Machine{cl.Server}, cl.Clients...)
	inj := faults.Install(o.Seed+1, []faults.Stage{{Plan: faults.Plan{
		DropProb: 0.01, DelayProb: 0.03, CorruptProb: 0.01,
	}}}, machines...)

	clis := make([]*core.Client, clients)
	for i := range clis {
		var err error
		clis[i], _, err = srv.TryAccept(cl.Clients[i], params)
		if err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		cl.Clients[i].AddThreads(1)
	}
	m := cl.Server
	srv.Start(4, func(int) core.Handler {
		return func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
			m.ComputeNs(p, 150)
			return copy(resp, req)
		}
	})

	type result struct {
		done, failed, corrupted int
		finished                bool
	}
	results := make([]result, clients)
	for i := range clis {
		i, cli, r := i, clis[i], &results[i]
		cl.Clients[i].Spawn(fmt.Sprintf("chaos%d", i), func(p *sim.Proc) {
			out := make([]byte, maxResp)
			tally := func(req []byte, n int, err error) {
				switch {
				case err != nil:
					r.failed++
				case bytes.Equal(out[:n], req):
					r.done++
				default:
					r.corrupted++
				}
			}
			type call struct {
				h   core.Handle
				req []byte
			}
			var window []call
			claim := func(k int) {
				for _, c := range window[:k] {
					n, err := cli.Poll(p, c.h, out)
					tally(c.req, n, err)
				}
				window = window[k:]
			}
			for c := 0; c < calls; c++ {
				req := make([]byte, 16+(c*7+i*13)%48)
				for j := range req {
					req[j] = byte(i*31 + c*17 + j*101)
				}
				if i%2 == 0 {
					n, err := cli.Call(p, req, out)
					tally(req, n, err)
					continue
				}
			post:
				for {
					h, err := cli.Post(p, req)
					switch {
					case err == nil:
						window = append(window, call{h, req})
						break post
					case errors.Is(err, core.ErrRingFull):
						claim(1)
					case errors.Is(err, core.ErrReconnect):
						claim(len(window)) // every handle claimed, the next post reconnects
					default:
						r.failed++ // charged, not lost
						p.Sleep(5 * sim.Microsecond)
						break post
					}
				}
				if len(window) == depth {
					claim(1)
				}
			}
			claim(len(window))
			_ = cli.Close(p)
			r.finished = true
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
// same seed.
func TestCrowdDeterministicReplay(t *testing.T) {
	assertReplays(t, "ext-crowd")
}
