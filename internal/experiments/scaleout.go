package experiments

// ext-scaleout (extension): Jakiro across multiple server machines — the
// paper's Discussion note that RFP's asymmetric choice pays off "if the
// number of clients is higher than the number of servers".

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/scenario"
	"rfp/internal/shard"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

func init() {
	register("ext-scaleout", "Jakiro aggregate throughput vs number of server machines", extScaleout)
}

func extScaleout(o Options) Result {
	counts := o.pick([]int{1, 2, 3, 4}, []int{1, 2, 4})
	pipe := &stats.Series{Label: "sharded pipelined (depth 8)", XLabel: "server machines", YLabel: "MOPS"}
	syn := &stats.Series{Label: "synchronous fan-out", XLabel: "server machines", YLabel: "MOPS"}
	var events uint64
	for _, n := range counts {
		mops, ev := runScaleout(o, n, true)
		pipe.Add(float64(n), mops)
		events += ev
		mops, ev = runScaleout(o, n, false)
		syn.Add(float64(n), mops)
		events += ev
	}
	last := len(counts) - 1
	return Result{
		ID: "ext-scaleout", Title: "Jakiro across multiple server machines (14 client threads on 14 machines)",
		Series: []*stats.Series{pipe, syn},
		Rows: []string{
			fmt.Sprintf("%-10s%24s%24s", "servers", "pipelined MOPS", "synchronous MOPS"),
			func() string {
				s := ""
				for i := range counts {
					s += fmt.Sprintf("%-10d%24.2f%24.2f\n", counts[i], pipe.Y[i], syn.Y[i])
				}
				return s[:len(s)-1]
			}(),
			fmt.Sprintf("pipelined/synchronous at %d servers: %.1fx", counts[last], pipe.Y[last]/syn.Y[last]),
			fmt.Sprintf("kernel events retired: %d", events),
		},
		SimEvents: events,
		Notes: []string{
			"synchronous fan-out is round-trip-bound: one call in flight per thread, so added servers buy almost nothing",
			"the sharded pipelined client (core.Group) keeps every server's rings full from the same 14 threads: in-bound capacity adds per server until the clients' issue engines bind",
		},
	}
}

// scaleoutEnvHook, when non-nil, observes the environment each runScaleout
// creates before anything is scheduled on it — the pinned-order test uses
// it to shard the run and to enable and read the kernel digest.
var scaleoutEnvHook func(*sim.Env)

// runScaleout shards Jakiro across n server machines with one client
// thread on each of 14 client machines — a deliberately latency-bound
// topology. Synchronous clients route each call to the owning server and
// wait it out; pipelined clients keep a window of posted operations spread
// over every server's rings (internal/shard over core.Group). It returns
// the run's MOPS and the number of kernel events retired.
func runScaleout(o Options, nServers int, pipelined bool) (float64, uint64) {
	env := sim.NewEnv(o.Seed)
	if scaleoutEnvHook != nil {
		scaleoutEnvHook(env)
	}
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, 14)
	servers := []*fabric.Machine{cl.Server}
	for i := 1; i < nServers; i++ {
		servers = append(servers, fabric.NewMachine(env, fmt.Sprintf("server%d", i), o.Profile))
	}
	const keys = 100_000
	spec := scenario.BackendSpec{
		Backend:       scenario.BackendSharded,
		ServerThreads: 4,
		Keys:          keys,
		Buckets:       8192,
		PreloadValue:  32,
		MaxValue:      64,
		Params:        core.DefaultParams(),
	}
	if pipelined {
		spec.Params.Depth = 8
	}
	placements := cl.ClientThreads(14)
	b, err := scenario.BuildBackend(spec, servers, placements)
	if err != nil {
		panic(err)
	}
	ops := make([]uint64, len(placements))
	window := 8 * nServers
	for i, pl := range placements {
		i := i
		sc := b.Conns[i].(*shard.Client)
		gen := workload.NewGenerator(workload.Config{Keys: keys, GetFraction: 0.95}, o.Seed*100+int64(i))
		pl.Machine.Spawn("load", func(p *sim.Proc) {
			scratch := make([]byte, 128)
			if !pipelined {
				for {
					if _, err := kv.Do(sc, p, gen.Next(), scratch); err != nil {
						panic(err)
					}
					ops[i]++
				}
			}
			// Keep a window of operations in flight across every server's
			// rings; claim the oldest once the window is full (or a ring
			// fills), so completions count as they resolve.
			var inflight sim.Ring[shard.PendingOp]
			pollHead := func() {
				if _, err := sc.PollOp(p, inflight.Pop(), scratch); err != nil {
					panic(err)
				}
				ops[i]++
			}
			for {
				op := gen.Next()
				if op.Kind == workload.ReadModifyWrite {
					for inflight.Len() > 0 {
						pollHead()
					}
					if _, err := kv.Do(sc, p, op, scratch); err != nil {
						panic(err)
					}
					ops[i]++
					continue
				}
				for {
					pd, err := sc.PostOp(p, op)
					if err == core.ErrRingFull {
						pollHead()
						continue
					}
					if err != nil {
						panic(err)
					}
					inflight.Push(pd)
					break
				}
				if inflight.Len() >= window {
					pollHead()
				}
			}
		})
	}
	return measureMOPS(env, o, sumOf(ops)), env.EventsRetired()
}
