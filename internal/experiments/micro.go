package experiments

// Sec. 2 microbenchmarks: the in-bound/out-bound asymmetry study (Figs.
// 3-5) and the bypass access amplification measurement (Fig. 6). They issue
// raw verbs, not RFP calls, so their closed loops are their own rather than
// scenario.Drive's.

import (
	"fmt"

	"rfp/internal/fabric"
	"rfp/internal/paradigm"
	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/stats"
)

func init() {
	register("fig3", "IOPS of out-bound vs in-bound RDMA (32 B) vs server threads", fig3)
	register("fig4", "Server in-bound IOPS vs number of client threads", fig4)
	register("fig5", "IOPS of out-bound and in-bound RDMA vs data size", fig5)
	register("fig6", "Server-bypass throughput vs RDMA operations per request", fig6)
}

// outboundMOPS measures the server machine issuing size-byte RDMA Writes to
// the 7 client machines from the given number of threads, matching the
// paper's methodology: each thread picks a client and waits for each
// operation's completion before the next.
func outboundMOPS(o Options, serverThreads, size int) float64 {
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, 7)
	cl.Server.AddThreads(serverThreads)
	var ops uint64
	for t := 0; t < serverThreads; t++ {
		cl.Server.NIC().RegisterIssuer()
		t := t
		// Each thread owns QPs to every client and rotates among them.
		qps := make([]*rnic.QP, len(cl.Clients))
		handles := make([]rnic.RemoteMR, len(cl.Clients))
		for i, c := range cl.Clients {
			qp, _ := fabric.Connect(cl.Server, c)
			qps[i] = qp
			handles[i] = c.NIC().RegisterMemory(8192).Handle()
		}
		cl.Server.Spawn("writer", func(p *sim.Proc) {
			buf := make([]byte, size)
			for i := t; ; i++ {
				if err := qps[i%len(qps)].Write(p, handles[i%len(qps)], 0, buf); err != nil {
					panic(err)
				}
				ops++
			}
		})
	}
	return measureMOPS(env, o, func() uint64 { return ops })
}

// inboundMOPS measures clientThreads client threads (spread over 7
// machines) issuing size-byte RDMA Reads against the server, reporting the
// server NIC's served in-bound rate.
func inboundMOPS(o Options, clientThreads, size int) float64 {
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, 7)
	region := cl.Server.NIC().RegisterMemory(1 << 16)
	h := region.Handle()
	for _, pl := range cl.ClientThreads(clientThreads) {
		qp, _ := fabric.Connect(pl.Machine, cl.Server)
		pl := pl
		pl.Machine.Spawn("reader", func(p *sim.Proc) {
			buf := make([]byte, size)
			for {
				if err := qp.Read(p, h, 0, buf); err != nil {
					panic(err)
				}
			}
		})
	}
	return measureMOPS(env, o, func() uint64 { return cl.Server.NIC().Stats.InOps })
}

func fig3(o Options) Result {
	threads := o.pick([]int{1, 2, 4, 6, 8, 10, 12, 14, 16}, []int{1, 4, 8, 16})
	out := &stats.Series{Label: "out-bound"}
	in := &stats.Series{Label: "in-bound", XLabel: "server threads", YLabel: "MOPS"}
	// In-bound service is pure responder-NIC hardware: it does not depend
	// on how many server threads run, so it is measured once at the
	// saturating client configuration (7 machines x 4 threads).
	inRate := inboundMOPS(o, 28, 32)
	for _, t := range threads {
		out.Add(float64(t), outboundMOPS(o, t, 32))
		in.Add(float64(t), inRate)
	}
	return Result{
		ID: "fig3", Title: "in-bound vs out-bound asymmetry (32 B)",
		Series: []*stats.Series{in, out},
		Notes: []string{
			"in-bound is served entirely by NIC hardware and is independent of server threads",
			fmt.Sprintf("asymmetry at peak: %.1fx", in.PeakY()/out.PeakY()),
		},
	}
}

func fig4(o Options) Result {
	threads := o.pick([]int{7, 14, 21, 28, 35, 42, 49, 56, 63, 70}, []int{7, 21, 35, 70})
	s := &stats.Series{Label: "in-bound", XLabel: "client threads", YLabel: "MOPS"}
	for _, t := range threads {
		s.Add(float64(t), inboundMOPS(o, t, 32))
	}
	return Result{
		ID: "fig4", Title: "server in-bound IOPS vs client threads",
		Series: []*stats.Series{s},
		Notes:  []string{"decline past ~35 threads: client-side driver/QP contention caps each machine's issue rate"},
	}
}

func fig5(o Options) Result {
	sizes := o.pick([]int{32, 64, 128, 256, 512, 1024, 2048, 4096}, []int{32, 256, 1024, 4096})
	in := &stats.Series{Label: "in-bound", XLabel: "data size (B)", YLabel: "MOPS"}
	out := &stats.Series{Label: "out-bound"}
	for _, sz := range sizes {
		in.Add(float64(sz), inboundMOPS(o, 28, sz))
		out.Add(float64(sz), outboundMOPS(o, 4, sz))
	}
	return Result{
		ID: "fig5", Title: "IOPS vs data size",
		Series: []*stats.Series{in, out},
		Notes:  []string{"above ~2 KB bandwidth dominates and the asymmetry disappears"},
	}
}

func fig6(o Options) Result {
	ks := o.pick([]int{2, 3, 4, 5, 6, 8, 10, 12, 15}, []int{2, 4, 8, 15})
	tput := &stats.Series{Label: "throughput", XLabel: "RDMA ops per request", YLabel: "MOPS"}
	iops := &stats.Series{Label: "IOPS"}
	for _, k := range ks {
		env := sim.NewEnv(o.Seed)
		cl := fabric.NewCluster(env, o.Profile, 7)
		region := cl.Server.NIC().RegisterMemory(1 << 16)
		placements := cl.ClientThreads(21) // paper: 21 client threads
		clients := make([]*paradigm.BypassClient, len(placements))
		for i, pl := range placements {
			clients[i] = paradigm.NewBypassClient(pl.Machine, region.Handle(), 32)
			b := clients[i]
			k := k
			pl.Machine.Spawn("bypass", func(p *sim.Proc) {
				for {
					if err := b.Request(p, k); err != nil {
						panic(err)
					}
				}
			})
		}
		env.Run(sim.Time(o.Warmup))
		opsBefore := cl.Server.NIC().Stats.InOps
		tput.Add(float64(k), windowMOPS(env, o, func() uint64 {
			var reqs uint64
			for _, b := range clients {
				reqs += b.Requests
			}
			return reqs
		}))
		iops.Add(float64(k), stats.MOPS(cl.Server.NIC().Stats.InOps-opsBefore, int64(o.Window)))
		env.Close()
	}
	return Result{
		ID: "fig6", Title: "bypass access amplification",
		Series: []*stats.Series{tput, iops},
		Notes:  []string{"IOPS stays at the in-bound ceiling while logical throughput falls as 1/k"},
	}
}
