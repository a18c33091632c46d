package experiments

// ext-async (extension): the pipelining/doorbell-batching optimizations the
// paper sets aside ("batching the requests or issuing several RDMA
// operations without waiting ... can improve the performance", Sec. 2.2),
// quantified on the simulated NIC. Its loops issue raw RDMA Reads, not RFP
// calls, so they do not run on scenario.Drive.

import (
	"fmt"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
)

func init() {
	register("ext-async", "Synchronous vs pipelined vs doorbell-batched issuing", extAsync)
}

// extAsync measures one client thread reading 32 B from a server three
// ways: strictly synchronous (the paper's methodology), a 16-deep pipeline
// of posted reads, and 16-WR doorbell batches.
func extAsync(o Options) Result {
	measure := func(mode string) float64 {
		env := sim.NewEnv(o.Seed)
		defer env.Close()
		cl := fabric.NewCluster(env, o.Profile, 1)
		cli := cl.Clients[0]
		cli.AddThreads(1)
		cli.NIC().RegisterIssuer()
		qp, _ := fabric.Connect(cli, cl.Server)
		region := cl.Server.NIC().RegisterMemory(1 << 16)
		h := region.Handle()
		var done uint64
		cli.Spawn("issuer", func(p *sim.Proc) {
			buf := make([]byte, 32)
			switch mode {
			case "sync":
				for {
					if err := qp.Read(p, h, 0, buf); err != nil {
						panic(err)
					}
					done++
				}
			case "pipelined":
				cq := rnic.NewCQ(cli.NIC())
				const depth = 16
				for i := 0; i < depth; i++ {
					qp.Post(p, cq, rnic.WR{ID: uint64(i), Op: rnic.WRRead, Remote: h, Local: buf})
				}
				for {
					e := cq.Wait(p)
					if e.Err != nil {
						panic(e.Err)
					}
					done++
					qp.Post(p, cq, rnic.WR{ID: e.ID, Op: rnic.WRRead, Remote: h, Local: buf})
				}
			case "batched":
				cq := rnic.NewCQ(cli.NIC())
				const depth = 16
				wrs := make([]rnic.WR, depth)
				for i := range wrs {
					wrs[i] = rnic.WR{ID: uint64(i), Op: rnic.WRRead, Remote: h, Local: buf}
				}
				for {
					qp.PostBatch(p, cq, wrs)
					for i := 0; i < depth; i++ {
						if e := cq.Wait(p); e.Err != nil {
							panic(e.Err)
						}
						done++
					}
				}
			}
		})
		return measureMOPS(env, o, func() uint64 { return done })
	}
	rows := []string{fmt.Sprintf("%-22s%10s", "issuing mode", "MOPS")}
	for _, mode := range []string{"sync", "pipelined", "batched"} {
		rows = append(rows, fmt.Sprintf("%-22s%10.3f", mode+" (1 thread)", measure(mode)))
	}
	return Result{
		ID: "ext-async", Title: "pipelining and doorbell batching (single issuing thread, 32 B reads)",
		Rows: rows,
		Notes: []string{
			"synchronous issuing is round-trip-bound; keeping the send queue full reaches the initiator engine ceiling with one thread",
		},
	}
}
