package paradigm

import (
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/stats"
)

func TestBypassRequestCountsReads(t *testing.T) {
	env := sim.NewEnv(5)
	defer env.Close()
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	region := cl.Server.NIC().RegisterMemory(1 << 16)
	b := NewBypassClient(cl.Clients[0], region.Handle(), 32)
	cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if err := b.Request(p, 5); err != nil {
			t.Errorf("Request: %v", err)
		}
		if err := b.Request(p, 0); err != ErrBadOps {
			t.Errorf("k=0 err = %v", err)
		}
	})
	env.RunAll()
	if b.Requests != 1 || b.Reads != 5 {
		t.Fatalf("requests=%d reads=%d", b.Requests, b.Reads)
	}
}

func TestAmplificationDividesThroughput(t *testing.T) {
	// Fig. 6's mechanism: server in-bound IOPS stays pinned while logical
	// throughput falls as 1/k.
	measure := func(k int) (reqMOPS, iopsMOPS float64) {
		env := sim.NewEnv(6)
		defer env.Close()
		cl := fabric.NewCluster(env, hw.ConnectX3(), 7)
		region := cl.Server.NIC().RegisterMemory(1 << 16)
		placements := cl.ClientThreads(21)
		clients := make([]*BypassClient, len(placements))
		for i, pl := range placements {
			clients[i] = NewBypassClient(pl.Machine, region.Handle(), 32)
			b := clients[i]
			pl.Machine.Spawn("cli", func(p *sim.Proc) {
				for {
					if err := b.Request(p, k); err != nil {
						t.Errorf("Request: %v", err)
						return
					}
				}
			})
		}
		window := sim.Duration(2 * sim.Millisecond)
		env.Run(sim.Time(window / 2))
		startOps := cl.Server.NIC().Stats.InOps
		var startReq uint64
		for _, b := range clients {
			startReq += b.Requests
		}
		start := env.Now()
		env.Run(start.Add(window))
		var endReq uint64
		for _, b := range clients {
			endReq += b.Requests
		}
		return stats.MOPS(endReq-startReq, int64(window)),
			stats.MOPS(cl.Server.NIC().Stats.InOps-startOps, int64(window))
	}
	req2, iops2 := measure(2)
	req8, iops8 := measure(8)
	if iops2 < 9 || iops8 < 9 {
		t.Fatalf("in-bound IOPS should stay near saturation: k=2 %.2f, k=8 %.2f", iops2, iops8)
	}
	ratio := req2 / req8
	if ratio < 3 || ratio > 5 {
		t.Fatalf("throughput ratio k=2/k=8 = %.2f, want ~4 (1/k scaling)", ratio)
	}
}
