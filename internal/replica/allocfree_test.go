package replica

import (
	"runtime"
	"testing"

	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestSteadyStateQuorumAllocFree is the replicated store's allocation
// floor: on a warmed 3-node group, quorum PUTs (log append, the prepare
// fan-out, follower log appends, applies) beside lease-guarded follower
// GETs allocate almost nothing per operation. What is left is growth, not
// churn: one 160 KiB log chunk per node every 4,096 PUTs, one 64 KiB value
// chunk per node every 2,048 PUTs of 32 bytes, and the calendar's last
// bucket arrays reaching their size.
//
// Growth that writes each entry and value once costs 40 B of log entry and
// 32 B of value per PUT on each of 3 nodes: 108 B per op at one PUT in two.
// The test reads 111.5 B per op and bounds it at 128 (15 % margin). A log
// grown as one slice by re-allocation copies each entry about four times
// and reads several times the bound.
func TestSteadyStateQuorumAllocFree(t *testing.T) {
	const keys, valueSize, threads = 1000, 32, 4
	r := newRig(t, 3, Config{})
	r.svc.Preload(keys, valueSize)
	var clis []*Client
	for i := 0; i < threads; i++ {
		clis = append(clis, r.svc.NewClient(r.cl.Clients[i%2], cliParams(), true))
	}
	r.svc.Start()
	ops := 0
	for i, cli := range clis {
		i, cli := i, cli
		r.cl.Clients[i%2].Spawn("cli", func(p *sim.Proc) {
			out, value := make([]byte, 64), make([]byte, valueSize)
			for seq, key := uint32(1), uint64(i); ; seq, key = seq+1, (key+7)%keys {
				workload.FillVersioned(value, key, seq)
				if err := cli.Put(p, key, value); err != nil {
					t.Errorf("Put(%d): %v", key, err)
					return
				}
				if _, found, err := cli.Get(p, (key+500)%keys, out); err != nil || !found {
					t.Errorf("Get(%d): found=%v err=%v", (key+500)%keys, found, err)
					return
				}
				ops += 2
			}
		})
	}
	// Warm-up: the calendar's 256 bucket arrays each grow to their own
	// deepest fill, which takes this load a couple of hundred ms.
	r.env.Run(sim.Time(200 * sim.Millisecond))
	var done int
	allocs := testing.AllocsPerRun(1, func() {
		before := ops
		r.env.Run(r.env.Now().Add(40 * sim.Millisecond))
		done = ops - before
	})
	if done < 5000 {
		t.Fatalf("only %d operations completed in the measured window, want >= 5000", done)
	}
	if per := allocs / float64(done); per > 0.002 {
		t.Fatalf("steady-state quorum PUT/GET allocate %.0f objects over %d ops (%.4f per op), want <= 0.002",
			allocs, done, per)
	}
	t.Logf("%.0f allocations over %d ops", allocs, done)

	// Bytes are counted over a longer window than objects: 200 ms holds
	// several chunks of every node's log, so one chunk more or less moves
	// the figure by a few bytes per op.
	var m0, m1 runtime.MemStats
	before := ops
	runtime.ReadMemStats(&m0)
	r.env.Run(r.env.Now().Add(200 * sim.Millisecond))
	runtime.ReadMemStats(&m1)
	done = ops - before
	if perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(done); perOp > 128 {
		t.Fatalf("steady-state quorum PUT/GET allocate %d B over %d ops (%.1f per op), want <= 128",
			m1.TotalAlloc-m0.TotalAlloc, done, perOp)
	}
}
