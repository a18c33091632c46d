package replica

import (
	"testing"

	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestSteadyStateQuorumAllocFree is the replicated store's allocation
// floor: on a warmed 3-node group, quorum PUTs (log append, the prepare
// fan-out, follower log appends, applies) beside lease-guarded follower
// GETs allocate almost nothing per operation. What is left is growth, not
// churn: the log slices, one 64 KiB value chunk per node every 2,048 PUTs
// of 32 bytes, and the calendar's last bucket arrays reaching their size.
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
}
