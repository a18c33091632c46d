package jakiro

import (
	"testing"

	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestSteadyStateGetPutAllocFree is the Jakiro client's allocation floor:
// against a preloaded store, Get and Put (an overwrite of equal size) retire
// a warmed-up window — request encode, the RFP call under it, the server's
// bucket-store access, response decode — without a heap allocation.
func TestSteadyStateGetPutAllocFree(t *testing.T) {
	const keys, valueSize = 1000, 32
	r := newRig(t, 1, Config{Threads: 2, BucketsPerPartition: 256, MaxValue: 64})
	r.srv.Preload(workload.Preload(workload.Config{Keys: keys}), valueSize)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	ops := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out, value := make([]byte, 64), make([]byte, valueSize)
		for key := uint64(0); ; key = (key + 7) % keys {
			n, found, err := cli.Get(p, key, out)
			if err != nil || !found || n != valueSize {
				t.Errorf("Get(%d) = %d, %v, %v", key, n, found, err)
				return
			}
			workload.FillValue(value, key, uint32(ops))
			if err := cli.Put(p, key, value); err != nil {
				t.Errorf("Put(%d): %v", key, err)
				return
			}
			ops += 2
		}
	})
	// The calendar's 256 bucket arrays each grow to their own deepest fill;
	// this drive needs 10 ms for the last of them.
	r.env.Run(sim.Time(40 * sim.Millisecond))
	before := ops
	allocs := testing.AllocsPerRun(10, func() {
		r.env.Run(r.env.Now().Add(200 * sim.Microsecond))
	})
	if ops-before < 100 {
		t.Fatalf("only %d operations completed in the measured windows", ops-before)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocate %.1f objects per 200us window, want 0", allocs)
	}
}
