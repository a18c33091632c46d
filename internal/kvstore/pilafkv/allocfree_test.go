package pilafkv

import (
	"testing"

	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestSteadyStateGetAllocFree is the server-bypass client's allocation floor:
// a GET against a preloaded store — the cuckoo candidates' slot reads, the
// extent read, both CRC checks — retires a warmed-up window without a heap
// allocation. QP.Read retains the buffer it is handed, so every landing
// buffer has to be the client's, not the call's.
func TestSteadyStateGetAllocFree(t *testing.T) {
	const keys, valueSize = 500, 32
	r := newRig(t, 1, Config{Capacity: 1000, MaxValue: 64})
	if err := r.srv.Preload(workload.Preload(workload.Config{Keys: keys}), valueSize); err != nil {
		t.Fatal(err)
	}
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for key := uint64(0); ; key = (key + 7) % keys {
			n, found, err := cli.Get(p, key, out)
			if err != nil || !found || n != valueSize {
				t.Errorf("Get(%d) = %d, %v, %v", key, n, found, err)
				return
			}
		}
	})
	r.env.Run(sim.Time(10 * sim.Millisecond)) // warm flight pools, rings, calendar buckets
	before := cli.Stats.Gets
	allocs := testing.AllocsPerRun(10, func() {
		r.env.Run(r.env.Now().Add(200 * sim.Microsecond))
	})
	if cli.Stats.Gets-before < 100 {
		t.Fatalf("only %d GETs completed in the measured windows", cli.Stats.Gets-before)
	}
	if allocs != 0 {
		t.Fatalf("steady-state GETs allocate %.1f objects per 200us window, want 0", allocs)
	}
}
