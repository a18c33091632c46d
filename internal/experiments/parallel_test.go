package experiments

// Cross-kernel equivalence tests for parallel mode (-parallel): the sharded
// kernel must produce byte-identical results for any worker count on the
// same seed. The comparisons here are sharded-1-worker vs sharded-4-worker:
// sharding itself re-homes per-machine PRNG streams, so its outputs
// legitimately differ from the single-lane serial kernel (whose archived
// outputs are pinned by bench_regress_test.go and the chaos replay tests);
// what must never differ is the same sharded run under different degrees of
// real parallelism. Run under -race in CI with GOMAXPROCS > 1, these tests
// also check the window barrier's memory-model discipline.

import (
	"testing"

	"rfp/internal/sim"
)

// runScaleoutTraced runs one sharded ext-scaleout cell with kernel tracing
// on and returns (MOPS, events retired, kernel digest).
func runScaleoutTraced(t *testing.T, workers, nServers int, pipelined bool) (float64, uint64, uint64) {
	t.Helper()
	o := quickOpts()
	o.Parallel = workers
	var env *sim.Env
	scaleoutEnvHook = func(e *sim.Env) {
		env = e
		e.EnableKernelTrace()
	}
	defer func() { scaleoutEnvHook = nil }()
	mops, events := runScaleout(o, nServers, pipelined)
	return mops, events, env.KernelDigest()
}

func TestScaleoutParallelMatchesSerial(t *testing.T) {
	for _, pipelined := range []bool{true, false} {
		m1, e1, d1 := runScaleoutTraced(t, 1, 2, pipelined)
		m4, e4, d4 := runScaleoutTraced(t, 4, 2, pipelined)
		if e1 == 0 || m1 == 0 {
			t.Fatalf("pipelined=%v: sharded run retired no work (%.3f MOPS, %d events)", pipelined, m1, e1)
		}
		if m1 != m4 || e1 != e4 || d1 != d4 {
			t.Fatalf("pipelined=%v: 1 worker vs 4 diverged: MOPS %v/%v events %d/%d digest %016x/%016x",
				pipelined, m1, m4, e1, e4, d1, d4)
		}
	}
}

// TestChaosParallelMatchesSerial runs the probabilistic chaos plans under
// -parallel 1 and 4. The light plan runs sharded and must not depend on the
// worker count. The heavy plan errors QPs, and a reconnect swaps
// server-side state from the client's lane — so it must be routed to the
// serial kernel whatever -parallel says (on the sharded kernel that swap is
// a data race, which -race in CI would report here).
func TestChaosParallelMatchesSerial(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	plans := chaosPlans(o)
	for _, pl := range []chaosPlan{plans[1], plans[2]} {
		run := func(workers int) (row string, digest uint64, events int, reconnects uint64) {
			o := o
			o.Parallel = workers
			row, results, agg, inj := runChaosPlan(o, pl, 6, 120)
			for i, r := range results {
				if !r.finished {
					t.Fatalf("%s workers=%d: client %d never finished", pl.name, workers, i)
				}
			}
			return row, inj.Digest(), inj.Events(), agg.Reconnects
		}
		row1, dig1, ev1, rec1 := run(1)
		row4, dig4, _, _ := run(4)
		if ev1 == 0 {
			t.Fatalf("%s plan injected nothing", pl.name)
		}
		if row1 != row4 || dig1 != dig4 {
			t.Fatalf("%s: 1 worker vs 4 diverged:\n%s\n%s\ndigest %016x vs %016x", pl.name, row1, row4, dig1, dig4)
		}
		if pl.plan.NeedsSerial() && rec1 == 0 {
			t.Fatalf("%s: no reconnects — the plan never exercised the path that forces the serial kernel", pl.name)
		}
	}
}
