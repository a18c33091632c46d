package experiments

import (
	"testing"

	"rfp/internal/sim"
)

// TestScaleoutShardedOrderPinned pins the sharded kernel's event order on a
// real topology: one quick 4-server pipelined ext-scaleout point (18 lanes)
// run with SetSharded(1), the configuration the benchmark's pipelined
// scale-out workload measures. The kernel digest folds every retired
// (t, seq) pair per lane, so any change to lane retirement, window barriers
// or cross-lane delivery order moves it, and the MOPS with it.
func TestScaleoutShardedOrderPinned(t *testing.T) {
	const (
		wantDigest = 0x69343cb9e9473258
		wantEvents = 471042
		wantMOPS   = 14.7825
	)
	var env *sim.Env
	scaleoutEnvHook = func(e *sim.Env) {
		env = e
		e.SetSharded(1)
		e.EnableKernelTrace()
	}
	defer func() { scaleoutEnvHook = nil }()
	// The pin predates the archive's options: half its warm-up and window.
	o := archiveOpts()
	o.Warmup, o.Window = 400*sim.Microsecond, 800*sim.Microsecond
	mops, events := runScaleout(o, 4, true)
	if !env.Sharded() {
		t.Fatal("run was not sharded")
	}
	if d := env.KernelDigest(); d != wantDigest || events != wantEvents || mops != wantMOPS {
		t.Fatalf("sharded event order moved: digest %#016x events %d MOPS %v, want %#016x %d %v",
			d, events, mops, uint64(wantDigest), wantEvents, wantMOPS)
	}
}
