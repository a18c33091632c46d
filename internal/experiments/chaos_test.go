package experiments

import (
	"strings"
	"testing"
)

// TestChaosInvariants runs every fault plan and asserts the harness's hard
// guarantees: no call is ever lost (unaccounted), no corrupted response is
// ever accepted, and every client loop runs to completion — the ring never
// deadlocks, even across a whole-server crash.
func TestChaosInvariants(t *testing.T) {
	o := archiveOpts()
	const clients, calls = 6, 120
	for _, pl := range chaosPlans(o) {
		_, results, agg, inj := runChaosPlan(o, pl, clients, calls)
		var done, failed int
		for i, r := range results {
			if !r.finished {
				t.Errorf("%s: client %d never finished (deadlock)", pl.name, i)
				continue
			}
			if lost := calls - r.done - r.failed - r.corrupted; lost != 0 {
				t.Errorf("%s: client %d lost %d calls", pl.name, i, lost)
			}
			if r.corrupted != 0 {
				t.Errorf("%s: client %d accepted %d corrupted responses", pl.name, i, r.corrupted)
			}
			done += r.done
			failed += r.failed
		}
		if done == 0 {
			t.Errorf("%s: no calls completed", pl.name)
		}
		switch pl.name {
		case "none":
			// Zero-cost contract: an empty plan draws nothing, injects
			// nothing, and the recovery machinery never fires.
			if inj.Events() != 0 {
				t.Errorf("none: empty plan injected %d events:\n%s", inj.Events(), inj.TraceString())
			}
			if failed != 0 || agg.FaultRetries != 0 || agg.Reconnects != 0 {
				t.Errorf("none: failed=%d retries=%d reconnects=%d, want all zero",
					failed, agg.FaultRetries, agg.Reconnects)
			}
		case "heavy":
			if agg.FaultRetries == 0 {
				t.Errorf("heavy: fault plan produced no retries (injection not reaching the ring)")
			}
		case "crash":
			if agg.Reconnects == 0 {
				t.Errorf("crash: server crash produced no reconnects")
			}
			if c := inj.Counts(); c.Crashes != 1 || c.Restarts != 1 {
				t.Errorf("crash: counts = %+v, want 1 crash / 1 restart", c)
			}
		}
	}
}

// TestChaosDeterministicReplay: the whole sweep — fault decisions, recovery
// races, crash timing, rendered rows and trace digests — must replay
// byte-identically from the same seed.
func TestChaosDeterministicReplay(t *testing.T) {
	assertReplays(t, "ext-chaos")
	a := archived(t, "ext-chaos")
	if !strings.Contains(a.String(), "none") || len(a.Rows) != 5 {
		t.Fatalf("unexpected result shape:\n%s", a)
	}
}

// TestChaosGracefulDegradation: heavy faulting must cost throughput, not
// correctness — completions stay near-total and the rate stays within an
// order of magnitude of the fault-free run rather than collapsing.
func TestChaosGracefulDegradation(t *testing.T) {
	o := archiveOpts()
	const clients, calls = 6, 120
	total := clients * calls
	rate := func(pl chaosPlan) (float64, int) {
		_, results, _, _ := runChaosPlan(o, pl, clients, calls)
		var done int
		var end int64
		for _, r := range results {
			done += r.done
			if int64(r.endAt) > end {
				end = int64(r.endAt)
			}
		}
		if end == 0 {
			t.Fatalf("%s: no client recorded an end time", pl.name)
		}
		return float64(done) / float64(end), done
	}
	plans := chaosPlans(o)
	baseline, baseDone := rate(plans[0]) // none
	heavy, heavyDone := rate(plans[2])
	if baseDone != total {
		t.Fatalf("fault-free run completed %d/%d calls", baseDone, total)
	}
	if heavyDone < total*9/10 {
		t.Errorf("heavy plan completed only %d/%d calls", heavyDone, total)
	}
	if heavy < baseline*0.1 {
		t.Errorf("heavy throughput %.3g is below 10%% of fault-free %.3g — degradation is not graceful", heavy, baseline)
	}
	if heavy >= baseline {
		t.Errorf("heavy throughput %.3g >= fault-free %.3g — injection has no cost, plan is not reaching the fabric", heavy, baseline)
	}
}
