package experiments

// The fault sweep's contract: none, light, heavy, crash and recovered
// phases on every declared backend, one call in flight per thread (the
// chaos scenario) or a window of posted ops (chaos-pipelined). The sweep
// runs as registered scenarios; these are its acceptance tests. Every run
// passes base() and its phase floors and replays exactly; on top, each
// phase must show the fault plan actually reached the transport.

import (
	"fmt"
	"reflect"
	"testing"

	"rfp/internal/faults"
	"rfp/internal/scenario"
)

var chaosScenarios = []string{"chaos", "chaos-pipelined"}

// chaosScenario returns a registered chaos scenario.
func chaosScenario(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return sc
}

// phaseByName indexes a report's phases.
func phaseByName(rep *scenario.Report) map[string]*scenario.PhaseObs {
	m := make(map[string]*scenario.PhaseObs, len(rep.Phases))
	for i := range rep.Phases {
		m[rep.Phases[i].Obs.Phase] = &rep.Phases[i].Obs
	}
	return m
}

// opsPerMs is a phase's completed operations per simulated millisecond.
func opsPerMs(o *scenario.PhaseObs) float64 {
	return float64(o.Done) / (float64(o.DurationNs) / 1e6)
}

// TestChaosInvariants: every chaos run loses no op, accepts no damaged
// value, leaves no driver stuck, holds its phase floors and replays byte
// for byte, for seeds 1-4; and the sweep does what it says: the empty plan
// costs nothing, heavy faulting reaches the retry path, the crash plan
// crashes and restarts the server once and forces reconnects.
func TestChaosInvariants(t *testing.T) {
	for _, name := range chaosScenarios {
		sc := chaosScenario(t, name)
		for _, be := range sc.Backends {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, be, seed), func(t *testing.T) {
					rep, err := scenario.Verify(sc, be, scenario.Options{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if rep.Replay == nil || !rep.OK() {
						t.Fatalf("scenario failed:\n%s", rep.Render())
					}
					ph := phaseByName(rep)
					if o := ph["none"]; o.Faults != (faults.Counts{}) || o.Failed != 0 ||
						o.Stats.FaultRetries != 0 || o.Stats.Reconnects != 0 {
						t.Errorf("none: faults %+v, failed %d, retries %d, reconnects %d; want all zero",
							o.Faults, o.Failed, o.Stats.FaultRetries, o.Stats.Reconnects)
					}
					if o := ph["heavy"]; o.Stats.FaultRetries == 0 {
						t.Error("heavy: no fault retries (injection not reaching the rings)")
					}
					o := ph["crash"]
					if o.Stats.Reconnects == 0 {
						t.Error("crash: server crash produced no reconnects")
					}
					if o.Faults.Crashes != 1 || o.Faults.Restarts != 1 {
						t.Errorf("crash: %d crashes, %d restarts; want 1 and 1", o.Faults.Crashes, o.Faults.Restarts)
					}
				})
			}
		}
	}
}

// TestChaosDeterministicReplay: the whole sweep replays exactly from the
// same seed, including what the rendered report (and so the replay
// invariant's digest) leaves out: misses, whole latency histograms,
// telemetry and transport-stats deltas, and the fault trace.
func TestChaosDeterministicReplay(t *testing.T) {
	for _, name := range chaosScenarios {
		sc := chaosScenario(t, name)
		for _, be := range sc.Backends {
			a, err := scenario.Run(sc, be, scenario.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			b, err := scenario.Run(sc, be, scenario.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Phases) != 5 || a.FaultEvents == 0 {
				t.Fatalf("%s/%s: %d phases, %d fault events; want 5 phases and a fault trace",
					name, be, len(a.Phases), a.FaultEvents)
			}
			if a.FaultEvents != b.FaultEvents || a.FaultDigest != b.FaultDigest {
				t.Errorf("%s/%s: fault trace diverged: %d events %016x vs %d events %016x",
					name, be, a.FaultEvents, a.FaultDigest, b.FaultEvents, b.FaultDigest)
			}
			for i := range a.Phases {
				if x, y := a.Phases[i].Obs, b.Phases[i].Obs; !reflect.DeepEqual(x, y) {
					t.Errorf("%s/%s phase %s diverged:\n%+v\nvs\n%+v", name, be, x.Phase, x, y)
				}
			}
		}
	}
}

// TestChaosGracefulDegradation: heavy faulting costs throughput, not
// correctness. The fault-free phase completes every call it issues and the
// heavy phase at least 90% of them; the heavy phase's rate stays within an
// order of magnitude of the fault-free phase's, and below it (a plan with
// no cost is not reaching the fabric).
func TestChaosGracefulDegradation(t *testing.T) {
	for _, name := range chaosScenarios {
		sc := chaosScenario(t, name)
		for _, be := range sc.Backends {
			rep, err := scenario.Run(sc, be, scenario.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			ph := phaseByName(rep)
			if o := ph["none"]; o.Done != o.Issued {
				t.Errorf("%s/%s: fault-free phase completed %d/%d calls", name, be, o.Done, o.Issued)
			}
			if o := ph["heavy"]; o.Done < o.Issued*9/10 {
				t.Errorf("%s/%s: heavy phase completed only %d/%d calls", name, be, o.Done, o.Issued)
			}
			none, heavy := opsPerMs(ph["none"]), opsPerMs(ph["heavy"])
			if heavy < 0.1*none || heavy >= none {
				t.Errorf("%s/%s: heavy %.1f ops/ms vs fault-free %.1f, want in [10%%, 100%%)", name, be, heavy, none)
			}
		}
	}
}

// TestChaosStoresResolve runs the chaos sweep on the two stores it does not
// declare. Their clients must ride the same recovery envelope: every op
// accounted for, every driver finished and no GET corrupt, in every phase.
// A re-executed request must not store bytes from the next request in its
// ring slot (memckv did at seeds 1 and 4 while its handler read the slot
// after yielding).
func TestChaosStoresResolve(t *testing.T) {
	sc := chaosScenario(t, "chaos")
	for _, be := range []string{scenario.BackendMemcKV, scenario.BackendPilafKV} {
		for seed := int64(1); seed <= 4; seed++ {
			rep, err := scenario.Run(sc, be, scenario.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for i := range rep.Phases {
				o := &rep.Phases[i].Obs
				for _, k := range []scenario.Kind{scenario.NoLost, scenario.AllResolved, scenario.NoCorruption} {
					if v := scenario.Eval(scenario.Invariant{Kind: k}, o); !v.OK {
						t.Errorf("%s seed %d phase %s: %s", be, seed, o.Phase, v)
					}
				}
			}
		}
	}
}
