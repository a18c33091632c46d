package scenario

// Linearizability-harness tests: the property that fault-free replica runs
// always certify linearizable with a deterministic verdict, the chaos
// certification of the seeded failover scenario on both kernels, and a
// direct check that the harness-side history evaluator pins violations.

import (
	"strings"
	"testing"

	"rfp/internal/linz"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// faultFreeReplica is an unregistered scenario used as a property-test
// subject: a quorum group under a mixed read/write/RMW load with no faults.
func faultFreeReplica() Scenario {
	return Scenario{
		Name: "replica-steady",
		Desc: "fault-free quorum group under mixed load",
		Topology: Topology{
			ClientMachines: 2,
			Threads:        4,
			Servers:        3,
			Keys:           32,
		},
		Backends: []string{BackendReplica, BackendReplicaLeader},
		Phases: []Phase{
			{
				Name:     "mixed",
				Duration: 300 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.6, RMWFraction: 0.2},
				Invariants: []Invariant{
					{Kind: MaxFailedFrac, Bound: 0},
				},
			},
		},
		Invariants: append(base(), Invariant{Kind: Linearizable}),
	}
}

// TestFaultFreeRunsLinearizable is the property test: every fault-free
// seeded run of the replicated backends certifies linearizable, and
// re-running the same configuration reproduces the exact verdict line (same
// ops, partitions and search node count — the checker is deterministic in
// the history).
func TestFaultFreeRunsLinearizable(t *testing.T) {
	sc := faultFreeReplica()
	for _, be := range sc.Backends {
		for seed := int64(1); seed <= 24; seed++ {
			opt := Options{Seed: seed}
			rep, err := Run(sc, be, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Linz == nil {
				t.Fatalf("%s seed %d: no linearizability verdict", be, seed)
			}
			if !rep.Linz.OK || !rep.OK() {
				t.Fatalf("%s seed %d failed:\n%s", be, seed, rep.Render())
			}
			again, err := Run(sc, be, opt)
			if err != nil {
				t.Fatal(err)
			}
			if again.Linz == nil || again.Linz.Detail != rep.Linz.Detail {
				t.Fatalf("%s seed %d: verdict not deterministic:\n%s\nvs\n%s",
					be, seed, rep.Linz.Detail, again.Linz.Detail)
			}
		}
	}
}

// TestChaosHistoriesCertified certifies the seeded failover chaos runs:
// every (backend, seed) pair of replica-failover — leader crash, lease wait,
// epoch election, rejoin — passes the checker, over seeds 1–24: a request
// that re-runs its handler when resent broke seed 3 only, so a few seeds
// are too few to be sure of the rule.
func TestChaosHistoriesCertified(t *testing.T) {
	sc, ok := Get("replica-failover")
	if !ok {
		t.Fatal("replica-failover not registered")
	}
	for _, be := range sc.Backends {
		for seed := int64(1); seed <= 24; seed++ {
			rep, err := Run(sc, be, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Linz == nil || !rep.Linz.OK {
				t.Fatalf("%s seed %d: history not certified:\n%s", be, seed, rep.Render())
			}
			if !rep.OK() {
				t.Fatalf("%s seed %d failed:\n%s", be, seed, rep.Render())
			}
			if rep.FaultEvents == 0 {
				t.Fatalf("%s seed %d: no fault events — the crash never happened", be, seed)
			}
		}
	}
}

// TestCheckHistoryPinsViolation feeds the harness evaluator a hand-built
// non-linearizable history (a read returning the preload value after an
// acknowledged overwrite) and requires a failing verdict carrying the
// minimized counterexample.
func TestCheckHistoryPinsViolation(t *testing.T) {
	a := linz.NewClientLog(0)
	b := linz.NewClientLog(1)
	a.Write(5, 42, 0, 10)
	b.Read(5, 0, true, 20, 30) // stale: preload value after the write returned
	v := checkHistory([]*linz.ClientLog{a, b})
	if v.OK {
		t.Fatalf("stale-read history passed: %s", v.Detail)
	}
	if !strings.Contains(v.Detail, "illegal") || !strings.Contains(v.Detail, "counterexample") {
		t.Fatalf("verdict does not pin the violation: %s", v.Detail)
	}
	if !strings.Contains(v.Detail, "W(k5=v42)") || !strings.Contains(v.Detail, "R(k5)=v0") {
		t.Fatalf("counterexample missing the conflicting ops: %s", v.Detail)
	}
}
