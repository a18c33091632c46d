package scenario

// Table-driven coverage of the invariant evaluator: each kind with a
// passing and a failing observation, the boundary-exact p99 case (all
// samples equal, so Percentile is exact and "p99 == bound" must pass),
// and the vacuous zero-call phases.

import (
	"strings"
	"testing"

	"rfp/internal/telemetry"
)

// latAll returns a latency snapshot of n samples all equal to ns. With
// Min == Max the percentile clamp makes every quantile exactly ns.
func latAll(n int, ns int64) telemetry.HistSnap {
	var h telemetry.Hist
	for i := 0; i < n; i++ {
		h.Add(ns)
	}
	return h.Snap()
}

// obsClean is a fully-accounted phase: 1000 issued over 2ms, all done,
// every latency exactly 40us.
func obsClean() PhaseObs {
	return PhaseObs{
		Phase:      "t",
		DurationNs: 2_000_000,
		Issued:     1000,
		Done:       1000,
		Lat:        latAll(1000, 40_000),
	}
}

func TestEvalTable(t *testing.T) {
	lost := obsClean()
	lost.Done = 990 // 10 calls vanished

	unfinished := obsClean()
	unfinished.Unfinished = 2

	corrupt := obsClean()
	corrupt.Done = 997
	corrupt.Corrupted = 3

	failed := obsClean()
	failed.Done = 900
	failed.Failed = 100

	demoted := obsClean()
	demoted.Stats.Demotions = 4

	empty := PhaseObs{Phase: "idle", DurationNs: 1_000_000}

	cases := []struct {
		name   string
		iv     Invariant
		obs    PhaseObs
		ok     bool
		detail string // substring of the verdict detail
	}{
		{"no-lost pass", Invariant{Kind: NoLost}, obsClean(), true, "issued 1000"},
		{"no-lost missing calls", Invariant{Kind: NoLost}, lost, false, "done 990"},
		{"no-lost unfinished driver", Invariant{Kind: NoLost}, unfinished, false, "unfinished 2"},
		{"no-lost counts corrupt as accounted", Invariant{Kind: NoLost}, corrupt, true, "corrupt 3"},
		{"no-lost counts failed as accounted", Invariant{Kind: NoLost}, failed, true, "failed 100"},

		{"no-corruption pass", Invariant{Kind: NoCorruption}, obsClean(), true, "corrupt 0"},
		{"no-corruption fail", Invariant{Kind: NoCorruption}, corrupt, false, "corrupt 3"},

		{"all-resolved pass", Invariant{Kind: AllResolved}, obsClean(), true, "unfinished 0"},
		{"all-resolved fail", Invariant{Kind: AllResolved}, unfinished, false, "unfinished 2"},

		// All samples are exactly 40us, so p99 == 40.00 exactly: the bound
		// is inclusive and the boundary case must pass.
		{"p99 boundary-exact pass", Invariant{Kind: P99Below, Bound: 40}, obsClean(), true, "p99 40.00us"},
		{"p99 above bound", Invariant{Kind: P99Below, Bound: 39.99}, obsClean(), false, "p99 40.00us"},
		{"p99 below bound", Invariant{Kind: P99Below, Bound: 41}, obsClean(), true, "p99 40.00us"},
		{"p99 vacuous on zero calls", Invariant{Kind: P99Below, Bound: 1}, empty, true, "no completed calls"},

		// 1000 done over 2ms = 500 ops/ms exactly; the floor is inclusive.
		{"throughput boundary-exact pass", Invariant{Kind: ThroughputFloor, Bound: 500}, obsClean(), true, "500.0 ops/ms"},
		{"throughput below floor", Invariant{Kind: ThroughputFloor, Bound: 500.1}, obsClean(), false, "500.0 ops/ms"},
		{"throughput zero-call phase fails a floor", Invariant{Kind: ThroughputFloor, Bound: 1}, empty, false, "0.0 ops/ms"},

		{"max-demotions pass", Invariant{Kind: MaxDemotions, Bound: 4}, demoted, true, "demotions 4"},
		{"max-demotions fail", Invariant{Kind: MaxDemotions, Bound: 3}, demoted, false, "demotions 4"},

		{"max-failed-frac boundary-exact pass", Invariant{Kind: MaxFailedFrac, Bound: 0.1}, failed, true, "failed 100/1000"},
		{"max-failed-frac fail", Invariant{Kind: MaxFailedFrac, Bound: 0.09}, failed, false, "failed 100/1000"},
		{"max-failed-frac zero bound pass", Invariant{Kind: MaxFailedFrac, Bound: 0}, obsClean(), true, "failed 0/1000"},
		{"max-failed-frac vacuous on zero issued", Invariant{Kind: MaxFailedFrac, Bound: 0}, empty, true, "no calls issued"},

		{"replay rejected per-phase", Invariant{Kind: Replay}, obsClean(), false, "run-level"},
		{"unknown kind fails", Invariant{Kind: Kind("bogus")}, obsClean(), false, "unknown invariant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := tc.obs
			v := Eval(tc.iv, &obs)
			if v.OK != tc.ok {
				t.Fatalf("Eval(%v) OK = %v, want %v (detail %q)", tc.iv, v.OK, tc.ok, v.Detail)
			}
			if !strings.Contains(v.Detail, tc.detail) {
				t.Fatalf("Eval(%v) detail %q does not contain %q", tc.iv, v.Detail, tc.detail)
			}
			wantStatus := "FAIL"
			if tc.ok {
				wantStatus = "PASS"
			}
			if !strings.HasPrefix(v.String(), wantStatus+" ") {
				t.Fatalf("verdict %q does not start with %q", v.String(), wantStatus)
			}
		})
	}
}

func TestInvariantString(t *testing.T) {
	cases := map[string]Invariant{
		"no-lost":                   {Kind: NoLost},
		"deterministic-replay":      {Kind: Replay},
		"p99-below-us 40":           {Kind: P99Below, Bound: 40},
		"ops-per-ms-at-least 250.5": {Kind: ThroughputFloor, Bound: 250.5},
		"max-demotions 6":           {Kind: MaxDemotions, Bound: 6},
		"max-failed-frac 0.125":     {Kind: MaxFailedFrac, Bound: 0.125},
	}
	for want, iv := range cases {
		if got := iv.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// evalPhase must run the scenario-wide invariants (minus run-level Replay)
// before the phase's own, in declaration order.
func TestEvalPhaseOrderAndReplaySkip(t *testing.T) {
	sc := Scenario{
		Invariants: []Invariant{{Kind: NoLost}, {Kind: Replay}, {Kind: NoCorruption}},
	}
	ph := Phase{
		Invariants: []Invariant{{Kind: P99Below, Bound: 100}},
	}
	obs := obsClean()
	vs := evalPhase(&sc, &ph, &obs)
	var kinds []Kind
	for _, v := range vs {
		kinds = append(kinds, v.Invariant.Kind)
	}
	want := []Kind{NoLost, NoCorruption, P99Below}
	if len(kinds) != len(want) {
		t.Fatalf("evalPhase returned kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("evalPhase order %v, want %v", kinds, want)
		}
	}
	for _, v := range vs {
		if !v.OK {
			t.Errorf("clean obs failed %v: %s", v.Invariant, v.Detail)
		}
	}
}
