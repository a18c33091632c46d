package scenario

// The invariant grammar: small declarative assertions evaluated against a
// phase's observations. Invariants are data (kind + numeric bound), so a
// scenario's correctness contract reads off its declaration, and the same
// evaluator runs under `go test`, cmd/rfpsim and the determinism suite.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/faults"
	"rfp/internal/telemetry"
)

// Kind names one invariant evaluator.
type Kind string

// The invariant kinds.
const (
	// NoLost: every issued call is accounted for — done, failed or
	// corrupted — and no driver left a phase unfinished. Bound unused.
	NoLost Kind = "no-lost"
	// NoCorruption: no GET returned a value that fails integrity
	// verification against the fill pattern. Bound unused.
	NoCorruption Kind = "no-corruption"
	// AllResolved: every driver resolved all its outstanding handles and
	// reached the phase barrier. Bound unused.
	AllResolved Kind = "all-resolved"
	// P99Below: the phase's p99 operation latency is at most Bound
	// microseconds. Vacuously true for a phase with no completed calls.
	P99Below Kind = "p99-below-us"
	// ThroughputFloor: completed ops per simulated millisecond is at least
	// Bound.
	ThroughputFloor Kind = "ops-per-ms-at-least"
	// MaxDemotions: at most Bound permanent demotions to server-reply mode
	// across all clients (recovery stats delta for the phase).
	MaxDemotions Kind = "max-demotions"
	// MaxFailedFrac: at most Bound fraction of issued calls failed
	// terminally (deadline errors during crash windows). Vacuously true
	// when nothing was issued.
	MaxFailedFrac Kind = "max-failed-frac"
	// Replay is run-level, not per-phase: the scenario re-run with the
	// same seed must produce a byte-identical report and trace digest.
	// Evaluated by Verify; Eval rejects it.
	Replay Kind = "deterministic-replay"
	// Linearizable is run-level, not per-phase: the run records every
	// client thread's versioned operation history and the linz checker
	// (internal/linz) must certify a legal per-key total order, or the
	// report carries the minimized counterexample. Only the replica
	// backends record histories; Eval rejects it per phase.
	Linearizable Kind = "linearizable"
)

// Invariant is one declarative assertion: a kind plus its numeric bound
// (unused by the set-membership kinds).
type Invariant struct {
	Kind  Kind
	Bound float64
}

func (iv Invariant) String() string {
	switch iv.Kind {
	case NoLost, NoCorruption, AllResolved, Replay, Linearizable:
		return string(iv.Kind)
	case P99Below, MaxDemotions:
		return fmt.Sprintf("%s %.0f", iv.Kind, iv.Bound)
	case ThroughputFloor:
		return fmt.Sprintf("%s %.1f", iv.Kind, iv.Bound)
	case MaxFailedFrac:
		return fmt.Sprintf("%s %.3f", iv.Kind, iv.Bound)
	default:
		return fmt.Sprintf("%s %g", iv.Kind, iv.Bound)
	}
}

// PhaseObs is everything the runner observed about one phase: driver-side
// accounting (issued/done/failed/corrupted, charged to the phase that
// issued the op), the merged per-thread latency histogram, the telemetry
// and transport-stat deltas for the phase window, and the fault tallies
// attributed to the phase's schedule stage.
type PhaseObs struct {
	Phase      string
	DurationNs int64

	Issued     uint64 // ops drawn and submitted by drivers
	Done       uint64 // ops completed without error (GET misses included)
	Missed     uint64 // of Done: GETs, and RMW read halves, that found no value
	Failed     uint64 // ops that returned an error (deadline exhaustion etc.)
	Corrupted  uint64 // GETs whose value failed integrity verification
	Unfinished int    // drivers that never reached this phase's barrier

	Lat    telemetry.HistSnap // op latency (ns), merged across threads
	Tel    telemetry.Snapshot // RFP telemetry delta (zero for non-RFP backends)
	Stats  core.ClientStats   // RFP transport-stats delta (zero for pilafkv and replica)
	Faults faults.Counts      // injected faults attributed to this phase
}

// Verdict is one evaluated invariant.
type Verdict struct {
	Invariant Invariant
	OK        bool
	Detail    string // the measured quantity, for the report line
}

func (v Verdict) String() string {
	status := "PASS"
	if !v.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("%s %s (%s)", status, v.Invariant, v.Detail)
}

// p99us returns the phase's p99 latency in microseconds.
func (o *PhaseObs) p99us() float64 { return float64(o.Lat.Percentile(0.99)) / 1e3 }

// opsPerMs returns completed operations per simulated millisecond.
func (o *PhaseObs) opsPerMs() float64 {
	if o.DurationNs <= 0 {
		return 0
	}
	return float64(o.Done) / (float64(o.DurationNs) / 1e6)
}

// Eval evaluates one invariant against a phase's observations. Replay is a
// run-level invariant and cannot be evaluated per phase.
func Eval(iv Invariant, o *PhaseObs) Verdict {
	v := Verdict{Invariant: iv}
	switch iv.Kind {
	case NoLost:
		acct := o.Done + o.Failed + o.Corrupted
		v.OK = acct == o.Issued && o.Unfinished == 0
		v.Detail = fmt.Sprintf("issued %d = done %d + failed %d + corrupt %d, unfinished %d",
			o.Issued, o.Done, o.Failed, o.Corrupted, o.Unfinished)
	case NoCorruption:
		v.OK = o.Corrupted == 0
		v.Detail = fmt.Sprintf("corrupt %d", o.Corrupted)
	case AllResolved:
		v.OK = o.Unfinished == 0
		v.Detail = fmt.Sprintf("unfinished %d", o.Unfinished)
	case P99Below:
		if o.Lat.Count == 0 {
			v.OK = true
			v.Detail = "no completed calls"
			break
		}
		p := o.p99us()
		v.OK = p <= iv.Bound
		v.Detail = fmt.Sprintf("p99 %.2fus", p)
	case ThroughputFloor:
		r := o.opsPerMs()
		v.OK = r >= iv.Bound
		v.Detail = fmt.Sprintf("%.1f ops/ms", r)
	case MaxDemotions:
		v.OK = float64(o.Stats.Demotions) <= iv.Bound
		v.Detail = fmt.Sprintf("demotions %d", o.Stats.Demotions)
	case MaxFailedFrac:
		if o.Issued == 0 {
			v.OK = true
			v.Detail = "no calls issued"
			break
		}
		frac := float64(o.Failed) / float64(o.Issued)
		v.OK = frac <= iv.Bound
		v.Detail = fmt.Sprintf("failed %d/%d (%.4f)", o.Failed, o.Issued, frac)
	case Replay:
		v.OK = false
		v.Detail = "replay is a run-level invariant (use Verify)"
	case Linearizable:
		v.OK = false
		v.Detail = "linearizability is a run-level invariant (evaluated by Run)"
	default:
		v.OK = false
		v.Detail = fmt.Sprintf("unknown invariant kind %q", iv.Kind)
	}
	return v
}

// evalPhase evaluates the scenario-wide invariants plus the phase's own,
// in declaration order, skipping run-level Replay.
func evalPhase(sc *Scenario, ph *Phase, o *PhaseObs) []Verdict {
	var out []Verdict
	for _, iv := range sc.Invariants {
		if iv.Kind == Replay || iv.Kind == Linearizable {
			continue
		}
		out = append(out, Eval(iv, o))
	}
	for _, iv := range ph.Invariants {
		out = append(out, Eval(iv, o))
	}
	return out
}

// declares reports whether the scenario declares the run-level invariant
// k (Replay or Linearizable).
func (sc Scenario) declares(k Kind) bool {
	for _, iv := range sc.Invariants {
		if iv.Kind == k {
			return true
		}
	}
	return false
}
