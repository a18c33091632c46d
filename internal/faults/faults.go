// Package faults is the deterministic fault-injection fabric (extension,
// DESIGN.md §10). A Plan describes what can go wrong — probabilistic
// completion drops, extra in-flight delay, payload corruption, QP error
// transitions, scheduled whole-machine crash windows and region
// invalidations — Stages string plans along the simulation clock, and
// Install attaches one Injector per machine that executes them against the
// rnic data path through the rnic.FaultInjector seam.
//
// Everything is driven off the simulation clock and private PRNGs seeded
// from the install seed and the machine name: each injector is confined to
// its machine's scheduler lane, which retires events deterministically, so
// every run of the same workload under the same schedule replays
// byte-identically on either kernel — the event trace (TraceString, Digest)
// is the replay witness the chaos harness asserts on.
//
// Corruption semantics: Damage clears the slot header's status bit before
// flipping payload bytes, modeling a torn delivery whose last byte (the
// status bit, written last by the wire protocol) never landed. RFP's
// incomplete-fetch detection therefore always classifies a corrupted image
// as "not yet valid" and retries — corrupted data is exercised, never
// accepted.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"rfp/internal/rnic"
	"rfp/internal/sim"
)

// Window schedules a whole-machine crash: the machine fails at Start and, if
// End > Start, restarts at End. While down its NIC refuses all operations and
// every registered region is invalidated and zeroed (memory does not survive
// a crash). Times are relative to the start of the stage declaring them.
type Window struct {
	Machine    string
	Start, End sim.Time
}

// Invalidation schedules the loss of one memory registration at a point in
// time (relative to its stage's start) — an MR revoked underneath live
// remote handles.
type Invalidation struct {
	Machine string
	At      sim.Time
	Region  int // registration-order index, wrapped into range
}

// delayNs is the extra in-flight latency of one delay fault.
const delayNs = 2000

// Plan describes the faults to inject while it is in force. The zero Plan
// injects nothing. Probabilities are per one-sided operation.
type Plan struct {
	DropProb    float64 // lose the completion (op may have executed)
	DelayProb   float64 // add delayNs of in-flight latency
	CorruptProb float64 // damage the delivered bytes (status bit last)
	QPErrorProb float64 // fail the op and error the QP

	// TimeoutNs is the initiator's detection latency for dropped completions
	// (default 10µs).
	TimeoutNs int64
	// ReadsOnly restricts probabilistic faults to RDMA Reads — the fetch
	// path — leaving request delivery untouched.
	ReadsOnly bool

	Crashes       []Window
	Invalidations []Invalidation
}

// Enabled reports whether the plan injects anything at all.
func (pl Plan) Enabled() bool {
	return pl.DropProb > 0 || pl.DelayProb > 0 || pl.CorruptProb > 0 || pl.QPErrorProb > 0 ||
		len(pl.Crashes) > 0 || len(pl.Invalidations) > 0
}

// Stage is one window of a fault schedule: Plan is in force from Start
// until the next stage's Start (the last stage runs forever). A single
// plan is the one-stage schedule []Stage{{Plan: pl}}.
type Stage struct {
	Start sim.Time
	Plan  Plan
}

// Counts tallies injected faults by kind.
type Counts struct {
	Drops, Delays, Corruptions, QPErrors uint64
	Crashes, Restarts, Invalidations     uint64
}

// Add returns the field-by-field sum of two tallies.
func (c Counts) Add(o Counts) Counts {
	c.Drops += o.Drops
	c.Delays += o.Delays
	c.Corruptions += o.Corruptions
	c.QPErrors += o.QPErrors
	c.Crashes += o.Crashes
	c.Restarts += o.Restarts
	c.Invalidations += o.Invalidations
	return c
}

// Injector executes a stage sequence for one machine. It implements
// rnic.FaultInjector; Install builds and attaches one per NIC. Stage
// boundaries are crossed by watching the decision clock, never by scheduled
// events, so the injector stays a passive data-path observer. All state is
// confined to the machine's scheduler lane.
type Injector struct {
	stages []Stage
	idx    int // active stage (monotone: decision times never go back)
	rng    *rand.Rand
	events []string
	counts []Counts // per stage
}

// New builds an injector for the stage sequence, applying each plan's
// defaults. Stages must be ordered by ascending Start; the one seed drives
// every stage, so two schedules differing only in probabilities still draw
// from the same stream positions until their first divergence.
func New(seed int64, stages []Stage) *Injector {
	if len(stages) == 0 {
		stages = []Stage{{}}
	}
	stages = append([]Stage(nil), stages...)
	for i := range stages {
		if i > 0 && stages[i].Start < stages[i-1].Start {
			panic(fmt.Sprintf("faults: schedule stages out of order (%d before %d)",
				int64(stages[i].Start), int64(stages[i-1].Start)))
		}
		if stages[i].Plan.TimeoutNs <= 0 {
			stages[i].Plan.TimeoutNs = 10_000
		}
	}
	return &Injector{
		stages: stages,
		rng:    rand.New(rand.NewSource(seed)),
		counts: make([]Counts, len(stages)),
	}
}

// Decide implements rnic.FaultInjector: one decision per one-sided op,
// under whichever stage's plan covers now. Fault kinds are mutually
// exclusive per op (first match wins) except delay, which composes with
// drop and corrupt.
func (in *Injector) Decide(now sim.Time, op rnic.FaultOp) rnic.FaultAction {
	for in.idx+1 < len(in.stages) && in.stages[in.idx+1].Start <= now {
		in.idx++
	}
	pl, c := &in.stages[in.idx].Plan, &in.counts[in.idx]
	if pl.ReadsOnly && op.Op != rnic.WRRead {
		return rnic.FaultAction{}
	}
	var act rnic.FaultAction
	switch {
	case pl.QPErrorProb > 0 && in.rng.Float64() < pl.QPErrorProb:
		act.Err = rnic.ErrQPState
		act.QPError = true
		c.QPErrors++
		in.note(now, "qperror", op)
	case pl.DropProb > 0 && in.rng.Float64() < pl.DropProb:
		act.DropNs = pl.TimeoutNs
		c.Drops++
		in.note(now, "drop", op)
	// Ops of ≤4 bytes (the mode flag) carry no payload past the status
	// word; corrupting them would model nothing the protocol can see.
	case pl.CorruptProb > 0 && op.Bytes > 4 && in.rng.Float64() < pl.CorruptProb:
		act.Corrupt = true
		c.Corruptions++
		in.note(now, "corrupt", op)
	}
	if act.Err == nil && pl.DelayProb > 0 && in.rng.Float64() < pl.DelayProb {
		act.ExtraNs = delayNs
		c.Delays++
		in.note(now, "delay", op)
	}
	return act
}

// Damage implements rnic.FaultInjector: clear the status bit (buf[3] bit 7 —
// the byte the wire protocol writes last), then flip 1–3 bytes of payload.
// The bit is never re-set, so a damaged image can only parse as invalid.
func (in *Injector) Damage(op rnic.FaultOp, buf []byte) {
	if len(buf) >= 4 {
		buf[3] &^= 0x80
	}
	if len(buf) <= 4 {
		return
	}
	flips := 1 + in.rng.Intn(3)
	for i := 0; i < flips; i++ {
		j := 4 + in.rng.Intn(len(buf)-4)
		buf[j] ^= byte(1 + in.rng.Intn(255))
	}
}

// note appends one event to the replay trace.
func (in *Injector) note(now sim.Time, kind string, op rnic.FaultOp) {
	in.events = append(in.events, fmt.Sprintf("t=%d %s %s %s->%s %dB",
		int64(now), kind, op.Op, op.Initiator, op.Target, op.Bytes))
}

// noteAt appends one scheduled (crash/invalidate) event to the trace.
func (in *Injector) noteAt(at sim.Time, what string) {
	in.events = append(in.events, fmt.Sprintf("t=%d %s", int64(at), what))
}

// Counts returns the fault tallies across all stages.
func (in *Injector) Counts() Counts {
	var c Counts
	for _, sc := range in.counts {
		c = c.Add(sc)
	}
	return c
}

// StageCounts returns the tallies attributed to stage i (crash, restart
// and invalidation events are attributed to the stage that declared them).
func (in *Injector) StageCounts(i int) Counts { return in.counts[i] }

// Events returns how many events the trace holds.
func (in *Injector) Events() int { return len(in.events) }

// TraceString returns the full event trace, one event per line. Two runs of
// the same seeded workload must produce equal traces — the replay contract.
func (in *Injector) TraceString() string { return strings.Join(in.events, "\n") }

// Digest returns an FNV-1a hash of the trace, a compact replay witness for
// experiment reports.
func (in *Injector) Digest() uint64 {
	h := fnv.New64a()
	for _, e := range in.events {
		h.Write([]byte(e))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
