package scenario

// The workload driver: one closed-loop proc per client thread, running a
// sequence of phases against an assembled backend. Run drives every
// scenario through it, and internal/experiments drives every key-value
// figure point through it (a warm-up phase, then the measured window). On
// a pipelined backend (Backend.window > 0) each driver keeps a window of
// posted operations in flight instead of one call at a time.
//
// Determinism contract (what "deterministic-replay" asserts):
//   - Per-thread op accounting is charged to the phase that issued the op
//     and read only after every driver has reached its final barrier (the
//     grace loop below), so ops that overshoot a phase boundary are never
//     racily split between phases.
//   - Telemetry and transport-stat deltas are sampled at phase boundaries,
//     between Run calls, when the kernel has quiesced.
//   - Observations are order-independent quantities: counter sums and
//     single-writer per-thread histograms.

import (
	"bytes"
	"errors"
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/linz"
	"rfp/internal/shard"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

// phaseCell is one (thread, phase) accounting cell. Written only by its
// driver proc; read by Drive after the driver's finished flag is set
// (ordered by the kernel's quiescence barrier).
type phaseCell struct {
	issued    uint64
	done      uint64
	missed    uint64
	failed    uint64
	corrupted uint64
	finished  bool
	lat       telemetry.Hist
}

// phaseSeed derives the workload seed for (phase, thread) from the master
// seed. Phases are re-seeded at their boundary, so a phase's stream never
// depends on how far the previous phase got.
func phaseSeed(seed int64, phase, thread int) int64 {
	return seed*1_000_003 + int64(phase)*8191 + int64(thread) + 1
}

// graceStep/graceMax bound the drain loop that lets in-flight ops resolve
// after the final phase (a synchronous call can overshoot its phase end by
// up to the recovery deadline).
const (
	graceStep = 100 * sim.Microsecond
	graceMax  = 200
)

// Drive runs phases back to back from env.Now() with one driver proc per
// placement, each issuing its phase's workload (Keys included, as given)
// against its conn in b, and returns one observation per phase; Faults is
// left to the caller, whose schedule it is. Every GET is verified against
// the values b was preloaded with. The telemetry deltas come from the
// recorder b.Record attached, if any.
//
// On a backend BuildBackend preloaded with versioned values (the replicated
// stores), the drivers write versioned values too and record their
// operation history, and the second result is the linearizability verdict
// on the recorded history; it is nil otherwise.
func Drive(env *sim.Env, b *Backend, placements []fabric.Placement, phases []Phase, seed int64) ([]PhaseObs, *Verdict) {
	starts := make([]sim.Time, len(phases))
	ends := make([]sim.Time, len(phases))
	t := env.Now()
	for i, ph := range phases {
		starts[i] = t
		t = t.Add(ph.Duration)
		ends[i] = t
	}

	// Drivers: one proc per client thread, running every phase in order
	// against its conn, charging accounting to the issuing phase's cell.
	// A history-recording driver writes into its own single-writer
	// ClientLog, checked after the drain.
	threads := len(placements)
	var logs []*linz.ClientLog
	if b.versioned {
		logs = make([]*linz.ClientLog, threads)
		for i := range logs {
			logs[i] = linz.NewClientLog(i)
		}
	}
	cells := make([]phaseCell, threads*len(phases))
	cellAt := func(thread, phase int) *phaseCell { return &cells[thread*len(phases)+phase] }
	// One key distribution for every thread (a Zipf's normalization is a sum
	// over the whole key space); each keeps it across phases for as long as
	// the key space and skew stay.
	gens := workload.NewGenerator(phases[0].Workload, 0)
	short := b.preload
	for _, ph := range phases {
		vs := ph.Workload.ValueSize
		if vs == nil {
			vs = workload.DefaultConfig().ValueSize
		}
		short = min(short, vs.Min())
	}
	for i, pl := range placements {
		i, c := i, b.Conns[i]
		pl.Machine.Spawn(fmt.Sprintf("driver%d", i), func(p *sim.Proc) {
			scratch := make([]byte, b.maxValue+64)
			check := make([]byte, b.maxValue+64)
			var seq uint32
			var pipe *pipeline
			if b.window > 0 {
				pipe = &pipeline{c: c.(*shard.Client), window: b.window, short: short, scratch: scratch, check: check}
			}
			gen := gens.Fork(phaseSeed(seed, 0, i))
			for pi := range phases {
				ph := &phases[pi]
				cell := cellAt(i, pi)
				active := ph.Active
				if active <= 0 || active > threads {
					active = threads
				}
				if i >= active {
					cell.finished = true
					p.SleepUntil(ends[pi])
					continue
				}
				if off := workload.RampOffset(i, active, ph.RampNs); off > 0 {
					p.SleepUntil(starts[pi].Add(sim.Duration(off)))
				}
				gen.Reset(ph.Workload, phaseSeed(seed, pi, i))
				if pipe != nil {
					pipe.phase(p, gen, cell, ends[pi])
					cell.finished = true
					continue
				}
				for p.Now() < ends[pi] {
					op := gen.Next()
					cell.issued++
					t0 := p.Now()
					var missed, corrupt bool
					var err error
					if b.versioned {
						missed, corrupt, err = driveLinz(p, c, op, scratch, logs[i], i, &seq)
					} else {
						missed, corrupt, err = driveOp(p, c, op, scratch, check)
					}
					cell.charge(p, t0, missed, corrupt, err)
				}
				cell.finished = true
			}
		})
	}

	// Phase loop: boundary-sample the window-delta sources, then drain
	// in-flight ops past the final phase so issue-charged accounting is
	// complete before it is read.
	statsAt := make([]core.ClientStats, len(phases)+1)
	statsAt[0] = b.Stats()
	var telAt []telemetry.Snapshot
	if b.rec != nil {
		telAt = append(make([]telemetry.Snapshot, 0, len(phases)+1), b.rec.Snapshot())
	}
	for pi := range phases {
		env.Run(ends[pi])
		statsAt[pi+1] = b.Stats()
		if b.rec != nil {
			telAt = append(telAt, b.rec.Snapshot())
		}
	}
	deadline := ends[len(phases)-1]
	for g := 0; g < graceMax; g++ {
		done := true
		for i := 0; i < threads && done; i++ {
			done = cellAt(i, len(phases)-1).finished
		}
		if done {
			break
		}
		deadline = deadline.Add(graceStep)
		env.Run(deadline)
	}

	obs := make([]PhaseObs, len(phases))
	for pi := range phases {
		o := &obs[pi]
		o.Phase = phases[pi].Name
		o.DurationNs = int64(phases[pi].Duration)
		if b.rec != nil {
			o.Tel = telAt[pi+1].Delta(telAt[pi])
		}
		o.Stats = statsAt[pi+1].Sub(statsAt[pi])
		for i := 0; i < threads; i++ {
			cell := cellAt(i, pi)
			o.Issued += cell.issued
			o.Done += cell.done
			o.Missed += cell.missed
			o.Failed += cell.failed
			o.Corrupted += cell.corrupted
			if !cell.finished {
				o.Unfinished++
			}
			snap := cell.lat.Snap()
			o.Lat.Merge(&snap)
		}
	}
	if !b.versioned {
		return obs, nil
	}
	return obs, checkHistory(logs)
}

// pipeline is one driver's window of ops posted on a sharded pipelined
// client: up to window in flight across every server's rings. It claims
// the oldest when the window or a ring is full, and all of them when a
// connection must reconnect; an RMW runs synchronously on a drained window.
type pipeline struct {
	c              *shard.Client
	window, short  int // short: the shortest value any op of the run can have written
	inflight       sim.Ring[posted]
	scratch, check []byte
}

type posted struct {
	pd shard.PendingOp
	op workload.Op
	t0 sim.Time
}

// phase drives ops from gen until end, charging each to cell, the phase
// that posted it, and drains the window before returning.
func (pl *pipeline) phase(p *sim.Proc, gen *workload.Generator, cell *phaseCell, end sim.Time) {
	for p.Now() < end {
		op := gen.Next()
		cell.issued++
		if op.Kind == workload.ReadModifyWrite {
			pl.drain(p, cell)
			t0 := p.Now()
			missed, corrupt, err := driveOp(p, pl.c, op, pl.scratch, pl.check)
			cell.charge(p, t0, missed, corrupt, err)
			continue
		}
		pl.post(p, op, cell)
		if pl.inflight.Len() >= pl.window {
			pl.claim(p, cell)
		}
	}
	pl.drain(p, cell)
}

// post stages op, claiming earlier ops while its ring is full or its
// connection waits to reconnect. An op that cannot be posted fails.
func (pl *pipeline) post(p *sim.Proc, op workload.Op, cell *phaseCell) {
	t0 := p.Now()
	for {
		pd, err := pl.c.PostOp(p, op)
		switch {
		case err == nil:
			pl.inflight.Push(posted{pd, op, t0})
			return
		case errors.Is(err, core.ErrRingFull):
			pl.claim(p, cell)
		case errors.Is(err, core.ErrReconnect):
			pl.drain(p, cell) // every handle claimed, the next post reconnects
		default:
			cell.charge(p, t0, false, false, err)
			return
		}
	}
}

// claim redeems the oldest op. PollOp reports no length, so a found GET is
// verified on its first short bytes, cleared beforehand: a value written
// for another key, or an empty one, fails.
func (pl *pipeline) claim(p *sim.Proc, cell *phaseCell) {
	w := pl.inflight.Pop()
	got := pl.scratch[:pl.short]
	clear(got)
	found, err := pl.c.PollOp(p, w.pd, pl.scratch)
	get := w.op.Kind == workload.Get
	corrupt := err == nil && get && found && !valueOK(got, pl.check, w.op.Key)
	cell.charge(p, w.t0, get && !found, corrupt, err)
}

func (pl *pipeline) drain(p *sim.Proc, cell *phaseCell) {
	for pl.inflight.Len() > 0 {
		pl.claim(p, cell)
	}
}

// charge books one resolved op: a failure breathes (the outage may still
// be on), anything else counts its latency.
func (cell *phaseCell) charge(p *sim.Proc, t0 sim.Time, missed, corrupt bool, err error) {
	switch {
	case err != nil:
		cell.failed++
		p.Sleep(2 * sim.Microsecond)
		return
	case corrupt:
		cell.corrupted++
	case missed:
		cell.done++
		cell.missed++
	default:
		cell.done++
	}
	cell.lat.Add(int64(p.Now().Sub(t0)))
}

// checkHistory runs the linearizability checker over the drained
// per-thread logs, reading each op where its driver recorded it. Every key is preloaded at version 0, so the
// initial register state is (0, present) for all keys. The verdict detail
// carries the deterministic search statistics — and, on failure, the
// minimized counterexample — so it replays byte-identically.
func checkHistory(logs []*linz.ClientLog) *Verdict {
	res := linz.CheckLogs(logs, func(uint64) (uint32, bool) { return 0, true }, linz.Options{Minimize: true})
	v := Verdict{Invariant: Invariant{Kind: Linearizable}}
	v.OK = res.Verdict == linz.Linearizable
	v.Detail = fmt.Sprintf("%s: ops=%d partitions=%d nodes=%d", res.Verdict, res.Ops, res.Partitions, res.Nodes)
	if res.Verdict == linz.Illegal {
		v.Detail += fmt.Sprintf("; key %d counterexample:\n%s", res.BadKey, res.Counterexample.Render())
	}
	return &v
}

// driveOp executes one workload op on a conn, verifying GET results
// against the deterministic fill pattern (version 0 = preload/PUT,
// version 1 = RMW; FillValue is prefix-stable, so any stored length
// verifies). missed reports a GET, or an RMW's read half, that found no
// value; corrupt, a returned value that matches neither version.
func driveOp(p *sim.Proc, c kv.Conn, op workload.Op, scratch, check []byte) (missed, corrupt bool, err error) {
	if op.Kind == workload.Put {
		v := scratch[:op.ValueSize]
		workload.FillValue(v, op.Key, 0)
		return false, false, c.Put(p, op.Key, v)
	}
	n, found, err := c.Get(p, op.Key, scratch)
	switch {
	case err != nil:
		return false, false, err
	case found && !valueOK(scratch[:n], check, op.Key):
		return false, true, nil
	case op.Kind == workload.Get:
		return !found, false, nil
	}
	// ReadModifyWrite
	v := scratch[:op.ValueSize]
	workload.FillValue(v, op.Key, 1)
	return !found, false, c.Put(p, op.Key, v)
}

// driveLinz executes one workload op while recording its timed history for
// the linearizability checker. Values carry unique versions
// ((thread+1)<<20 | seq, never colliding with the version-0 preload), so a
// read pins exactly which write it observed. Failed reads are dropped (they
// constrain nothing); failed writes are recorded with an open-ended return
// (the write may or may not have taken effect — the checker may linearize
// it anywhere after its invocation). A read whose value fails versioned
// verification is counted corrupt and kept out of the history.
func driveLinz(p *sim.Proc, c kv.Conn, op workload.Op, scratch []byte,
	log *linz.ClientLog, thread int, seq *uint32) (missed, corrupt bool, err error) {

	if op.Kind == workload.Put {
		return false, false, linzPut(p, c, op, scratch, log, thread, seq)
	}
	missed, corrupt, err = linzGet(p, c, op.Key, scratch, log)
	if err != nil || corrupt || op.Kind == workload.Get {
		return missed, corrupt, err
	}
	// ReadModifyWrite
	return missed, false, linzPut(p, c, op, scratch, log, thread, seq)
}

func linzGet(p *sim.Proc, c kv.Conn, key uint64, scratch []byte, log *linz.ClientLog) (missed, corrupt bool, err error) {
	t0 := int64(p.Now())
	n, found, err := c.Get(p, key, scratch)
	if err != nil {
		return false, false, err
	}
	t1 := int64(p.Now())
	if !found {
		log.Read(key, 0, false, t0, t1)
		return true, false, nil
	}
	ver, ok := workload.ParseVersioned(scratch[:n], key)
	if !ok {
		return false, true, nil
	}
	log.Read(key, ver, true, t0, t1)
	return false, false, nil
}

func linzPut(p *sim.Proc, c kv.Conn, op workload.Op, scratch []byte,
	log *linz.ClientLog, thread int, seq *uint32) error {

	*seq++
	ver := uint32(thread+1)<<20 | *seq
	size := op.ValueSize
	if size < workload.VersionedMin {
		size = workload.VersionedMin
	}
	v := scratch[:size]
	workload.FillVersioned(v, op.Key, ver)
	t0 := int64(p.Now())
	if err := c.Put(p, op.Key, v); err != nil {
		log.FailedWrite(op.Key, ver, t0)
		return err
	}
	log.Write(op.Key, ver, t0, int64(p.Now()))
	return nil
}

// valueOK verifies a GET result against the two writable versions.
func valueOK(got, check []byte, key uint64) bool {
	w := check[:len(got)]
	workload.FillValue(w, key, 0)
	if bytes.Equal(got, w) {
		return true
	}
	workload.FillValue(w, key, 1)
	return bytes.Equal(got, w)
}
