package scenario

// The scenario runner: assemble the declared topology, build the backend,
// install the per-phase fault schedule, drive the workload phases and
// evaluate invariants from the observations.
//
// Determinism contract (what "deterministic-replay" asserts):
//   - Per-thread op accounting is charged to the phase that issued the op
//     and read only after every driver has reached its final barrier (the
//     grace loop below), so ops that overshoot a phase boundary are never
//     racily split between phases.
//   - Telemetry and recovery-stat deltas are sampled at phase boundaries,
//     between Run calls, when the kernel has quiesced.
//   - The report renders only order-independent quantities (counter sums,
//     single-writer per-thread histograms, the fault-trace digest).

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/faults"
	"rfp/internal/hw"
	"rfp/internal/kvstore/kv"
	"rfp/internal/linz"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

// Options configures one scenario run.
type Options struct {
	// Seed is the master seed; 0 means 1. Everything — workload streams,
	// fault draws, server jitter — derives from it.
	Seed int64
}

// PhaseReport is one phase's observations plus its evaluated invariants.
type PhaseReport struct {
	Obs      PhaseObs
	Verdicts []Verdict
}

// Report is one run's full result.
type Report struct {
	Scenario string
	Backend  string
	Seed     int64
	Phases   []PhaseReport

	// FaultEvents / FaultDigest witness the injected-fault trace when the
	// scenario has a fault plan (zero otherwise).
	FaultEvents int
	FaultDigest uint64

	// Linz is the run-level linearizability verdict, set by Run when the
	// scenario declares the Linearizable invariant. It renders inside the
	// digest body, so the replay invariant also asserts the checker's
	// verdict and node count replay exactly.
	Linz *Verdict

	// Replay is the run-level replay verdict, set by Verify.
	Replay *Verdict
}

// OK reports whether every verdict (including the run-level ones, if
// evaluated) passed.
func (r *Report) OK() bool {
	for _, ph := range r.Phases {
		for _, v := range ph.Verdicts {
			if !v.OK {
				return false
			}
		}
	}
	if r.Linz != nil && !r.Linz.OK {
		return false
	}
	return r.Replay == nil || r.Replay.OK
}

// Render returns the deterministic phase-by-phase invariant report.
func (r *Report) Render() string {
	var b strings.Builder
	r.render(&b, true)
	return b.String()
}

// Digest returns the FNV-1a hash of the report body (the replay verdict
// line excluded — it is an assertion *about* this digest).
func (r *Report) Digest() uint64 {
	var b strings.Builder
	r.render(&b, false)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}

func (r *Report) render(b *strings.Builder, withReplay bool) {
	// Scenarios always run on the serial kernel; archived reports carry its name.
	fmt.Fprintf(b, "scenario %s [%s] seed=%d mode=serial\n", r.Scenario, r.Backend, r.Seed)
	for i := range r.Phases {
		ph := &r.Phases[i]
		o := &ph.Obs
		fmt.Fprintf(b, "  phase %s: %.0fus\n", o.Phase, float64(o.DurationNs)/1e3)
		fmt.Fprintf(b, "    ops: issued=%d done=%d failed=%d corrupt=%d unfinished=%d rate=%.1f/ms\n",
			o.Issued, o.Done, o.Failed, o.Corrupted, o.Unfinished, o.opsPerMs())
		if o.Lat.Count > 0 {
			fmt.Fprintf(b, "    lat: n=%d p50=%.2fus p99=%.2fus max=%.2fus\n",
				o.Lat.Count, float64(o.Lat.Percentile(0.50))/1e3, o.p99us(), float64(o.Lat.Max)/1e3)
		}
		if o.Tel.Calls > 0 {
			fmt.Fprintf(b, "    tel: calls=%d rt/call=%.3f retries=%d fallbacks=%d\n",
				o.Tel.Calls, o.Tel.RoundTripsPerCall(), o.Tel.Retries, o.Tel.Fallbacks)
		}
		if rec := o.Recovery; rec != (RecoveryStats{}) {
			fmt.Fprintf(b, "    recovery: retries=%d resends=%d reconnects=%d demotions=%d deadlines=%d\n",
				rec.FaultRetries, rec.Resends, rec.Reconnects, rec.Demotions, rec.Deadlines)
		}
		if fc := o.Faults; fc != (faults.Counts{}) {
			fmt.Fprintf(b, "    faults: drops=%d delays=%d corruptions=%d qperrs=%d crashes=%d restarts=%d invalidations=%d\n",
				fc.Drops, fc.Delays, fc.Corruptions, fc.QPErrors, fc.Crashes, fc.Restarts, fc.Invalidations)
		}
		for _, v := range ph.Verdicts {
			fmt.Fprintf(b, "    %s\n", v)
		}
	}
	if r.FaultEvents > 0 {
		fmt.Fprintf(b, "  fault trace: events=%d digest=%016x\n", r.FaultEvents, r.FaultDigest)
	}
	if r.Linz != nil {
		fmt.Fprintf(b, "  %s\n", *r.Linz)
	}
	if withReplay && r.Replay != nil {
		fmt.Fprintf(b, "  %s\n", *r.Replay)
	}
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(b, "  result: %s\n", status)
}

// phaseCell is one (thread, phase) accounting cell. Written only by its
// driver proc; read by the runner after the driver's finished flag is set
// (ordered by the kernel's quiescence barrier).
type phaseCell struct {
	issued    uint64
	done      uint64
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

// Run executes one scenario on one backend and returns its report. The
// run-level replay invariant is not evaluated here — use Verify.
func Run(sc Scenario, backendName string, opt Options) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if !knownBackend(backendName) {
		return nil, fmt.Errorf("scenario: unknown backend %q (have %v)", backendName, Backends())
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	topo := sc.Topology.withDefaults()

	env := sim.NewEnv(seed)
	defer env.Close()

	// Topology: server machines, then client machines (one straggler if
	// declared).
	prof := hw.ConnectX3()
	serverNames, clientNames := topo.machineNames()
	servers := make([]*fabric.Machine, len(serverNames))
	for s, name := range serverNames {
		servers[s] = fabric.NewMachine(env, name, prof)
	}
	clients := make([]*fabric.Machine, len(clientNames))
	for i, name := range clientNames {
		p := prof
		if sl := topo.Slow; sl != nil && sl.Client == i {
			p = slowProfile(p, sl)
		}
		clients[i] = fabric.NewMachine(env, name, p)
	}
	machines := append(append([]*fabric.Machine{}, servers...), clients...)
	cl := &fabric.Cluster{Env: env, Server: servers[0], Clients: clients}

	// Phase timeline and normalized per-phase workloads.
	phases := make([]Phase, len(sc.Phases))
	starts := make([]sim.Time, len(sc.Phases))
	ends := make([]sim.Time, len(sc.Phases))
	var t sim.Time
	maxVal := preloadValueSize
	for i, ph := range sc.Phases {
		ph.Workload.Keys = topo.Keys
		phases[i] = ph
		starts[i] = t
		t = t.Add(ph.Duration)
		ends[i] = t
		if ph.Workload.ValueSize != nil && ph.Workload.ValueSize.Max() > maxVal {
			maxVal = ph.Workload.ValueSize.Max()
		}
	}

	// Backend, then client-thread placement, then the fault schedule (the
	// schedule needs every NIC to exist; crash events are absolute-time
	// callbacks registered before the clock starts).
	placements := cl.ClientThreads(topo.Threads)
	b, err := BuildBackend(specFor(backendName, topo, maxVal, sc.hasFaults()), servers, placements)
	if err != nil {
		return nil, err
	}
	var tracer *faults.Installed
	if sc.hasFaults() {
		stages := make([]faults.Stage, len(phases))
		for i := range phases {
			stages[i] = faults.Stage{Start: starts[i], Plan: phases[i].Faults}
		}
		tracer = faults.Install(seed+1, stages, machines...)
	}
	rec := b.Record()

	// Drivers: one proc per client thread, running every phase in order
	// against its conn, charging accounting to the issuing phase's cell.
	// When the scenario declares the linearizability invariant, each driver
	// additionally records its versioned operation history into a
	// single-writer ClientLog, merged and checked after the drain.
	threads := len(placements)
	wantsLinz := sc.wantsLinz()
	var logs []*linz.ClientLog
	if wantsLinz {
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
	for i, pl := range placements {
		i, c := i, b.Conns[i]
		pl.Machine.Spawn(fmt.Sprintf("driver%d", i), func(p *sim.Proc) {
			scratch := make([]byte, maxVal+64)
			check := make([]byte, maxVal+64)
			var seq uint32
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
				for p.Now() < ends[pi] {
					op := gen.Next()
					cell.issued++
					t0 := p.Now()
					var corrupt bool
					var err error
					if wantsLinz {
						corrupt, err = driveLinz(p, c, op, scratch, logs[i], i, &seq)
					} else {
						corrupt, err = driveOp(p, c, op, scratch, check)
					}
					switch {
					case err != nil:
						cell.failed++
						p.Sleep(2 * sim.Microsecond) // breathe during an outage
						continue
					case corrupt:
						cell.corrupted++
					default:
						cell.done++
					}
					cell.lat.Add(int64(p.Now().Sub(t0)))
				}
				cell.finished = true
			}
		})
	}

	// Phase loop: boundary-sample the window-delta sources, then drain
	// in-flight ops past the final phase so issue-charged accounting is
	// complete before it is read.
	statsAt := make([]core.ClientStats, len(phases)+1)
	telAt := make([]telemetry.Snapshot, len(phases)+1)
	statsAt[0] = b.Stats()
	for pi := range phases {
		env.Run(ends[pi])
		statsAt[pi+1] = b.Stats()
		if rec != nil {
			telAt[pi+1] = rec.Snapshot()
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

	// Assemble and evaluate.
	rep := &Report{
		Scenario: sc.Name,
		Backend:  backendName,
		Seed:     seed,
		Phases:   make([]PhaseReport, len(phases)),
	}
	for pi := range phases {
		o := PhaseObs{
			Phase:      phases[pi].Name,
			DurationNs: int64(phases[pi].Duration),
			Tel:        telAt[pi+1].Delta(telAt[pi]),
			Recovery:   recoveryOf(statsAt[pi+1].Sub(statsAt[pi])),
		}
		for i := 0; i < threads; i++ {
			cell := cellAt(i, pi)
			o.Issued += cell.issued
			o.Done += cell.done
			o.Failed += cell.failed
			o.Corrupted += cell.corrupted
			if !cell.finished {
				o.Unfinished++
			}
			snap := cell.lat.Snap()
			o.Lat.Merge(&snap)
		}
		if tracer != nil {
			o.Faults = tracer.StageCounts(pi)
		}
		rep.Phases[pi] = PhaseReport{Obs: o, Verdicts: evalPhase(&sc, &phases[pi], &o)}
	}
	if tracer != nil {
		rep.FaultEvents = tracer.Events()
		rep.FaultDigest = tracer.Digest()
	}
	if wantsLinz {
		rep.Linz = checkHistory(logs)
	}
	return rep, nil
}

// checkHistory merges the drained per-thread logs and runs the
// linearizability checker. Every key is preloaded at version 0, so the
// initial register state is (0, present) for all keys. The verdict detail
// carries the deterministic search statistics — and, on failure, the
// minimized counterexample — so it replays byte-identically.
func checkHistory(logs []*linz.ClientLog) *Verdict {
	h := linz.Merge(logs...)
	res := linz.CheckKV(h, func(uint64) (uint32, bool) { return 0, true }, linz.Options{Minimize: true})
	v := Verdict{Invariant: Invariant{Kind: Linearizable}}
	v.OK = res.Verdict == linz.Linearizable
	v.Detail = fmt.Sprintf("%s: ops=%d partitions=%d nodes=%d", res.Verdict, res.Ops, res.Partitions, res.Nodes)
	if res.Verdict == linz.Illegal {
		v.Detail += fmt.Sprintf("; key %d counterexample:\n%s", res.BadKey, res.Counterexample.Render())
	}
	return &v
}

// Verify runs the scenario and, when it declares the replay invariant,
// re-runs it with the same options and asserts the reports are
// byte-identical (same render, same digest). The returned report is the
// first run's, with the replay verdict attached.
func Verify(sc Scenario, backendName string, opt Options) (*Report, error) {
	rep, err := Run(sc, backendName, opt)
	if err != nil {
		return nil, err
	}
	if !sc.wantsReplay() {
		return rep, nil
	}
	again, err := Run(sc, backendName, opt)
	if err != nil {
		return nil, err
	}
	v := Verdict{Invariant: Invariant{Kind: Replay}}
	if rep.Render() == again.Render() && rep.Digest() == again.Digest() {
		v.OK = true
		v.Detail = fmt.Sprintf("re-run byte-identical, digest %016x", rep.Digest())
	} else {
		v.Detail = fmt.Sprintf("re-run diverged: digest %016x vs %016x", rep.Digest(), again.Digest())
	}
	rep.Replay = &v
	return rep, nil
}

// slowProfile applies a straggler override to a machine's hardware
// profile.
func slowProfile(p hw.Profile, sl *SlowNIC) hw.Profile {
	scale := sl.EngineScale
	if scale < 1 {
		scale = 1
	}
	p.OutEngineNs = int64(float64(p.OutEngineNs) * scale)
	p.InEngineNs = int64(float64(p.InEngineNs) * scale)
	p.PostNs = int64(float64(p.PostNs) * scale)
	p.PollNs = int64(float64(p.PollNs) * scale)
	p.PropagationNs += sl.ExtraPropagationNs
	return p
}

// driveOp executes one workload op on a conn, verifying GET results
// against the deterministic fill pattern (version 0 = preload/PUT,
// version 1 = RMW; FillValue is prefix-stable, so any stored length
// verifies). Returns corrupt=true when a returned value matches neither.
func driveOp(p *sim.Proc, c kv.Conn, op workload.Op, scratch, check []byte) (corrupt bool, err error) {
	switch op.Kind {
	case workload.Get:
		n, found, err := c.Get(p, op.Key, scratch)
		if err != nil {
			return false, err
		}
		return found && !valueOK(scratch[:n], check, op.Key), nil
	case workload.Put:
		v := scratch[:op.ValueSize]
		workload.FillValue(v, op.Key, 0)
		return false, c.Put(p, op.Key, v)
	default: // ReadModifyWrite
		n, found, err := c.Get(p, op.Key, scratch)
		if err != nil {
			return false, err
		}
		if found && !valueOK(scratch[:n], check, op.Key) {
			return true, nil
		}
		v := scratch[:op.ValueSize]
		workload.FillValue(v, op.Key, 1)
		return false, c.Put(p, op.Key, v)
	}
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
	log *linz.ClientLog, thread int, seq *uint32) (corrupt bool, err error) {

	switch op.Kind {
	case workload.Get:
		return linzGet(p, c, op.Key, scratch, log)
	case workload.Put:
		return false, linzPut(p, c, op, scratch, log, thread, seq)
	default: // ReadModifyWrite
		corrupt, err = linzGet(p, c, op.Key, scratch, log)
		if err != nil || corrupt {
			return corrupt, err
		}
		return false, linzPut(p, c, op, scratch, log, thread, seq)
	}
}

func linzGet(p *sim.Proc, c kv.Conn, key uint64, scratch []byte, log *linz.ClientLog) (bool, error) {
	t0 := int64(p.Now())
	n, found, err := c.Get(p, key, scratch)
	if err != nil {
		return false, err
	}
	t1 := int64(p.Now())
	if !found {
		log.Read(key, 0, false, t0, t1)
		return false, nil
	}
	ver, ok := workload.ParseVersioned(scratch[:n], key)
	if !ok {
		return true, nil
	}
	log.Read(key, ver, true, t0, t1)
	return false, nil
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
