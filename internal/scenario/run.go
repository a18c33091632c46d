package scenario

// The scenario runner: assemble the declared topology, build the backend,
// install the per-phase fault schedule, drive the workload phases (Drive,
// drive.go) and evaluate invariants from the observations. The report
// renders only order-independent quantities (counter sums, single-writer
// per-thread histograms, the fault-trace digest).

import (
	"fmt"
	"hash/fnv"
	"strings"

	"rfp/internal/fabric"
	"rfp/internal/faults"
	"rfp/internal/hw"
	"rfp/internal/sim"
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
		if st := &o.Stats; st.FaultRetries|st.Resends|st.Reconnects|st.Demotions|st.Deadlines != 0 {
			fmt.Fprintf(b, "    recovery: retries=%d resends=%d reconnects=%d demotions=%d deadlines=%d\n",
				st.FaultRetries, st.Resends, st.Reconnects, st.Demotions, st.Deadlines)
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

// Run executes one scenario on one backend and returns its report. The
// run-level replay invariant is not evaluated here — use Verify.
func Run(sc Scenario, backendName string, opt Options) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if err := sc.checkBackend(backendName); err != nil {
		return nil, err
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

	// Per-phase workloads over the topology's key space; the backend is
	// built for the largest value any phase writes.
	phases := make([]Phase, len(sc.Phases))
	maxVal := preloadValueSize
	for i, ph := range sc.Phases {
		ph.Workload.Keys = topo.Keys
		phases[i] = ph
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
		var start sim.Time
		for i := range phases {
			stages[i] = faults.Stage{Start: start, Plan: phases[i].Faults}
			start = start.Add(phases[i].Duration)
		}
		tracer = faults.Install(seed+1, stages, machines...)
	}
	b.Record()
	obs, lz := Drive(env, b, placements, phases, seed)

	// Assemble and evaluate.
	rep := &Report{
		Scenario: sc.Name,
		Backend:  backendName,
		Seed:     seed,
		Phases:   make([]PhaseReport, len(phases)),
		Linz:     lz,
	}
	for pi := range phases {
		o := &obs[pi]
		if tracer != nil {
			o.Faults = tracer.StageCounts(pi)
		}
		rep.Phases[pi] = PhaseReport{Obs: *o, Verdicts: evalPhase(&sc, &phases[pi], o)}
	}
	if tracer != nil {
		rep.FaultEvents = tracer.Events()
		rep.FaultDigest = tracer.Digest()
	}
	return rep, nil
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
	if !sc.declares(Replay) {
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
