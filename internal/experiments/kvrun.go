package experiments

// Figure points. A point is a scenario.BackendSpec (PaperSpec gives the
// paper's defaults; figure declarations set spec fields directly) measured
// by Measure: scenario.BuildBackend stands the store up on the paper
// topology (1 server + 7 client machines) and scenario.Drive runs the
// closed-loop client threads through a warm-up and a measured window — the
// same builder and driver the scenario harness uses. Every phase of every
// point, and of the experiments that build their own cluster, is judged by
// scenario.Eval (checkPhase); the sweeps read the window's PhaseObs.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/scenario"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

// StoreKind selects the system under test by its scenario backend name.
type StoreKind string

// The paper's four systems.
const (
	KindJakiro      StoreKind = scenario.BackendJakiro
	KindServerReply StoreKind = scenario.BackendServerReply
	KindMemcached   StoreKind = scenario.BackendMemcKV
	KindPilaf       StoreKind = scenario.BackendPilafKV
)

// kindLabels are the names the paper's figures print.
var kindLabels = map[StoreKind]string{
	KindJakiro:      "Jakiro",
	KindServerReply: "ServerReply",
	KindMemcached:   "RDMA-Memcached",
	KindPilaf:       "Pilaf",
}

// Label returns the system's display name ("" for a name that is not one of
// the four).
func (k StoreKind) Label() string { return kindLabels[k] }

// paperClients is the paper's client thread count: 5 on each of 7 machines.
const paperClients = 35

// keysForValueSize shrinks the preloaded key count for large values so runs
// stay RAM-friendly without changing the bottleneck being measured.
func keysForValueSize(sz int) int {
	switch {
	case sz >= 4096:
		return 10_000
	case sz >= 1024:
		return 30_000
	default:
		return 100_000
	}
}

// PaperSpec returns the store a figure point starts from: system k in the
// paper's peak configuration (Sec. 4.4.3) — 6 server threads (16 for
// RDMA-Memcached, 2 for Pilaf's small PUT dispatcher pool), paper-default
// RFP parameters — preloaded with valueSize-byte values over a key space
// sized by keysForValueSize. The paper's default value is 32 B.
func PaperSpec(k StoreKind, valueSize int) scenario.BackendSpec {
	spec := scenario.BackendSpec{
		Backend:       string(k),
		ServerThreads: 6,
		Keys:          keysForValueSize(valueSize),
		PreloadValue:  valueSize,
		MaxValue:      valueSize,
		Params:        core.DefaultParams(),
	}
	switch k {
	case KindMemcached:
		spec.ServerThreads = 16
	case KindPilaf:
		spec.ServerThreads = 2
	}
	return spec
}

// Measure runs phases on one figure point and returns their observations
// and the store: spec's system on the paper topology (one server and 7
// client machines on o.Profile), loaded by threads closed-loop client
// threads, every phase's workload over spec.Keys. ready, when non-nil, sees
// the cluster and the store after they are built and before the load
// starts. With o.Telemetry set, the phases carry telemetry deltas.
func Measure(o Options, spec scenario.BackendSpec, threads int, phases []scenario.Phase,
	ready func(*fabric.Cluster, *scenario.Backend)) ([]scenario.PhaseObs, *scenario.Backend) {

	o = o.withDefaults()
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, 7)
	placements := cl.ClientThreads(threads)
	b, err := scenario.BuildBackend(spec, []*fabric.Machine{cl.Server}, placements)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	if o.Telemetry {
		b.Record()
	}
	if ready != nil {
		ready(cl, b)
	}
	for i := range phases {
		phases[i].Workload.Keys = spec.Keys
	}
	return drivePhases(env, b, placements, phases, o.Seed, spec.Backend), b
}

// windowPhases is the standard measurement of wl: a warm-up, then the
// measured window.
func windowPhases(o Options, wl workload.Config) []scenario.Phase {
	return []scenario.Phase{
		{Name: "warmup", Duration: o.Warmup, Workload: wl},
		{Name: "window", Duration: o.Window, Workload: wl},
	}
}

// point measures spec under wl from the paper's 35 client threads and
// returns the window.
func point(o Options, spec scenario.BackendSpec, wl workload.Config) scenario.PhaseObs {
	obs, _ := Measure(o, spec, paperClients, windowPhases(o, wl), nil)
	return obs[1]
}

// driveWindow drives b through windowPhases of wl and returns the window.
func driveWindow(env *sim.Env, b *scenario.Backend, placements []fabric.Placement, o Options, wl workload.Config, label string) scenario.PhaseObs {
	return drivePhases(env, b, placements, windowPhases(o, wl), o.Seed, label)[1]
}

// drivePhases drives b through phases with scenario.Drive and judges every
// phase with checkPhase, and the history of a replica backend with the
// linearizability verdict Drive returns.
func drivePhases(env *sim.Env, b *scenario.Backend, placements []fabric.Placement, phases []scenario.Phase, seed int64, label string) []scenario.PhaseObs {
	obs, lz := scenario.Drive(env, b, placements, phases, seed)
	for i := range obs {
		checkPhase(label, &obs[i])
	}
	if lz != nil && !lz.OK {
		panic(fmt.Sprintf("experiments: %s: %s", label, lz))
	}
	return obs
}

// pointChecks are the invariants every measured phase must pass. The
// experiments run fault-free, so a lost, corrupt, failed or unresolved op
// is a bug in the system under test.
var pointChecks = []scenario.Invariant{
	{Kind: scenario.NoLost},
	{Kind: scenario.NoCorruption},
	{Kind: scenario.AllResolved},
	{Kind: scenario.MaxFailedFrac, Bound: 0},
}

// checkPhase evaluates pointChecks on o and panics with label, the phase
// and the first failing verdict line.
func checkPhase(label string, o *scenario.PhaseObs) {
	for _, iv := range pointChecks {
		if v := scenario.Eval(iv, o); !v.OK {
			panic(fmt.Sprintf("experiments: %s %s phase: %s", label, o.Phase, v))
		}
	}
}

// mops is a phase's completed-op rate.
func mops(w scenario.PhaseObs) float64 { return stats.MOPS(w.Done, w.DurationNs) }

// ClientUtil is the fraction of a phase the threads client threads spent
// busy, from their transport stats delta over it: idle accrues only in
// reply-mode waits.
func ClientUtil(w scenario.PhaseObs, threads int) float64 {
	return 1 - float64(w.Stats.IdleNs)/float64(int64(threads)*w.DurationNs)
}

// windowMOPS runs env for one measurement window and returns the rate, in
// MOPS, at which count advanced over it.
func windowMOPS(env *sim.Env, o Options, count func() uint64) float64 {
	before := count()
	env.Run(env.Now().Add(o.Window))
	return stats.MOPS(count()-before, int64(o.Window))
}

// measureMOPS is the standard measurement: warm up, then one window.
func measureMOPS(env *sim.Env, o Options, count func() uint64) float64 {
	env.Run(sim.Time(o.Warmup))
	return windowMOPS(env, o, count)
}

// sumOf returns a counter reading the sum of per-thread op counts.
func sumOf(ops []uint64) func() uint64 {
	return func() uint64 {
		var s uint64
		for _, x := range ops {
			s += x
		}
		return s
	}
}

// rpcKeys is the key space of a point that stands a store in for a bare
// RPC service (rpcSpec): every key fits its partition's buckets, so every
// GET hits, and the preload stays cheap.
const rpcKeys = 4096

// jakiroDispatchNs is the per-request CPU Jakiro charges before any extra
// processing (dispatch, hash, slot scan).
const jakiroDispatchNs = 150

// rpcSpec stands Jakiro (or ServerReply) in for a bare RPC service whose
// handler costs procNs of server CPU and returns respSize bytes: the points
// GET respSize-byte values, and procNs counts the store's own dispatch
// charge, with no process-time spikes.
func rpcSpec(k StoreKind, serverThreads, respSize int, procNs int64) scenario.BackendSpec {
	spec := PaperSpec(k, respSize)
	spec.ServerThreads = serverThreads
	spec.Keys = rpcKeys
	spec.ExtraProcNs = procNs - jakiroDispatchNs
	spec.DisableSpikes = true
	return spec
}

// getLoad is a GET-only workload.
var getLoad = workload.Config{GetFraction: 1}
