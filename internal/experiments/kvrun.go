package experiments

// Shared load drivers: RunKV drives one of the four key-value systems on
// the paper topology (1 server + 7 client machines); RunEcho drives a bare
// RFP/server-reply echo service for the paradigm-level sweeps (Fig. 9).
// Stores are stood up by scenario.BuildBackend and driven by
// scenario.Drive — the same builder and driver the scenario harness uses.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/pilafkv"
	"rfp/internal/scenario"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
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

// KVRun describes one key-value measurement run.
type KVRun struct {
	Opts          Options
	Kind          StoreKind
	ServerThreads int // 0: per-kind default (6; 16 for RDMA-Memcached)
	ClientThreads int // 0: 35
	Keys          int // 0: keysForValueSize(ValueSize)
	ValueSize     int // preload value size; 0: 32
	Workload      workload.Config
	FetchSize     int   // override F (0: paper default 256)
	ExtraProcNs   int64 // synthetic per-request processing
	DisableSwitch bool  // Jakiro w/o Switch
	DisableSpikes bool
	NoInline      bool // ablation: separate size-probe read per fetch
	TraceEvents   int  // attach a data-path tracer of this capacity to the server NIC
}

// KVOut is one run's measurements. RunKV reads them from the window phase;
// RunEcho sets MOPS, Agg, ClientUtil and Tel.
type KVOut struct {
	MOPS       float64
	Lat        telemetry.HistSnap  // op latency (ns): exact mean, quantiles within a half bucket (6.25 %)
	Agg        core.ClientStats    // RFP transport stats delta over the window
	ClientUtil float64             // client CPU utilization (RFP-based kinds)
	Pilaf      pilafkv.ClientStats // Pilaf clients' read counters over the whole run
	Misses     uint64              // GETs (and RMW read halves) that found no value
	Trace      *trace.Ring         // server-NIC data-path events, when requested
	Tel        telemetry.Snapshot  // per-call telemetry, when Opts.Telemetry is set
}

func (r KVRun) withDefaults() KVRun {
	r.Opts = r.Opts.withDefaults()
	if r.ServerThreads == 0 {
		switch r.Kind {
		case KindMemcached:
			r.ServerThreads = 16
		case KindPilaf:
			r.ServerThreads = 2 // Pilaf's small PUT dispatcher pool
		default:
			r.ServerThreads = 6
		}
	}
	if r.ClientThreads == 0 {
		r.ClientThreads = paperClients
	}
	if r.ValueSize == 0 {
		r.ValueSize = 32
	}
	if r.Keys == 0 {
		r.Keys = keysForValueSize(r.ValueSize)
	}
	r.Workload.Keys = r.Keys
	return r
}

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

// RunKV executes one measurement run and returns its results.
func RunKV(r KVRun) KVOut {
	r = r.withDefaults()
	env := sim.NewEnv(r.Opts.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, r.Opts.Profile, 7)
	var ring *trace.Ring
	if r.TraceEvents > 0 {
		ring = trace.NewRing(r.TraceEvents)
		cl.Server.NIC().SetTracer(ring)
	}

	maxVal := r.ValueSize
	if r.Workload.ValueSize != nil && r.Workload.ValueSize.Max() > maxVal {
		maxVal = r.Workload.ValueSize.Max()
	}
	params := core.DefaultParams()
	if r.FetchSize > 0 {
		params.F = r.FetchSize
	}
	params.DisableSwitch = r.DisableSwitch
	params.NoInline = r.NoInline

	placements := cl.ClientThreads(r.ClientThreads)
	b, err := scenario.BuildBackend(scenario.BackendSpec{
		Backend:       string(r.Kind),
		ServerThreads: r.ServerThreads,
		Keys:          r.Keys,
		PreloadValue:  r.ValueSize,
		MaxValue:      maxVal,
		Params:        params,
		ExtraProcNs:   r.ExtraProcNs,
		DisableSpikes: r.DisableSpikes,
	}, []*fabric.Machine{cl.Server}, placements)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}

	// Telemetry records from the start; Drive reports the window's delta.
	if r.Opts.Telemetry {
		b.Record()
	}
	w := driveWindow(env, b, placements, r.Opts, r.Workload, string(r.Kind))
	out := KVOut{
		MOPS:       stats.MOPS(w.Done, w.DurationNs),
		Lat:        w.Lat,
		Agg:        w.Stats,
		ClientUtil: clientUtil(w.Stats, r.ClientThreads, r.Opts),
		Misses:     w.Missed,
		Trace:      ring,
		Tel:        w.Tel,
	}
	for _, c := range b.Conns {
		if pc, ok := c.(*pilafkv.Client); ok {
			out.Pilaf.Add(pc.Stats)
		}
	}
	return out
}

// driveWindow drives b through a warm-up and a measured window of wl and
// returns the window's observations. The figures run fault-free, so a
// failed, corrupt or unfinished op, or a recorded history that is not
// linearizable, is a bug in the system under test.
func driveWindow(env *sim.Env, b *scenario.Backend, placements []fabric.Placement, o Options, wl workload.Config, label string) *scenario.PhaseObs {
	return &drivePhases(env, b, placements, []scenario.Phase{
		{Name: "warmup", Duration: o.Warmup, Workload: wl},
		{Name: "window", Duration: o.Window, Workload: wl},
	}, o.Seed, label)[1]
}

// drivePhases is driveWindow over any phase list.
func drivePhases(env *sim.Env, b *scenario.Backend, placements []fabric.Placement, phases []scenario.Phase, seed int64, label string) []scenario.PhaseObs {
	obs, lz := scenario.Drive(env, b, placements, phases, seed)
	for _, ph := range obs {
		if ph.Failed > 0 || ph.Corrupted > 0 || ph.Unfinished > 0 {
			panic(fmt.Sprintf("experiments: %s %s phase: %d ops failed, %d corrupt, %d drivers unfinished",
				label, ph.Phase, ph.Failed, ph.Corrupted, ph.Unfinished))
		}
	}
	if lz != nil && !lz.OK {
		panic(fmt.Sprintf("experiments: %s: %s", label, lz))
	}
	return obs
}

// clientUtil is the fraction of the window the client threads spent busy,
// from their stats delta over it: idle accrues only in reply-mode waits.
func clientUtil(window core.ClientStats, threads int, o Options) float64 {
	return 1 - float64(window.IdleNs)/float64(int64(threads)*int64(o.Window))
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

// echoRig is a bare RFP service whose handler costs procNs of server CPU
// and returns respSize bytes, called synchronously by every client thread —
// the paradigm-level harness behind fig9, ext-herd and ext-tuning. procNs
// and respSize may be changed between env.Run calls, when every simulated
// proc is parked.
type echoRig struct {
	env      *sim.Env
	clis     []*core.Client
	ops      []uint64
	procNs   int64
	respSize int
}

// newEchoRig stands the service up on the paper topology with the given
// server threads and 35 client threads; requests carry reqSize bytes and
// responses up to maxResp.
func newEchoRig(o Options, params core.Params, serverThreads, reqSize, maxResp int) *echoRig {
	r := &echoRig{env: sim.NewEnv(o.Seed)}
	cl := fabric.NewCluster(r.env, o.Profile, 7)
	srv := core.NewServer(cl.Server, core.ServerConfig{MaxRequest: 64, MaxResponse: maxResp})
	srv.AddThreads(serverThreads)

	placements := cl.ClientThreads(paperClients)
	r.clis = make([]*core.Client, len(placements))
	for i, pl := range placements {
		r.clis[i], _ = srv.Accept(pl.Machine, params)
	}
	handler := func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
		cl.Server.ComputeNs(p, r.procNs)
		return r.respSize
	}
	srv.Start(serverThreads, func(int) core.Handler { return handler })
	r.ops = make([]uint64, len(r.clis))
	for i, pl := range placements {
		i := i
		pl.Machine.Spawn("load", func(p *sim.Proc) {
			req := make([]byte, reqSize)
			out := make([]byte, maxResp)
			for {
				if _, err := r.clis[i].Call(p, req, out); err != nil {
					panic(fmt.Sprintf("experiments: echo call: %v", err))
				}
				r.ops[i]++
			}
		})
	}
	return r
}

// stats sums every client's cumulative transport stats.
func (r *echoRig) stats() core.ClientStats {
	var s core.ClientStats
	for _, c := range r.clis {
		s.Add(c.Stats)
	}
	return s
}

// EchoRun describes a bare-RPC sweep run (Fig. 9): a trivial service whose
// handler costs exactly ProcNs and returns RespSize bytes, called by 35
// client threads.
type EchoRun struct {
	Opts          Options
	Params        core.Params
	ProcNs        int64
	RespSize      int
	ServerThreads int
}

// RunEcho executes the echo sweep run.
func RunEcho(r EchoRun) KVOut {
	o := r.Opts.withDefaults()
	if r.ServerThreads == 0 {
		r.ServerThreads = 16
	}
	if r.RespSize <= 0 {
		r.RespSize = 1
	}
	rig := newEchoRig(o, r.Params, r.ServerThreads, 1, 64)
	defer rig.env.Close()
	rig.procNs, rig.respSize = r.ProcNs, r.RespSize

	rig.env.Run(sim.Time(o.Warmup))
	var rec *telemetry.Recorder
	if o.Telemetry {
		rec = telemetry.New(telemetry.Config{})
		for _, c := range rig.clis {
			c.SetRecorder(rec)
		}
	}
	statsBefore := rig.stats()
	out := KVOut{MOPS: windowMOPS(rig.env, o, sumOf(rig.ops))}
	out.Agg = rig.stats().Sub(statsBefore)
	out.ClientUtil = clientUtil(out.Agg, paperClients, o)
	if rec != nil {
		out.Tel = rec.Snapshot()
	}
	return out
}
