package experiments

// Shared load drivers: RunKV drives one of the four key-value systems on
// the paper topology (1 server + 7 client machines); RunEcho drives a bare
// RFP/server-reply echo service for the paradigm-level sweeps (Fig. 9).

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/jakiro"
	"rfp/internal/kvstore/kv"
	"rfp/internal/kvstore/memckv"
	"rfp/internal/kvstore/pilafkv"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
	"rfp/internal/workload"
)

// StoreKind selects the system under test.
type StoreKind string

// The paper's four systems.
const (
	KindJakiro      StoreKind = "Jakiro"
	KindServerReply StoreKind = "ServerReply"
	KindMemcached   StoreKind = "RDMA-Memcached"
	KindPilaf       StoreKind = "Pilaf"
)

// KVRun describes one key-value measurement run.
type KVRun struct {
	Opts          Options
	Kind          StoreKind
	ServerThreads int // 0: per-kind default (6; 16 for RDMA-Memcached)
	ClientThreads int // 0: 35
	Keys          int // 0: 100k
	ValueSize     int // preload value size; 0: 32
	Workload      workload.Config
	FetchSize     int   // override F (0: paper default 256)
	ExtraProcNs   int64 // synthetic per-request processing
	DisableSwitch bool  // Jakiro w/o Switch
	DisableSpikes bool
	NoInline      bool // ablation: separate size-probe read per fetch
	Latency       bool // record per-op latency
	TraceEvents   int  // attach a data-path tracer of this capacity to the server NIC
}

// KVOut is one run's measurements.
type KVOut struct {
	MOPS       float64
	Lat        *stats.Hist
	Agg        core.ClientStats // RFP transport stats delta over the window
	ClientUtil float64          // client CPU utilization (RFP-based kinds)
	Pilaf      pilafkv.ClientStats
	Misses     uint64
	Trace      *trace.Ring        // server-NIC data-path events, when requested
	Tel        telemetry.Snapshot // per-call telemetry, when Opts.Telemetry is set
}

// kvDoer is the client interface all four stores share.
type kvDoer interface {
	Do(p *sim.Proc, op workload.Op, scratch []byte) (bool, error)
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
		r.ClientThreads = 35
	}
	if r.Keys == 0 {
		r.Keys = 100_000
	}
	if r.ValueSize == 0 {
		r.ValueSize = 32
	}
	r.Workload.Keys = r.Keys
	return r
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

	keys := workload.Preload(workload.Config{Keys: r.Keys})
	placements := cl.ClientThreads(r.ClientThreads)
	clients := make([]kvDoer, len(placements))
	var statsFn func() core.ClientStats
	var pilafStats func() pilafkv.ClientStats
	// attachTel hooks one shared recorder into every measured client; set by
	// the RFP-based kinds (telemetry instruments the RFP transport), called
	// after warmup so snapshots cover exactly the measurement window.
	var attachTel func(*telemetry.Recorder)

	switch r.Kind {
	case KindJakiro, KindServerReply:
		cfg := jakiro.Config{
			Threads:             r.ServerThreads,
			BucketsPerPartition: kv.BucketsFor(r.Keys, r.ServerThreads),
			MaxValue:            maxVal,
			Params:              params,
			ExtraProcNs:         r.ExtraProcNs,
		}
		if r.Kind == KindServerReply {
			cfg.Params.ForceReply = true
			cfg.Params.ReplyPollNs = 300
		}
		if r.DisableSpikes {
			cfg.SpikeProb = -1
		}
		srv := jakiro.NewServer(cl.Server, cfg)
		srv.Preload(keys, r.ValueSize)
		js := make([]*jakiro.Client, len(placements))
		for i, pl := range placements {
			js[i] = srv.NewClient(pl.Machine)
			clients[i] = js[i]
		}
		srv.Start()
		statsFn = func() core.ClientStats {
			var agg core.ClientStats
			for _, c := range js {
				agg.Add(c.Stats())
			}
			return agg
		}
		attachTel = func(rec *telemetry.Recorder) {
			for _, c := range js {
				c.SetRecorder(rec)
			}
		}
	case KindMemcached:
		cfg := memckv.Config{Threads: r.ServerThreads, Buckets: kv.BucketsFor(r.Keys, 1), MaxValue: maxVal}
		srv := memckv.NewServer(cl.Server, cfg)
		srv.Preload(keys, r.ValueSize)
		ms := make([]*memckv.Client, len(placements))
		for i, pl := range placements {
			ms[i] = srv.NewClient(pl.Machine)
			clients[i] = ms[i]
		}
		srv.Start()
		statsFn = func() core.ClientStats {
			var agg core.ClientStats
			for _, c := range ms {
				agg.Add(c.Stats())
			}
			return agg
		}
	case KindPilaf:
		cfg := pilafkv.Config{Capacity: r.Keys + 64, MaxValue: maxVal, Threads: r.ServerThreads}
		srv := pilafkv.NewServer(cl.Server, cfg)
		if err := srv.Preload(keys, r.ValueSize); err != nil {
			panic(fmt.Sprintf("experiments: pilaf preload: %v", err))
		}
		ps := make([]*pilafkv.Client, len(placements))
		for i, pl := range placements {
			ps[i] = srv.NewClient(pl.Machine)
			clients[i] = ps[i]
		}
		srv.Start()
		statsFn = func() core.ClientStats { return core.ClientStats{} }
		pilafStats = func() pilafkv.ClientStats {
			var agg pilafkv.ClientStats
			for _, c := range ps {
				agg.Gets += c.Stats.Gets
				agg.Puts += c.Stats.Puts
				agg.SlotReads += c.Stats.SlotReads
				agg.DataReads += c.Stats.DataReads
				agg.TornSlots += c.Stats.TornSlots
				agg.TornExtents += c.Stats.TornExtents
				agg.FPCollisions += c.Stats.FPCollisions
				agg.Restarts += c.Stats.Restarts
			}
			return agg
		}
	default:
		panic(fmt.Sprintf("experiments: unknown store kind %q", r.Kind))
	}

	hist := stats.NewHist(1 << 21)
	measuring := false
	ops := make([]uint64, len(clients))
	var misses uint64
	for i, pl := range placements {
		i := i
		cli := clients[i]
		gen := workload.NewGenerator(r.Workload, r.Opts.Seed*1000+int64(i))
		pl.Machine.Spawn("load", func(p *sim.Proc) {
			scratch := make([]byte, maxVal+64)
			for {
				op := gen.Next()
				start := p.Now()
				ok, err := cli.Do(p, op, scratch)
				if err != nil {
					panic(fmt.Sprintf("experiments: %s op failed: %v", r.Kind, err))
				}
				ops[i]++
				if measuring {
					if r.Latency {
						hist.Add(int64(p.Now().Sub(start)))
					}
					if !ok {
						misses++
					}
				}
			}
		})
	}

	env.Run(sim.Time(r.Opts.Warmup))
	measuring = true
	var rec *telemetry.Recorder
	if r.Opts.Telemetry && attachTel != nil {
		rec = telemetry.New(telemetry.Config{})
		attachTel(rec)
	}
	before := sumU64(ops)
	statsBefore := statsFn()
	start := env.Now()
	env.Run(start.Add(r.Opts.Window))
	after := sumU64(ops)
	statsAfter := statsFn()

	out := KVOut{
		MOPS:   stats.MOPS(after-before, int64(r.Opts.Window)),
		Lat:    hist,
		Agg:    statsAfter.Sub(statsBefore),
		Misses: misses,
		Trace:  ring,
	}
	if pilafStats != nil {
		out.Pilaf = pilafStats()
	}
	if rec != nil {
		out.Tel = rec.Snapshot()
	}
	// Client CPU utilization: fraction of the window each client thread
	// spent busy (idle accrues only in reply-mode waits).
	totalThreadNs := int64(r.ClientThreads) * int64(r.Opts.Window)
	if totalThreadNs > 0 {
		out.ClientUtil = 1 - float64(out.Agg.IdleNs)/float64(totalThreadNs)
	}
	return out
}

// EchoRun describes a bare-RPC sweep run (Fig. 9): a trivial service whose
// handler costs exactly ProcNs and returns RespSize bytes.
type EchoRun struct {
	Opts          Options
	Params        core.Params
	ProcNs        int64
	RespSize      int
	ServerThreads int
	ClientThreads int
}

// RunEcho executes the echo sweep run.
func RunEcho(r EchoRun) KVOut {
	o := r.Opts.withDefaults()
	if r.ServerThreads == 0 {
		r.ServerThreads = 16
	}
	if r.ClientThreads == 0 {
		r.ClientThreads = 35
	}
	if r.RespSize <= 0 {
		r.RespSize = 1
	}
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, 7)
	srv := core.NewServer(cl.Server, core.ServerConfig{MaxRequest: 64, MaxResponse: 64})
	srv.AddThreads(r.ServerThreads)

	placements := cl.ClientThreads(r.ClientThreads)
	conns := make([][]*core.Conn, r.ServerThreads)
	clis := make([]*core.Client, len(placements))
	for i, pl := range placements {
		cli, conn := srv.Accept(pl.Machine, r.Params)
		clis[i] = cli
		conns[i%r.ServerThreads] = append(conns[i%r.ServerThreads], conn)
	}
	handler := func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
		cl.Server.ComputeNs(p, r.ProcNs)
		return r.RespSize
	}
	for t := 0; t < r.ServerThreads; t++ {
		if len(conns[t]) == 0 {
			continue
		}
		set := conns[t]
		cl.Server.Spawn("echo", func(p *sim.Proc) { core.Serve(p, set, handler) })
	}
	ops := make([]uint64, len(clis))
	for i, pl := range placements {
		i := i
		cli := clis[i]
		pl.Machine.Spawn("load", func(p *sim.Proc) {
			req := make([]byte, 1)
			out := make([]byte, 64)
			for {
				if _, err := cli.Call(p, req, out); err != nil {
					panic(fmt.Sprintf("experiments: echo call: %v", err))
				}
				ops[i]++
			}
		})
	}
	env.Run(sim.Time(o.Warmup))
	var rec *telemetry.Recorder
	if o.Telemetry {
		rec = telemetry.New(telemetry.Config{})
		for _, c := range clis {
			c.SetRecorder(rec)
		}
	}
	before := sumU64(ops)
	var idleBefore int64
	for _, c := range clis {
		idleBefore += c.Stats.IdleNs
	}
	start := env.Now()
	env.Run(start.Add(o.Window))
	after := sumU64(ops)
	var agg core.ClientStats
	for _, c := range clis {
		agg.Add(c.Stats)
	}
	idleDelta := agg.IdleNs - idleBefore
	util := 1 - float64(idleDelta)/float64(int64(r.ClientThreads)*int64(o.Window))
	out := KVOut{
		MOPS:       stats.MOPS(after-before, int64(o.Window)),
		Agg:        agg,
		ClientUtil: util,
	}
	if rec != nil {
		out.Tel = rec.Snapshot()
	}
	return out
}

func sumU64(v []uint64) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}
