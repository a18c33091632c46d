package main

// api.go is the benchmark's one seam into the program under test: every
// call into rfp/internal/... is made in this file, behind bench-local types
// that carry only what the workloads, the ledger and the isolation drives
// need. The rest of the package never names an internal package, so a later
// change to the program has exactly one file of the benchmark to keep
// compiling — and README.md lists the symbols this file leans on as the
// benchmark's load-bearing API.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"rfp/internal/core"
	"rfp/internal/cuckoo"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/kvstore/jakiro"
	"rfp/internal/kvstore/kv"
	"rfp/internal/kvstore/pilafkv"
	"rfp/internal/linz"
	"rfp/internal/rnic"
	"rfp/internal/scenario"
	"rfp/internal/shard"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
	"rfp/internal/workload"
)

// vtime is an instant or span of virtual time, in nanoseconds.
type vtime = int64

// ---- sim: the kernel ------------------------------------------------------

type simEnv struct{ e *sim.Env }

// newSimEnv creates a kernel seeded with seed; shardWorkers > 0 selects the
// sharded kernel with that many window workers.
func newSimEnv(seed int64, shardWorkers int) simEnv {
	e := sim.NewEnv(seed)
	if shardWorkers > 0 {
		e.SetSharded(shardWorkers)
	}
	return simEnv{e}
}

func (s simEnv) runUntil(t vtime)      { s.e.Run(sim.Time(t)) }
func (s simEnv) eventsRetired() uint64 { return s.e.EventsRetired() }
func (s simEnv) close()                { s.e.Close() }

type simProc struct{ p *sim.Proc }

func (p simProc) now() vtime { return vtime(p.p.Now()) }

// ---- hw + fabric: machines and NICs -----------------------------------------

func nicProfile(name string) hw.Profile {
	switch name {
	case "ConnectX3":
		return hw.ConnectX3()
	case "ConnectX2":
		return hw.ConnectX2()
	}
	panic("bench: unknown NIC profile " + name)
}

type machine struct{ m *fabric.Machine }

func (m machine) nicName() string { return m.m.NIC().Name() }

func (m machine) spawn(name string, fn func(simProc)) {
	m.m.Spawn(name, func(p *sim.Proc) { fn(simProc{p}) })
}

// nicCounters is the slice of rnic.Stats the ledger reads: one-sided
// operations issued (outOps) and two-sided sends.
type nicCounters struct{ outOps, sends uint64 }

func (m machine) counters() nicCounters {
	s := m.m.NIC().Stats
	return nicCounters{outOps: s.OutOps, sends: s.Sends}
}

// traceVerbs attaches a fresh verb ring of the given capacity to the
// machine's NIC.
func (m machine) traceVerbs(capacity int) verbRing {
	r := trace.NewRing(capacity)
	m.m.NIC().SetTracer(r)
	return verbRing{r}
}

// cluster is the paper topology (one server, n client machines) plus any
// extra server machines added afterwards.
type cluster struct {
	c    *fabric.Cluster
	prof hw.Profile
}

func newCluster(env simEnv, nic string, clientMachines int) cluster {
	prof := nicProfile(nic)
	return cluster{c: fabric.NewCluster(env.e, prof, clientMachines), prof: prof}
}

func (c cluster) server() machine { return machine{c.c.Server} }

func (c cluster) clientMachines() []machine {
	out := make([]machine, len(c.c.Clients))
	for i, m := range c.c.Clients {
		out[i] = machine{m}
	}
	return out
}

func (c cluster) addServer(name string) machine {
	return machine{fabric.NewMachine(c.c.Env, name, c.prof)}
}

// clientThreads places n client threads round-robin over the client
// machines and returns each thread's machine, in spawn order.
func (c cluster) clientThreads(n int) []machine {
	pls := c.c.ClientThreads(n)
	out := make([]machine, len(pls))
	for i, pl := range pls {
		out[i] = machine{pl.Machine}
	}
	return out
}

// ---- workload: generated operations -----------------------------------------

type genConfig struct {
	keys        int
	getFraction float64
	zipfTheta   float64 // 0 = uniform
}

type opGen struct{ g *workload.Generator }

func newOpGen(cfg genConfig, seed int64) opGen {
	return opGen{workload.NewGenerator(workload.Config{
		Keys: cfg.keys, GetFraction: cfg.getFraction, ZipfTheta: cfg.zipfTheta,
	}, seed)}
}

type kvOp struct{ o workload.Op }

func (g opGen) next() kvOp { return kvOp{g.g.Next()} }
func (o kvOp) isGet() bool { return o.o.Kind == workload.Get }
func (o kvOp) key() uint64 { return o.o.Key }

// valueMatches is workload.CheckValue against the two writable versions
// (0 = preload/PUT, 1 = RMW) without its per-call allocation, so the
// benchmark's own checking stays out of the allocation metrics. want is
// scratch at least len(got) long.
func valueMatches(got []byte, key uint64, want []byte) bool {
	want = want[:len(got)]
	for v := uint32(0); v <= 1; v++ {
		workload.FillValue(want, key, v)
		if bytes.Equal(got, want) {
			return true
		}
	}
	return false
}

// ---- jakiro + shard: the RFP stores -------------------------------------------

type jakiroConfig struct {
	threads             int
	bucketsPerPartition int
	maxValue            int
	depth               int // request-ring depth; <= 1 is the paper's one-slot connection
}

type jakiroServer struct {
	s       *jakiro.Server
	threads int
}

func newJakiroServer(m machine, cfg jakiroConfig) jakiroServer {
	jc := jakiro.Config{
		Threads:             cfg.threads,
		BucketsPerPartition: cfg.bucketsPerPartition,
		MaxValue:            cfg.maxValue,
		Params:              core.DefaultParams(),
	}
	if cfg.depth > 1 {
		jc.Params.Depth = cfg.depth
	}
	return jakiroServer{s: jakiro.NewServer(m.m, jc), threads: cfg.threads}
}

func (s jakiroServer) preload(keys, valueSize int) {
	s.s.Preload(workload.Preload(workload.Config{Keys: keys}), valueSize)
}

func (s jakiroServer) newClient(m machine) jakiroClient { return jakiroClient{s.s.NewClient(m.m)} }
func (s jakiroServer) start()                           { s.s.Start() }

// preloadSharded installs keys 0..keys-1 at version 0, each on the server
// shard.For routes it to — the ext-scaleout preload.
func preloadSharded(servers []jakiroServer, keys, valueSize int) {
	kbuf := make([]byte, workload.KeySize)
	val := make([]byte, valueSize)
	for k := uint64(0); k < uint64(keys); k++ {
		key := workload.EncodeKey(kbuf, k)
		workload.FillValue(val, k, 0)
		srv := servers[shard.For(key, len(servers))]
		srv.s.Partition(kv.PartitionFor(key, srv.threads)).Put(key, val)
	}
}

type jakiroClient struct{ c *jakiro.Client }

func (c jakiroClient) do(p simProc, o kvOp, scratch []byte) (bool, error) {
	return c.c.Do(p.p, o.o, scratch)
}
func (c jakiroClient) idleNs() int64          { return c.c.Stats().IdleNs }
func (c jakiroClient) setRecorder(r recorder) { c.c.SetRecorder(r.r) }

type shardClient struct{ c *shard.Client }

func newShardClient(m machine, servers []jakiroServer, pipelined bool) (shardClient, error) {
	js := make([]*jakiro.Server, len(servers))
	for i, s := range servers {
		js[i] = s.s
	}
	c, err := shard.New(m.m, js, pipelined)
	return shardClient{c}, err
}

// pendingOp is one posted, not yet polled operation.
type pendingOp = shard.PendingOp

func (c shardClient) post(p simProc, o kvOp) (pendingOp, error) { return c.c.PostOp(p.p, o.o) }
func (c shardClient) poll(p simProc, pd pendingOp, scratch []byte) (bool, error) {
	return c.c.PollOp(p.p, pd, scratch)
}
func (c shardClient) idleNs() int64 { return c.c.Stats().IdleNs }

// setRecorders attaches recs[s] to the connections of server s. One
// recorder per server keeps (connection, sequence) unique within a span
// ring: connection ids are per-server accept indices.
func (c shardClient) setRecorders(recs []recorder) {
	for s := 0; s < c.c.NumServers(); s++ {
		c.c.Server(s).SetRecorder(recs[s].r)
	}
}

func isRingFull(err error) bool { return errors.Is(err, core.ErrRingFull) }

// ---- pilafkv: the server-bypass store ---------------------------------------------

type pilafServer struct{ s *pilafkv.Server }

func newPilafServer(m machine, capacity, maxValue, threads int) pilafServer {
	return pilafServer{pilafkv.NewServer(m.m, pilafkv.Config{Capacity: capacity, MaxValue: maxValue, Threads: threads})}
}

func (s pilafServer) preload(keys, valueSize int) error {
	return s.s.Preload(workload.Preload(workload.Config{Keys: keys}), valueSize)
}
func (s pilafServer) newClient(m machine) pilafClient { return pilafClient{s.s.NewClient(m.m)} }
func (s pilafServer) start()                          { s.s.Start() }

type pilafClient struct{ c *pilafkv.Client }

func (c pilafClient) do(p simProc, o kvOp, scratch []byte) (bool, error) {
	return c.c.Do(p.p, o.o, scratch)
}

type pilafCounters struct{ gets, reads, torn uint64 }

func (c pilafCounters) add(o pilafCounters) pilafCounters {
	return pilafCounters{gets: c.gets + o.gets, reads: c.reads + o.reads, torn: c.torn + o.torn}
}

func (c pilafCounters) sub(o pilafCounters) pilafCounters {
	return pilafCounters{gets: c.gets - o.gets, reads: c.reads - o.reads, torn: c.torn - o.torn}
}

func (c pilafClient) counters() pilafCounters {
	s := c.c.Stats
	return pilafCounters{gets: s.Gets, reads: s.SlotReads + s.DataReads, torn: s.TornSlots + s.TornExtents}
}

// ---- telemetry + trace: the traced pass ---------------------------------------------

type recorder struct{ r *telemetry.Recorder }

func newRecorder(spanEvents int) recorder {
	return recorder{telemetry.New(telemetry.Config{SpanEvents: spanEvents})}
}

// callStats is what the ledger takes from the recorders' merged snapshot.
type callStats struct {
	calls, fetchCalls, replyCalls     uint64
	writes, reads, retries            uint64
	fallbacks                         uint64
	totalMeanNs                       float64 // post -> completion, exact mean
	sendP50, fetchLegP50, replyLegP50 float64 // ns, interpolated within 12.5% buckets
	occupancyMean                     float64
}

func summarize(recs []recorder) callStats {
	var s telemetry.Snapshot
	for _, r := range recs {
		s.Merge(r.r.Snapshot())
	}
	return callStats{
		calls: s.Calls, fetchCalls: s.FetchCalls, replyCalls: s.ReplyCalls,
		writes: s.Writes, reads: s.Reads, retries: s.Retries, fallbacks: s.Fallbacks,
		totalMeanNs:   s.Total.Mean(),
		sendP50:       binQuantile(latHist{s.Send}.bins(), 0.50),
		fetchLegP50:   binQuantile(latHist{s.FetchLeg}.bins(), 0.50),
		replyLegP50:   binQuantile(latHist{s.ReplyLeg}.bins(), 0.50),
		occupancyMean: s.MeanOccupancy(),
	}
}

// spanEvent is one call-scoped marker of a stitched call.
type spanEvent struct {
	kind       string
	nic        string
	start, end vtime
}

// callSpan is one complete stitched RFP call. hit is the instant the client
// first held the result: the end of the fetch that hit, or the start of
// CALL-DONE for a call the server replied to.
type callSpan struct {
	nic             string // client NIC that posted the call
	start, end, hit vtime
	events          []spanEvent
}

// stitchedCalls stitches every recorder's retained span events. scoped is
// the number of call-scoped events retained; misstitched counts those that
// did not end up in a complete span (orphans whose CALL-POST fell off the
// ring, and the events of spans left incomplete).
func stitchedCalls(recs []recorder) (calls []callSpan, scoped, misstitched int) {
	for _, r := range recs {
		spans, orphans := r.r.Spans()
		scoped += len(orphans)
		misstitched += len(orphans)
		for _, sp := range spans {
			scoped += len(sp.Events)
			if !sp.Complete {
				misstitched += len(sp.Events)
				continue
			}
			cs := callSpan{nic: sp.Events[0].Src, start: vtime(sp.Start), end: vtime(sp.End), hit: -1}
			for _, e := range sp.Events {
				cs.events = append(cs.events, spanEvent{kind: e.Kind.String(), nic: e.Src, start: vtime(e.Start), end: vtime(e.End)})
				switch e.Kind {
				case trace.FetchHit:
					cs.hit = vtime(e.End)
				case trace.CallDone:
					if cs.hit < 0 {
						cs.hit = vtime(e.Start)
					}
				}
			}
			calls = append(calls, cs)
		}
	}
	return calls, scoped, misstitched
}

type verbRing struct{ r *trace.Ring }

type verbEvent struct {
	kind       string // "READ", "WRITE", "SEND", ...
	src, dst   string
	start, end vtime
}

func (v verbRing) events() []verbEvent {
	evs := v.r.Events()
	out := make([]verbEvent, len(evs))
	for i, e := range evs {
		out[i] = verbEvent{kind: e.Kind.String(), src: e.Src, dst: e.Dst, start: vtime(e.Start), end: vtime(e.End)}
	}
	return out
}

// latHist wraps the program's 12.5% log-linear latency histogram.
type latHist struct{ h telemetry.HistSnap }

func (l *latHist) merge(o latHist) { l.h.Merge(&o.h) }
func (l latHist) count() uint64    { return l.h.Count }
func (l latHist) maxNs() int64     { return l.h.Max }

// bucketRange recovers bucket i's value range through the public API: the
// Delta of a one-sample snapshot tightens Min/Max to the occupied bucket.
func bucketRange(i int) (lo, hi int64) {
	var one telemetry.HistSnap
	one.Count, one.Buckets[i], one.Max = 1, 1, math.MaxInt64
	d := one.Delta(telemetry.HistSnap{})
	return d.Min, d.Max
}

// bins returns the occupied buckets, ascending, each tightened to the
// recorded extremes.
func (l latHist) bins() []bin {
	var out []bin
	for i, n := range l.h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := bucketRange(i)
		if lo < l.h.Min {
			lo = l.h.Min
		}
		if hi > l.h.Max {
			hi = l.h.Max
		}
		out = append(out, bin{lo: float64(lo), width: float64(hi - lo + 1), n: n})
	}
	return out
}

// ---- scenario: the replicated run ---------------------------------------------------

// quorumDecl declares the replicated-store scenario: equal back-to-back
// phases of one read/write mix against the quorum group, checked for
// no-lost, no-corruption, all-resolved and linearizable.
type quorumDecl struct {
	clientMachines, threads, servers, keys int
	getFraction                            float64
	phases                                 int
	phase                                  vtime
}

func (d quorumDecl) scenario() scenario.Scenario {
	sc := scenario.Scenario{
		Name:     "bench-replica-quorum-mixed",
		Desc:     "quorum PUTs beside lease-guarded follower GETs, history checked linearizable",
		Topology: scenario.Topology{ClientMachines: d.clientMachines, Threads: d.threads, Servers: d.servers, Keys: d.keys},
		Backends: []string{scenario.BackendReplica},
		Invariants: []scenario.Invariant{
			{Kind: scenario.NoLost}, {Kind: scenario.NoCorruption},
			{Kind: scenario.AllResolved}, {Kind: scenario.Linearizable},
		},
	}
	for i := 0; i < d.phases; i++ {
		sc.Phases = append(sc.Phases, scenario.Phase{
			Name: fmt.Sprintf("mixed%d", i), Duration: sim.Duration(d.phase),
			Workload: workload.Config{GetFraction: d.getFraction},
		})
	}
	return sc
}

type phaseResult struct {
	durationNs                    int64
	issued, done, failed, corrupt uint64
	unfinished                    int
	lat                           latHist
}

type scenarioResult struct {
	ok        bool   // Report.OK(): every phase verdict and the linearizable verdict
	report    string // the rendered report, when not ok
	phases    []phaseResult
	linzOps   int
	linzNodes int64
}

func runQuorum(d quorumDecl, seed int64) (scenarioResult, error) {
	rep, err := scenario.Run(d.scenario(), scenario.BackendReplica, scenario.Options{Seed: seed})
	if err != nil {
		return scenarioResult{}, err
	}
	res := scenarioResult{ok: rep.OK()}
	for _, ph := range rep.Phases {
		o := ph.Obs
		res.phases = append(res.phases, phaseResult{
			durationNs: o.DurationNs,
			issued:     o.Issued, done: o.Done, failed: o.Failed, corrupt: o.Corrupted,
			unfinished: o.Unfinished, lat: latHist{o.Lat},
		})
	}
	// The verdict carries the checker's search statistics only as text.
	var parts int
	if rep.Linz == nil {
		res.ok = false
	} else if _, err := fmt.Sscanf(rep.Linz.Detail, "linearizable: ops=%d partitions=%d nodes=%d",
		&res.linzOps, &parts, &res.linzNodes); err != nil {
		res.ok = false
	}
	if !res.ok {
		res.report = rep.Render()
	}
	return res, nil
}

// ---- isolation drives: one layer alone through its public API -----------------------------

// isoDrive exercises one layer. run performs about n units of work and
// returns the units actually done and the kernel events they retired.
type isoDrive struct {
	name       string // the per-layer metric it yields (ns per unit)
	eventsName string // the metric for its kernel events per unit, if it reports one
	chunk      int    // units per run call
	run        func(n int) (units, events uint64)
	close      func()
}

// isoEnvDrive finishes a drive whose work is done by procs inside env:
// units counts the work done so far, nsPerUnit is a virtual-time estimate
// used to size each Run.
func isoEnvDrive(name string, chunk int, env *sim.Env, units *uint64, nsPerUnit int64) isoDrive {
	return isoDrive{
		name: name, chunk: chunk,
		run: func(n int) (uint64, uint64) {
			u0, e0 := *units, env.EventsRetired()
			for *units-u0 < uint64(n) {
				env.Run(env.Now().Add(sim.Duration(int64(n) * nsPerUnit)))
			}
			return *units - u0, env.EventsRetired() - e0
		},
		close: env.Close,
	}
}

// isoFnEvent: a chain of run-to-completion Env.After callbacks.
func isoFnEvent() isoDrive {
	env := sim.NewEnv(1)
	var units uint64
	var fn func()
	fn = func() {
		units++
		env.After(1, fn)
	}
	env.After(1, fn)
	return isoEnvDrive("sim.iso.fn_event_ns", 200_000, env, &units, 1)
}

// isoProcSwitch: two procs sleeping in lockstep, so every Sleep parks one
// goroutine and resumes the other.
func isoProcSwitch() isoDrive {
	env := sim.NewEnv(1)
	var units uint64
	for i := 0; i < 2; i++ {
		env.Go("pingpong", func(p *sim.Proc) {
			for {
				p.Sleep(1)
				units++
			}
		})
	}
	return isoEnvDrive("sim.iso.proc_switch_ns", 20_000, env, &units, 1)
}

// isoShardedEvent: two lanes exchanging Shard.SendAfter callbacks under the
// window barrier, 2 workers on 2 Ps (restored on close), 64 chains each way.
func isoShardedEvent() isoDrive {
	procs := runtime.GOMAXPROCS(2)
	const lookahead, chains = 300, 64
	env := sim.NewEnv(1)
	env.SetSharded(2)
	a, b := env.NewShard("a"), env.NewShard("b")
	env.ObserveLinkFloor(lookahead)
	// Each lane counts its own events; the sum is read between Run calls.
	var na, nb uint64
	var toB, toA func()
	toB = func() { nb++; b.SendAfter(a, lookahead, toA) }
	toA = func() { na++; a.SendAfter(b, lookahead, toB) }
	for i := 0; i < chains; i++ {
		a.At(0, toA)
		b.At(0, toB)
	}
	var units uint64
	d := isoDrive{name: "sim.iso.sharded_event_ns", chunk: 100_000}
	d.close = func() {
		env.Close()
		runtime.GOMAXPROCS(procs)
	}
	d.run = func(n int) (uint64, uint64) {
		u0, e0 := units, env.EventsRetired()
		for units-u0 < uint64(n) {
			env.Run(env.Now().Add(sim.Duration(n / (2 * chains) * lookahead)))
			units = na + nb
		}
		return units - u0, env.EventsRetired() - e0
	}
	return d
}

// isoLink is two connected machines with a registered region on the far side.
func isoLink() (env *sim.Env, near *fabric.Machine, qp *rnic.QP, remote rnic.RemoteMR) {
	env = sim.NewEnv(1)
	prof := hw.ConnectX3()
	near = fabric.NewMachine(env, "near", prof)
	far := fabric.NewMachine(env, "far", prof)
	near.AddThreads(1)
	near.NIC().RegisterIssuer()
	qp, _ = fabric.Connect(near, far)
	return env, near, qp, far.NIC().RegisterMemory(4096).Handle()
}

// isoReadBlocking: one thread issuing 32 B QP.Read back to back.
func isoReadBlocking() isoDrive {
	env, near, qp, remote := isoLink()
	var units uint64
	near.Spawn("reader", func(p *sim.Proc) {
		buf := make([]byte, 32)
		for {
			if err := qp.Read(p, remote, 0, buf); err != nil {
				panic(err)
			}
			units++
		}
	})
	d := isoEnvDrive("rnic.iso.read_blocking_ns", 20_000, env, &units, 2000)
	d.eventsName = "rnic.iso.events_per_read_blocking"
	return d
}

// isoReadAsync: one thread keeping 8 reads posted, reaping with CQ.Wait.
func isoReadAsync() isoDrive {
	env, near, qp, remote := isoLink()
	var units uint64
	near.Spawn("reader", func(p *sim.Proc) {
		const deep = 8
		cq := rnic.NewCQ(near.NIC())
		bufs := make([][]byte, deep)
		post := func(i int) {
			qp.Post(p, cq, rnic.WR{ID: uint64(i), Op: rnic.WRRead, Remote: remote, Local: bufs[i]})
		}
		for i := range bufs {
			bufs[i] = make([]byte, 32)
			post(i)
		}
		for {
			e := cq.Wait(p)
			if e.Err != nil {
				panic(e.Err)
			}
			units++
			post(int(e.ID))
		}
	})
	d := isoEnvDrive("rnic.iso.read_async_ns", 50_000, env, &units, 600)
	d.eventsName = "rnic.iso.events_per_read_async"
	return d
}

// isoEcho is a one-connection echo service: a 150 ns handler returning 32 B.
func isoEcho(depth int) (*sim.Env, *fabric.Machine, *core.Client) {
	env := sim.NewEnv(1)
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	srv := core.NewServer(cl.Server, core.ServerConfig{MaxRequest: 64, MaxResponse: 64})
	srv.AddThreads(1)
	params := core.DefaultParams()
	params.Depth = depth
	cm := cl.ClientThreads(1)[0].Machine
	cli, conn := srv.Accept(cm, params)
	cl.Server.Spawn("echo", func(p *sim.Proc) {
		core.Serve(p, []*core.Conn{conn}, func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
			cl.Server.ComputeNs(p, 150)
			return 32
		})
	})
	return env, cm, cli
}

// isoCall: synchronous Client.Call round trips.
func isoCall() isoDrive {
	env, cm, cli := isoEcho(1)
	var units uint64
	cm.Spawn("caller", func(p *sim.Proc) {
		req, out := make([]byte, 16), make([]byte, 64)
		for {
			if _, err := cli.Call(p, req, out); err != nil {
				panic(err)
			}
			units++
		}
	})
	return isoEnvDrive("core.iso.call_ns", 10_000, env, &units, 4000)
}

// isoPostPoll: the same service through a depth-8 ring kept full.
func isoPostPoll() isoDrive {
	const depth = 8
	env, cm, cli := isoEcho(depth)
	var units uint64
	cm.Spawn("caller", func(p *sim.Proc) {
		req, out := make([]byte, 16), make([]byte, 64)
		var hs [depth]core.Handle
		post := func(i int) {
			h, err := cli.Post(p, req)
			if err != nil {
				panic(err)
			}
			hs[i] = h
		}
		for i := range hs {
			post(i)
		}
		for i := 0; ; i = (i + 1) % depth {
			if _, err := cli.Poll(p, hs[i], out); err != nil {
				panic(err)
			}
			units++
			post(i)
		}
	})
	return isoEnvDrive("core.iso.postpoll_ns", 20_000, env, &units, 1000)
}

// isoKeys is the encoded form of n keys, visited in a seeded random order.
func isoKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.EncodeKey(make([]byte, workload.KeySize), uint64(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// isoHostDrive finishes a drive that is plain host code, one call per unit.
func isoHostDrive(name string, chunk int, unit func(i int)) isoDrive {
	next := 0
	return isoDrive{
		name: name, chunk: chunk, close: func() {},
		run: func(n int) (uint64, uint64) {
			for i := 0; i < n; i++ {
				unit(next)
				next++
			}
			return uint64(n), 0
		},
	}
}

// isoBucketGet: BucketStore.Get over 32k resident 32 B values.
func isoBucketGet() isoDrive {
	const n = 1 << 15
	store := kv.NewBucketStore(n) // one key per 8-slot bucket on average: nothing is evicted
	keys := isoKeys(n)
	val := make([]byte, 32)
	for _, k := range keys {
		store.Put(k, val)
	}
	return isoHostDrive("kvstore.iso.bucket_get_ns", 500_000, func(i int) {
		if _, ok := store.Get(keys[i%n]); !ok {
			panic("bench: iso bucket store lost a key")
		}
	})
}

// isoCuckooLookup: server-side cuckoo.Table.Lookup at 75% fill.
func isoCuckooLookup() isoDrive {
	const n = 1 << 15
	tab := cuckoo.New(make([]byte, cuckoo.NumSlotsFor(n, 0.75)*cuckoo.SlotSize))
	keys := isoKeys(n)
	for i, k := range keys {
		if _, err := tab.Insert(k, cuckoo.Entry{DataOff: uint64(i), ValSize: 32, Version: 1}); err != nil {
			panic(err)
		}
	}
	return isoHostDrive("kvstore.iso.cuckoo_lookup_ns", 200_000, func(i int) {
		if _, _, ok := tab.Lookup(keys[i%n]); !ok {
			panic("bench: iso cuckoo table lost a key")
		}
	})
}

// isoNextZipf: Generator.Next under Zipf(.99) over 100k keys.
func isoNextZipf() isoDrive {
	g := workload.NewGenerator(workload.Config{Keys: 100_000, GetFraction: 0.95, ZipfTheta: 0.99}, 1)
	return isoHostDrive("workload.iso.next_zipf_ns", 500_000, func(int) { g.Next() })
}

// isoRecord: one Recorder.Call plus one span Event, as a traced call costs.
func isoRecord() isoDrive {
	rec := telemetry.New(telemetry.Config{SpanEvents: 1 << 16})
	return isoHostDrive("telemetry.iso.record_ns", 1_000_000, func(i int) {
		rec.Call(6000, 2000, 4000, false)
		rec.Event(trace.Event{Start: sim.Time(i), End: sim.Time(i + 1), Kind: trace.CallDone, Conn: 1, Seq: uint16(i)})
	})
}

// isoLinzCheck: CheckKV over a synthetic linearizable history of ops
// operations on keys keys by 8 clients, three operations overlapping at any
// instant. One unit is one operation checked.
func isoLinzCheck(ops, keys int) isoDrive {
	rng := rand.New(rand.NewSource(1))
	cur := make([]uint32, keys)
	h := make(linz.History, ops)
	for i := range h {
		k := rng.Intn(keys)
		o := linz.Op{Client: i % 8, Key: uint64(k), Call: int64(i), Return: int64(i + 3)}
		if rng.Float64() < 0.7 {
			o.Kind, o.Out, o.Found = linz.Read, cur[k], true
		} else {
			cur[k] = uint32(i + 1)
			o.Kind, o.Arg = linz.Write, cur[k]
		}
		h[i] = o
	}
	return isoDrive{
		name: "linz.iso.check_ns_per_op", chunk: ops, close: func() {},
		run: func(int) (uint64, uint64) {
			res := linz.CheckKV(h, func(uint64) (uint32, bool) { return 0, true }, linz.Options{})
			if res.Verdict != linz.Linearizable {
				panic("bench: iso history not certified linearizable: " + res.Verdict.String())
			}
			return uint64(ops), 0
		},
	}
}
