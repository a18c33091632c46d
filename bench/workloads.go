package main

// The four workloads. Each is a deterministic function of the seed: build
// the cluster, warm up in virtual time, then run a fixed virtual window —
// work is fixed in virtual time, never wall time, so operation and event
// counts repeat exactly from rep to rep. Load is closed-loop: every
// simulated client thread issues its next operation when the previous one
// completes (W2 keeps 32 posted), as in the paper's evaluation.

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

const (
	kvKeys      = 100_000
	kvValueSize = 32
	kvWarmup    = 1_000_000 // 1 ms virtual; not scaled, the stores need it to reach steady state
)

// benchWorkload is one named benchmark workload.
type benchWorkload struct {
	name string
	why  string
	// paperMops / paperMeanUs are the paper's figures for this configuration
	// (0 = none: the workload is an extension and has nothing to be held to).
	paperMops, paperMeanUs float64
	note                   string            // printed under the end-to-end block
	iso                    []func() isoDrive // isolation drives listed under this workload
	// traceable workloads are driven by the benchmark's own loops, which a
	// tracer can hook; the others report their ledger from a plain rep.
	traceable bool
	// rep runs one repetition at the given window scale (1 = full size).
	rep func(seed int64, scale float64, tr *tracer) (repResult, error)
}

// virt is everything a rep measures on the virtual clock, plus the counts
// the ledger is built from. It is a pure function of (workload, seed,
// scale): reps compare it with == as the determinism check.
type virt struct {
	windowNs                    int64
	ops, attempted, failed      uint64  // completed / issued / errored+corrupt+unfinished, in the window
	corrupt                     uint64  // GETs whose payload failed verification (also in failed)
	events                      uint64  // kernel events retired in the window (0: not observable)
	iqm, p99, p999, meanLat     float64 // ns
	samples                     uint64
	gets, misses                uint64
	clientVerbs, serverOutbound uint64
	idleNs                      int64
	pilaf                       pilafCounters
	stallMaxNs                  int64 // W4: longest single operation
	linzOps                     int   // W4
	linzNodes                   int64 // W4
}

// repResult is one repetition: the virtual block, the host clock, and what
// is wrong with it, if anything.
type repResult struct {
	virt
	threads    int
	wallNs     int64 // wall time of the measured window
	mallocs    uint64
	allocBytes uint64
	setupS     float64
	breach     string // non-empty: an output check failed
}

func workloads() []benchWorkload {
	return []benchWorkload{
		{
			name:      "jakiro-sync-get95",
			why:       "paper peak config: 35 sync threads on 7 machines, one 6-thread Jakiro server; core Call, rnic blocking verbs, sim proc hand-off",
			paperMops: 5.5, paperMeanUs: 5.78,
			iso:       []func() isoDrive{isoProcSwitch, isoReadBlocking, isoCall, isoRecord},
			traceable: true,
			rep: func(seed int64, scale float64, tr *tracer) (repResult, error) {
				return kvRep(buildJakiroSync, seed, scaled(80_000_000, scale), tr)
			},
		},
		{
			name:      "scaleout-pipelined-zipf",
			why:       "same layers used the other way: 4 servers, 32 ops posted per thread, core ring Post/Poll, rnic CQs, sharded kernel lanes, Zipf keys",
			iso:       []func() isoDrive{isoFnEvent, isoShardedEvent, isoReadAsync, isoPostPoll, isoNextZipf},
			traceable: true,
			rep: func(seed int64, scale float64, tr *tracer) (repResult, error) {
				return kvRep(buildScaleout, seed, scaled(20_000_000, scale), tr)
			},
		},
		{
			name:      "pilaf-bypass-put50",
			why:       "writes beside reads, rnic without core on half the ops: one-sided cuckoo GETs (about 3 reads each), server-reply PUTs",
			paperMops: 1.3,
			iso:       []func() isoDrive{isoBucketGet, isoCuckooLookup},
			traceable: true,
			rep: func(seed int64, scale float64, tr *tracer) (repResult, error) {
				return kvRep(buildPilaf, seed, scaled(80_000_000, scale), tr)
			},
		},
		{
			name: "replica-quorum-mixed",
			why:  "the upper stack: quorum PUTs beside lease-guarded follower GETs built by scenario.Run, 97k-op history checked linearizable",
			iso:  []func() isoDrive{func() isoDrive { return isoLinzCheck(100_000, 512) }},
			rep:  quorumRep,
			note: "latency from PhaseObs.Lat: 12.5% log-linear buckets, interpolated by rank; host_ns_per_op is the wall of the whole scenario.Run / ops done",
		},
	}
}

func scaled(ns int64, scale float64) int64 { return int64(float64(ns) * scale) }

// ---- W1-W3: key-value rigs driven by the benchmark's own closed loops -------------------

// kvRig is a built cluster with its load threads spawned and parked at
// virtual time zero.
type kvRig struct {
	env        simEnv
	threads    []*loadThread
	clientNICs []machine
	serverNICs []machine
	idleNs     func() int64         // summed client idle time (0: not exposed)
	pilaf      func() pilafCounters // summed bypass-GET counters (0: not Pilaf)
	// attach hooks the given number of span-recording recorders into the
	// clients; recorders is how many it wants (0: the store has no hook).
	recorders int
	attach    func([]recorder)
	shared    *loadShared
}

// loadShared is the state every load thread of a rig reads.
type loadShared struct {
	measuring bool
	spans     bool // record the benchmark's own per-op spans
}

// loadThread is one client thread's accounting: written only by its own
// proc, read between Run calls.
type loadThread struct {
	sh        *loadShared
	nic       string
	completed uint64 // all ops ever completed (sizes the sample buffer after warm-up)
	ops       uint64 // ops completed while measuring
	errored   uint64
	corrupt   uint64
	gets      uint64
	misses    uint64
	lat       []int32 // one latency sample (ns) per measured op
	want      []byte
	spanName  string   // name of this thread's op spans
	ring      []opSpan // last len(ring) op spans, when sh.spans
	ringNext  int
}

// opSpan is the benchmark's own span around one driver call.
type opSpan struct {
	name       string
	start, end vtime
}

// newThread adds the accounting of one client thread on machine m, and the
// thread's operation stream: thread i of a run draws from seed*1000+i.
func (r *kvRig) newThread(m machine, spanName string, cfg genConfig, seed int64) (*loadThread, opGen) {
	t := &loadThread{sh: r.shared, nic: m.nicName(), want: make([]byte, kvValueSize), spanName: spanName}
	r.threads = append(r.threads, t)
	return t, newOpGen(cfg, seed*1000+int64(len(r.threads)-1))
}

// newRig starts a rig on a cluster; stores that expose client idle time or
// bypass counters replace the zero readers.
func newRig(env simEnv, cl cluster, servers ...machine) *kvRig {
	return &kvRig{
		env: env, clientNICs: cl.clientMachines(), serverNICs: servers, shared: &loadShared{},
		idleNs: func() int64 { return 0 },
		pilaf:  func() pilafCounters { return pilafCounters{} },
	}
}

// record accounts one completed operation. An errored op is counted and
// the loop goes on; it is never a panic.
func (t *loadThread) record(o kvOp, start, end vtime, found bool, err error, scratch []byte) {
	t.completed++
	if !t.sh.measuring {
		return
	}
	t.ops++
	switch {
	case err != nil:
		t.errored++
	case o.isGet():
		t.gets++
		if !found {
			t.misses++
		} else if !valueMatches(scratch[:kvValueSize], o.key(), t.want) {
			t.corrupt++
		}
	}
	t.lat = append(t.lat, int32(end-start))
	if t.sh.spans {
		t.ring[t.ringNext%len(t.ring)] = opSpan{name: t.spanName, start: start, end: end}
		t.ringNext++
	}
}

// syncClient is a store client that executes one operation at a time.
type syncClient interface {
	do(p simProc, o kvOp, scratch []byte) (bool, error)
}

// spawnSync starts the synchronous closed loop of one client thread.
func spawnSync(m machine, t *loadThread, c syncClient, gen opGen) {
	m.spawn("load", func(p simProc) {
		scratch := make([]byte, kvValueSize+64)
		for {
			o := gen.next()
			start := p.now()
			found, err := c.do(p, o, scratch)
			t.record(o, start, p.now(), found, err, scratch)
		}
	})
}

// spawnPipelined starts the pipelined closed loop of one client thread:
// window operations stay posted across every server's rings; the oldest is
// polled when the window (or a ring) is full.
func spawnPipelined(m machine, t *loadThread, c shardClient, gen opGen, window int) {
	type posted struct {
		o     kvOp
		pd    pendingOp
		start vtime
	}
	m.spawn("load", func(p simProc) {
		scratch := make([]byte, kvValueSize+64)
		inflight := make([]posted, window)
		head, n := 0, 0
		pollHead := func() {
			h := inflight[head]
			head, n = (head+1)%window, n-1
			found, err := c.poll(p, h.pd, scratch)
			t.record(h.o, h.start, p.now(), found, err, scratch)
		}
		for {
			o := gen.next()
			for {
				start := p.now()
				pd, err := c.post(p, o)
				if isRingFull(err) && n > 0 {
					pollHead()
					continue
				}
				if err != nil {
					t.record(o, start, p.now(), false, err, scratch)
					break
				}
				inflight[(head+n)%window] = posted{o: o, pd: pd, start: start}
				n++
				break
			}
			if n >= window {
				pollHead()
			}
		}
	})
}

// buildJakiroSync is the paper's peak configuration (Fig. 10/12).
func buildJakiroSync(seed int64) *kvRig {
	const serverThreads, clientMachines, clientThreads = 6, 7, 35
	env := newSimEnv(seed, 0)
	cl := newCluster(env, "ConnectX3", clientMachines)
	srv := newJakiroServer(cl.server(), jakiroConfig{
		threads: serverThreads, bucketsPerPartition: kvKeys / serverThreads / 4, maxValue: kvValueSize,
	})
	srv.preload(kvKeys, kvValueSize)
	rig := newRig(env, cl, cl.server())
	var clients []jakiroClient
	for _, m := range cl.clientThreads(clientThreads) {
		c := srv.newClient(m)
		clients = append(clients, c)
		t, gen := rig.newThread(m, "bench.jakiro.Do", genConfig{keys: kvKeys, getFraction: 0.95}, seed)
		spawnSync(m, t, c, gen)
	}
	srv.start()
	rig.idleNs = func() (ns int64) {
		for _, c := range clients {
			ns += c.idleNs()
		}
		return ns
	}
	rig.recorders = 1
	rig.attach = func(recs []recorder) {
		for _, c := range clients {
			c.setRecorder(recs[0])
		}
	}
	return rig
}

// buildScaleout is the ext-scaleout shape: 4 sharded Jakiro servers, one
// pipelined client thread on each of 14 machines, on the sharded kernel
// with one lane per machine. The lanes run on one window worker: any worker
// count replays the same virtual run, two workers cost more host time than
// one on a 2-core box (16-20 us/op against 10.5-13) and twice the
// rep-to-rep noise, and a recorder's span ring is single-writer while a
// call's client and server markers come from two lanes. The two-worker
// barrier is timed alone, by the sim.iso.sharded_event_ns drive.
func buildScaleout(seed int64) *kvRig {
	const nServers, serverThreads, clientMachines, depth, window = 4, 4, 14, 8, 32
	env := newSimEnv(seed, 1)
	cl := newCluster(env, "ConnectX3", clientMachines)
	cfg := jakiroConfig{threads: serverThreads, bucketsPerPartition: 8192, maxValue: 64, depth: depth}
	servers := make([]jakiroServer, nServers)
	rig := newRig(env, cl)
	for i := range servers {
		m := cl.server()
		if i > 0 {
			m = cl.addServer(fmt.Sprintf("server%d", i))
		}
		servers[i] = newJakiroServer(m, cfg)
		rig.serverNICs = append(rig.serverNICs, m)
	}
	preloadSharded(servers, kvKeys, kvValueSize)
	var clients []shardClient
	for _, m := range cl.clientThreads(clientMachines) {
		c, err := newShardClient(m, servers, true)
		if err != nil {
			panic(err) // a group-tag exhaustion; not reachable at 14 x 16 connections
		}
		clients = append(clients, c)
		t, gen := rig.newThread(m, "bench.shard.PostOp-PollOp", genConfig{keys: kvKeys, getFraction: 0.95, zipfTheta: 0.99}, seed)
		spawnPipelined(m, t, c, gen, window)
	}
	for _, s := range servers {
		s.start()
	}
	rig.idleNs = func() (ns int64) {
		for _, c := range clients {
			ns += c.idleNs()
		}
		return ns
	}
	rig.recorders = nServers
	rig.attach = func(recs []recorder) {
		for _, c := range clients {
			c.setRecorders(recs)
		}
	}
	return rig
}

// buildPilaf is the Fig. 11 configuration on the 20 Gbps profile.
func buildPilaf(seed int64) *kvRig {
	const serverThreads, clientMachines, clientThreads = 2, 7, 35
	env := newSimEnv(seed, 0)
	cl := newCluster(env, "ConnectX2", clientMachines)
	srv := newPilafServer(cl.server(), kvKeys+64, kvValueSize, serverThreads)
	if err := srv.preload(kvKeys, kvValueSize); err != nil {
		panic(err) // capacity is keys+64 by construction
	}
	rig := newRig(env, cl, cl.server())
	var clients []pilafClient
	for _, m := range cl.clientThreads(clientThreads) {
		c := srv.newClient(m)
		clients = append(clients, c)
		t, gen := rig.newThread(m, "bench.pilafkv.Do", genConfig{keys: kvKeys, getFraction: 0.5}, seed)
		spawnSync(m, t, c, gen)
	}
	srv.start()
	rig.pilaf = func() (s pilafCounters) {
		for _, c := range clients {
			s = s.add(c.counters())
		}
		return s
	}
	return rig
}

func sumCounters(ms []machine) (c nicCounters) {
	for _, m := range ms {
		mc := m.counters()
		c.outOps += mc.outOps
		c.sends += mc.sends
	}
	return c
}

// kvRep runs one repetition of a key-value workload: build, warm up, size
// the sample buffers, then the measured window between two MemStats reads.
func kvRep(build func(seed int64) *kvRig, seed int64, windowNs int64, tr *tracer) (repResult, error) {
	setupStart := time.Now()
	rig := build(seed)
	defer rig.env.close()
	rig.env.runUntil(kvWarmup)

	// Warm-up throughput sizes each thread's sample buffer with headroom,
	// so recording a sample never allocates inside the window.
	for _, t := range rig.threads {
		t.lat = make([]int32, 0, int(float64(t.completed)*float64(windowNs)/kvWarmup*1.5)+1024)
	}
	if tr != nil {
		tr.attach(rig)
	}
	rig.shared.measuring = true
	runtime.GC()
	res := repResult{threads: len(rig.threads), setupS: time.Since(setupStart).Seconds()}

	pilaf0, idle0 := rig.pilaf(), rig.idleNs()
	cli0, srv0 := sumCounters(rig.clientNICs), sumCounters(rig.serverNICs)
	ev0 := rig.env.eventsRetired()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wallStart := time.Now()
	rig.env.runUntil(kvWarmup + windowNs)
	res.wallNs = time.Since(wallStart).Nanoseconds()
	runtime.ReadMemStats(&m1)
	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	v := &res.virt
	v.windowNs = windowNs
	v.events = rig.env.eventsRetired() - ev0
	cli1, srv1 := sumCounters(rig.clientNICs), sumCounters(rig.serverNICs)
	v.clientVerbs = cli1.outOps - cli0.outOps
	v.serverOutbound = srv1.outOps + srv1.sends - srv0.outOps - srv0.sends
	v.idleNs = rig.idleNs() - idle0
	v.pilaf = rig.pilaf().sub(pilaf0)
	var lat []int32
	for _, t := range rig.threads {
		v.ops += t.ops
		v.failed += t.errored + t.corrupt
		v.corrupt += t.corrupt
		v.gets += t.gets
		v.misses += t.misses
		lat = append(lat, t.lat...)
	}
	v.attempted = v.ops
	v.samples = uint64(len(lat))
	if len(lat) == 0 {
		return res, fmt.Errorf("no operation completed in a %d ns window", windowNs)
	}
	slices.Sort(lat)
	bins := sampleBins(lat)
	v.iqm, v.p99, v.p999 = binIQM(bins), binQuantile(bins, 0.99), binQuantile(bins, 0.999)
	var sum float64
	for _, l := range lat {
		sum += float64(l)
	}
	v.meanLat = sum / float64(len(lat))
	if v.corrupt > 0 {
		res.breach = fmt.Sprintf("%d of %d GETs returned a payload that fails workload.CheckValue", v.corrupt, v.gets)
	}
	if tr != nil {
		tr.collect(rig)
	}
	return res, nil
}

// ---- W4: one scenario.Run of a declaration made here ---------------------------------

func quorumDeclaration(scale float64) quorumDecl {
	return quorumDecl{
		clientMachines: 2, threads: 8, servers: 3, keys: 512,
		getFraction: 0.7,
		phases:      10,
		phase:       scaled(18_000_000, scale),
	}
}

// quorumRep runs the declaration once for the measurement and once with
// every phase cut to 1 us for the set-up time: the second run pays the
// build, the preload and the checker's fixed costs and next to no
// simulation.
func quorumRep(seed int64, scale float64, tr *tracer) (repResult, error) {
	decl := quorumDeclaration(scale)
	setup := decl
	setup.phase = 1000
	// The set-up is a few milliseconds: take the median of five.
	setups := make([]float64, 5)
	for i := range setups {
		setupStart := time.Now()
		if _, err := runQuorum(setup, seed); err != nil {
			return repResult{}, err
		}
		runtime.GC()
		setups[i] = time.Since(setupStart).Seconds()
	}
	res := repResult{threads: decl.threads, setupS: median(setups)}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wallStart := time.Now()
	out, err := runQuorum(decl, seed)
	res.wallNs = time.Since(wallStart).Nanoseconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return res, err
	}
	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	v := &res.virt
	var all latHist
	for _, ph := range out.phases {
		v.windowNs += ph.durationNs
		v.ops += ph.done
		v.attempted += ph.issued
		v.corrupt += ph.corrupt
		v.failed += ph.failed + ph.corrupt + uint64(ph.unfinished)
		all.merge(ph.lat)
	}
	v.samples = all.count()
	bins := all.bins()
	v.iqm, v.p99, v.p999 = binIQM(bins), binQuantile(bins, 0.99), binQuantile(bins, 0.999)
	v.stallMaxNs = all.maxNs()
	v.linzOps, v.linzNodes = out.linzOps, out.linzNodes
	if !out.ok {
		res.breach = "scenario report not OK:\n" + out.report
	}
	return res, nil
}
