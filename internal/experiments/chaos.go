package experiments

// ext-chaos: the fault-injection chaos harness (extension, DESIGN.md §10).
// N clients hammer one echo server — half with synchronous Calls, half with
// depth-4 pipelined Post/Poll — while a seeded fault plan drops
// completions, delays and corrupts deliveries, errors QPs and crashes the
// server machine outright. Each response payload encodes (client, call
// index), so a lost, duplicated, corrupted or cross-slot-mixed response is
// detected at the caller, not inferred from counters. The per-plan rows
// report the recovery path's work (retries/resends/reconnects/demotions)
// plus the injector's trace digest: two runs of the same seed must produce
// identical results byte for byte — the replay contract chaos_test.go
// asserts.

import (
	"bytes"
	"errors"
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/faults"
	"rfp/internal/sim"
)

func init() {
	register("ext-chaos", "RFP under deterministic fault injection (chaos harness)", extChaos)
}

const (
	chaosMaxReq  = 128
	chaosMaxResp = 256
	chaosDepth   = 4 // ring depth of the pipelined clients
)

// chaosPlan is one named, seeded fault plan in the sweep.
type chaosPlan struct {
	name string
	seed int64
	plan faults.Plan
}

// chaosPlans is the sweep: from the empty plan (the zero-cost baseline)
// through light and heavy probabilistic faulting to a whole-server crash.
func chaosPlans(o Options) []chaosPlan {
	crash := faults.Window{
		Machine: "server",
		Start:   sim.Time(sim.Micros(250)),
		End:     sim.Time(sim.Micros(400)),
	}
	return []chaosPlan{
		{name: "none", plan: faults.Plan{}},
		{name: "light", seed: o.Seed + 1, plan: faults.Plan{
			DropProb: 0.01, DelayProb: 0.03, CorruptProb: 0.01}},
		{name: "heavy", seed: o.Seed + 2, plan: faults.Plan{
			DropProb: 0.05, DelayProb: 0.05, CorruptProb: 0.03, QPErrorProb: 0.002}},
		{name: "crash", seed: o.Seed + 3, plan: faults.Plan{
			DropProb: 0.01, DelayProb: 0.03, CorruptProb: 0.01,
			Crashes: []faults.Window{crash}}},
	}
}

// chaosClientResult is one client's accounting. A call is *lost* if it is
// neither completed nor failed — finished implies lost == 0.
type chaosClientResult struct {
	done      int
	failed    int
	corrupted int
	finished  bool
	endAt     sim.Time
}

// chaosReq builds call c of client id: a length varying with the call index
// and a payload mixing both, so any response delivered to the wrong call —
// stale, duplicated, or cross-slot-mixed — breaks the echo comparison.
func chaosReq(buf []byte, id, c int) []byte {
	n := 16 + (c*7+id*13)%48
	req := buf[:n]
	for i := range req {
		req[i] = byte(id*31 + c*17 + i*101)
	}
	return req
}

// chaosVerify checks one response against its call's expected echo.
func chaosVerify(res *chaosClientResult, req, out []byte, n int) {
	if n == len(req) && bytes.Equal(out[:n], req) {
		res.done++
	} else {
		res.corrupted++
	}
}

// chaosSyncClient drives calls synchronous Call round trips.
func chaosSyncClient(p *sim.Proc, cli *core.Client, id, calls int, res *chaosClientResult) {
	req := make([]byte, chaosMaxReq)
	out := make([]byte, chaosMaxResp)
	for c := 0; c < calls; c++ {
		r := chaosReq(req, id, c)
		n, err := cli.Call(p, r, out)
		if err != nil {
			res.failed++
			p.Sleep(sim.Micros(2))
			continue
		}
		chaosVerify(res, r, out, n)
	}
	_ = cli.Close(p)
	res.finished = true
	res.endAt = p.Now()
}

// chaosPipeClient drives calls through a depth-chaosDepth ring, keeping it
// as full as the fault plan allows. Every posted handle is eventually
// claimed — including handles resolved by a crash (ErrReconnect drains the
// ring before the next post re-establishes the connection).
func chaosPipeClient(p *sim.Proc, cli *core.Client, id, calls int, res *chaosClientResult) {
	req := make([]byte, chaosMaxReq)
	out := make([]byte, chaosMaxResp)
	type inflight struct {
		h   core.Handle
		c   int
		req []byte
	}
	var window sim.Ring[inflight]
	claim := func(w inflight) {
		n, err := cli.Poll(p, w.h, out)
		if err != nil {
			res.failed++
			return
		}
		chaosVerify(res, w.req, out, n)
	}
	drain := func() {
		for window.Len() > 0 {
			claim(window.Pop())
		}
	}
	for c := 0; c < calls; c++ {
		r := chaosReq(req, id, c)
		var h core.Handle
		for {
			var err error
			h, err = cli.Post(p, r)
			if err == nil {
				break
			}
			switch {
			case errors.Is(err, core.ErrRingFull):
				claim(window.Pop())
			case errors.Is(err, core.ErrReconnect):
				drain() // resolve every in-flight handle, then reconnect
			default:
				// Reconnect failed (server still down) or terminal: the
				// call is charged as failed, not lost.
				res.failed++
				p.Sleep(sim.Micros(5))
			}
			if res.failed+res.done+res.corrupted > c {
				h = core.Handle{}
				break
			}
		}
		if res.failed+res.done+res.corrupted > c {
			continue // this call was charged during the post loop
		}
		window.Push(inflight{h: h, c: c, req: append([]byte(nil), r...)})
		if window.Len() == chaosDepth {
			claim(window.Pop())
		}
	}
	drain()
	_ = cli.Close(p)
	res.finished = true
	res.endAt = p.Now()
}

// runChaosPlan runs one (plan, clients, calls) cell and renders its row.
func runChaosPlan(o Options, pl chaosPlan, clients, calls int) (row string, results []*chaosClientResult, agg core.ClientStats, inj *faults.Installed) {
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, clients)
	srv := core.NewServer(cl.Server, core.ServerConfig{
		MaxRequest: chaosMaxReq, MaxResponse: chaosMaxResp,
	})
	srv.AddThreads(4)

	params := core.DefaultParams()
	params.Depth = chaosDepth
	params.F = core.HeaderSize + chaosMaxResp // no continuation reads under faults
	params.DeadlineNs = 2_000_000
	params.BackoffNs = 2000
	params.DemoteAfter = 8

	machines := append([]*fabric.Machine{cl.Server}, cl.Clients...)
	inj = faults.Install(pl.seed, []faults.Stage{{Plan: pl.plan}}, machines...)

	clis := make([]*core.Client, clients)
	conns := make([]*core.Conn, clients)
	for i := range clis {
		clis[i], conns[i] = srv.Accept(cl.Clients[i], params)
		cl.Clients[i].AddThreads(1)
	}
	m := cl.Server
	// Each server thread owns an interleaved share of the connections, so
	// no Conn is ever polled by two threads.
	for t := 0; t < 4; t++ {
		var own []*core.Conn
		for i := t; i < len(conns); i += 4 {
			own = append(own, conns[i])
		}
		if len(own) == 0 {
			continue
		}
		t := t
		m.Spawn(fmt.Sprintf("srv%d", t), func(p *sim.Proc) {
			core.Serve(p, own, func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
				m.ComputeNs(p, 150)
				return copy(resp, req)
			})
		})
	}

	results = make([]*chaosClientResult, clients)
	for i := range clis {
		i := i
		results[i] = &chaosClientResult{}
		fn := chaosSyncClient
		if i%2 == 1 {
			fn = chaosPipeClient
		}
		cl.Clients[i].Spawn(fmt.Sprintf("chaos%d", i), func(p *sim.Proc) {
			fn(p, clis[i], i, calls, results[i])
		})
	}
	env.Run(sim.Time(200 * sim.Millisecond))

	var done, failed, corrupted, lost, unfinished int
	var endAt sim.Time
	for _, r := range results {
		done += r.done
		failed += r.failed
		corrupted += r.corrupted
		lost += calls - r.done - r.failed - r.corrupted
		if !r.finished {
			unfinished++
		}
		if r.endAt > endAt {
			endAt = r.endAt
		}
	}
	for _, c := range clis {
		agg.Add(c.Stats)
	}
	kops := 0.0
	if endAt > 0 {
		kops = float64(done) / (float64(endAt) / 1e6) // completions per ms
	}
	row = fmt.Sprintf("%-8s%8d%8d%8d%6d%6d%10.1f%8d%8d%8d%7d%7d%8d  %016x",
		pl.name, done, failed, corrupted, lost, unfinished, kops,
		agg.FaultRetries, agg.Resends, agg.Reconnects, agg.Demotions, agg.Deadlines,
		inj.Events(), inj.Digest())
	return row, results, agg, inj
}

// extChaos sweeps the fault plans.
func extChaos(o Options) Result {
	o = o.withDefaults()
	clients, calls := 8, 240
	if o.Quick {
		clients, calls = 6, 120
	}
	rows := []string{fmt.Sprintf("%-8s%8s%8s%8s%6s%6s%10s%8s%8s%8s%7s%7s%8s  %s",
		"plan", "done", "failed", "corrupt", "lost", "stuck", "ops/ms",
		"retry", "resend", "reconn", "demote", "ddline", "events", "trace digest")}
	for _, pl := range chaosPlans(o) {
		row, _, _, _ := runChaosPlan(o, pl, clients, calls)
		rows = append(rows, row)
	}
	return Result{
		ID: "ext-chaos", Title: fmt.Sprintf("%d clients x %d calls per fault plan (sync + depth-%d pipelined)", clients, calls, chaosDepth),
		Rows: rows,
		Notes: []string{
			"lost counts calls that neither completed nor failed; stuck counts client loops that never finished — both must be zero under every plan",
			"corrupt counts responses whose echoed payload mismatched; the status-bit-last wire rule makes damaged images parse invalid, so it must stay zero",
			"the trace digest fingerprints the injector's event sequence; equal seeds replay byte-identically (chaos_test.go runs every plan twice)",
			"the crash plan's server outage (250-400us) is shorter than the 2ms call deadline, so calls riding over the crash recover by resend + reconnect",
		},
	}
}
