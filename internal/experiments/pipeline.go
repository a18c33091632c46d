package experiments

// ext-pipeline: the multi-slot request ring applied to a full RFP call
// path. Where ext-async pipelines raw RDMA Reads, this experiment pipelines
// whole KV GETs: one client thread keeps Depth requests in flight on one
// connection with Post/Poll, one server thread drains the ring's slots.
// Depth 1 is the paper's one-slot connection driven through the same code,
// so the depth-1 point doubles as a regression anchor for the headline
// single-thread numbers.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

func init() {
	register("ext-pipeline", "Pipelined RFP GETs over the multi-slot request ring", extPipeline)
}

// pipelineKeys is the preloaded working set (single partition).
const pipelineKeys = 4096

// extPipeline sweeps the ring depth for single-thread 32 B GETs.
func extPipeline(o Options) Result {
	depths := o.pick([]int{1, 2, 4, 8, 16}, []int{1, 8})
	const valueSize = 32
	mops := &stats.Series{Label: "RFP-pipelined", XLabel: "ring depth", YLabel: "MOPS"}
	rows := []string{fmt.Sprintf("%-14s%10s%12s", "ring depth", "MOPS", "speedup")}
	var tel []string
	if o.Telemetry {
		tel = append(tel, fmt.Sprintf("%-7s%12s%12s%12s%12s%16s", "depth",
			"occ-mean", "occ-peak", "p50(us)", "p99(us)", "rt/call"))
	}
	base := 0.0
	for _, d := range depths {
		v, t := runPipelineDepth(o, d, valueSize, 150)
		mops.Add(float64(d), v)
		if base == 0 {
			base = v
		}
		rows = append(rows, fmt.Sprintf("%-14d%10.3f%11.2fx", d, v, v/base))
		if o.Telemetry {
			tel = append(tel, fmt.Sprintf("%-7d%12.2f%12d%12.2f%12.2f%16.3f",
				d, t.MeanOccupancy(), t.PeakOccupancy(),
				float64(t.Total.Percentile(0.50))/1e3, float64(t.Total.Percentile(0.99))/1e3,
				t.RoundTripsPerCall()))
		}
	}
	return Result{
		ID: "ext-pipeline", Title: "pipelined GETs, one client thread, one server thread (32 B values)",
		Series:    []*stats.Series{mops},
		Rows:      rows,
		Telemetry: tel,
		Notes: []string{
			"depth 1 is the paper's one-slot connection (the Call path) and matches the single-thread GET baseline",
			"deeper rings overlap the write+fetch round trips of several calls; the plateau is the initiator-engine/serve-loop bound, not the round trip",
		},
	}
}

// getRig is a store-backed GET service on one server thread, driven by one
// pipelining client thread over one connection — the harness ext-pipeline
// and ext-adaptive-depth share. The client keeps the ring as full as its
// current depth allows and cooperates with the control plane: a pending
// depth change applies only when the ring is quiescent, so it drains before
// refilling (a no-op without a depth-tuning tuner). procNs, the per-request
// dispatch+processing CPU charge, may be changed between env.Run calls.
type getRig struct {
	env    *sim.Env
	cli    *core.Client
	procNs int64
	done   uint64
}

func newGetRig(o Options, params core.Params, valueSize int, procNs int64) *getRig {
	r := &getRig{env: sim.NewEnv(o.Seed), procNs: procNs}
	cl := fabric.NewCluster(r.env, o.Profile, 1)

	store := kv.NewBucketStore(pipelineKeys) // load factor 1/8: no evictions
	kbuf := make([]byte, workload.KeySize)
	val := make([]byte, valueSize)
	for k := uint64(0); k < pipelineKeys; k++ {
		workload.FillValue(val, k, 0)
		store.Put(workload.EncodeKey(kbuf, k), val)
	}

	srv := core.NewServer(cl.Server, core.ServerConfig{
		MaxRequest:  1 + workload.KeySize,
		MaxResponse: 1 + valueSize,
	})
	srv.AddThreads(1)
	cli, _ := srv.Accept(cl.Clients[0], params)
	cl.Clients[0].AddThreads(1)
	r.cli = cli

	m := cl.Server
	prof := m.Profile()
	srv.Start(1, func(int) core.Handler {
		return func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
			m.ComputeNs(p, r.procNs) // dispatch + hash (+ modeled processing)
			rq, err := kv.DecodeRequest(req)
			if err != nil || rq.Op != kv.OpGet {
				return kv.EncodeResponse(resp, kv.StatusError, nil)
			}
			v, ok := store.Get(rq.Key)
			if !ok {
				return kv.EncodeResponse(resp, kv.StatusNotFound, nil)
			}
			m.ComputeNs(p, prof.CopyNs(len(v)))
			return kv.EncodeResponse(resp, kv.StatusOK, v)
		}
	})

	cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		reqBuf := make([]byte, 1+workload.KeySize)
		out := make([]byte, 1+valueSize)
		hs := make([]core.Handle, 0, cli.MaxDepth())
		key := uint64(0)
		poll := func() {
			n, err := cli.Poll(p, hs[0], out)
			if err != nil {
				panic(err)
			}
			if status, _, err := kv.DecodeResponse(out[:n]); err != nil || status != kv.StatusOK {
				panic(fmt.Sprintf("experiments: bad GET response (status %d, err %v)", status, err))
			}
			hs = hs[:copy(hs, hs[1:])]
			r.done++
		}
		for {
			if cli.PendingDepth() != 0 {
				for len(hs) > 0 {
					poll()
				}
				continue
			}
			for len(hs) < cli.Depth() {
				req := kv.EncodeGet(reqBuf, key%pipelineKeys)
				key++
				h, err := cli.Post(p, req)
				if err != nil {
					panic(err)
				}
				hs = append(hs, h)
			}
			poll()
		}
	})
	return r
}

// runPipelineDepth measures one (depth, value size, process time) point.
// procNs 150 matches the Jakiro handler; ext-adaptive-depth raises it to
// model heavier requests. The snapshot is zero unless o.Telemetry is set.
func runPipelineDepth(o Options, depth, valueSize int, procNs int64) (float64, telemetry.Snapshot) {
	params := core.DefaultParams()
	params.Depth = depth
	r := newGetRig(o, params, valueSize, procNs)
	defer r.env.Close()

	r.env.Run(sim.Time(o.Warmup))
	var rec *telemetry.Recorder
	if o.Telemetry {
		rec = telemetry.New(telemetry.Config{})
		r.cli.SetRecorder(rec)
	}
	mops := windowMOPS(r.env, o, func() uint64 { return r.done })
	var tel telemetry.Snapshot
	if rec != nil {
		tel = rec.Snapshot()
	}
	return mops, tel
}
