package experiments

// ext-pipeline: the multi-slot request ring applied to a full RFP call
// path. Where ext-async pipelines raw RDMA Reads, this experiment pipelines
// whole KV GETs: one client thread keeps Depth requests in flight on one
// connection (scenario.Drive's pipelined driver on the sharded backend, one
// server), one server thread drains the ring's slots. Depth 1 is the
// paper's one-slot connection, driven by the synchronous Call path, so the
// depth-1 point doubles as a regression anchor for the headline
// single-thread numbers.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/scenario"
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

// pipelineLoad is the workload of every pipelined point: uniform GETs over
// the preloaded keys.
var pipelineLoad = workload.Config{Keys: pipelineKeys, GetFraction: 1}

// newPipelineRig builds the harness ext-pipeline and ext-adaptive-depth
// share: the sharded backend on one server machine with one server thread
// (one partition, load factor 1/8: no evictions), connected from one client
// thread. params sets the ring depth and capacity; procNs is the whole
// per-request dispatch+processing CPU charge (Jakiro's own 150 ns
// included), changeable mid-run through Backend.SetExtraProcNs.
func newPipelineRig(o Options, params core.Params, valueSize int, procNs int64) (*sim.Env, *scenario.Backend, []fabric.Placement) {
	env := sim.NewEnv(o.Seed)
	cl := fabric.NewCluster(env, o.Profile, 1)
	placements := cl.ClientThreads(1)
	b, err := scenario.BuildBackend(scenario.BackendSpec{
		Backend:       scenario.BackendSharded,
		ServerThreads: 1,
		Keys:          pipelineKeys,
		Buckets:       pipelineKeys,
		PreloadValue:  valueSize,
		MaxValue:      valueSize,
		Params:        params,
		ExtraProcNs:   procNs - jakiroDispatchNs,
		DisableSpikes: true,
	}, []*fabric.Machine{cl.Server}, placements)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return env, b, placements
}

// runPipelineDepth measures one (depth, value size, process time) point.
// procNs 150 matches the Jakiro handler; ext-adaptive-depth raises it to
// model heavier requests. The snapshot is zero unless o.Telemetry is set.
func runPipelineDepth(o Options, depth, valueSize int, procNs int64) (float64, telemetry.Snapshot) {
	params := core.DefaultParams()
	params.Depth = depth
	env, b, placements := newPipelineRig(o, params, valueSize, procNs)
	defer env.Close()
	if o.Telemetry {
		b.Record()
	}
	w := driveWindow(env, b, placements, o, pipelineLoad, "ext-pipeline")
	return mops(w), w.Tel
}
