package experiments

// ext-adaptive-depth: the control plane's third knob exercised end to end.
// A static ring-depth sweep (ext-pipeline's harness) establishes the best
// fixed depth for a light workload (Jakiro-style 150 ns dispatch) and a
// heavy one (~4 µs per-request processing). Then one adaptive client runs
// the same load with a Tuner{TuneDepth} attached, the workload shifts from
// light to heavy mid-run, and the experiment checks that the on-line
// enumeration lands within one doubling step of the best static depth on
// both sides of the shift. The depth trace over time makes the transition
// visible in `rfpbench -json` output.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/scenario"
	"rfp/internal/shard"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
)

func init() {
	register("ext-adaptive-depth", "On-line ring-depth tuning across a workload shift", extAdaptiveDepth)
}

const (
	// adaptiveLightNs is the light phase's per-request server CPU charge
	// (dispatch + hash, as in the Jakiro handler).
	adaptiveLightNs = 150
	// adaptiveHeavyNs models the post-shift heavy requests: ~4 µs of
	// processing moves the pipeline bound from the initiator engines to the
	// serve loop, so a shallower ring already saturates it.
	adaptiveHeavyNs = 4000
)

// adaptiveRun is the adaptive client's measured outcome.
type adaptiveRun struct {
	trace               *stats.Series // selected depth over time
	preDepth, postDepth int
	preMOPS, postMOPS   float64
	tel                 telemetry.Snapshot // zero unless Options.Telemetry
}

// extAdaptiveDepth compares the tuner's on-line depth selection against the
// best static depth of a sweep, before and after a process-time shift.
func extAdaptiveDepth(o Options) Result {
	depths := o.pick([]int{1, 2, 4, 8, 16}, []int{1, 2, 4, 8})
	const valueSize = 32

	light := &stats.Series{Label: "static, light", XLabel: "ring depth", YLabel: "MOPS"}
	heavy := &stats.Series{Label: "static, heavy", XLabel: "ring depth", YLabel: "MOPS"}
	for _, d := range depths {
		lv, _ := runPipelineDepth(o, d, valueSize, adaptiveLightNs)
		light.Add(float64(d), lv)
		hv, _ := runPipelineDepth(o, d, valueSize, adaptiveHeavyNs)
		heavy.Add(float64(d), hv)
	}
	bestLight := bestStaticDepth(depths, light.Y)
	bestHeavy := bestStaticDepth(depths, heavy.Y)

	ad := runAdaptiveDepth(o, valueSize)

	rows := []string{fmt.Sprintf("%-14s%12s%12s", "ring depth", "light MOPS", "heavy MOPS")}
	for i, d := range depths {
		rows = append(rows, fmt.Sprintf("%-14d%12.3f%12.3f", d, light.Y[i], heavy.Y[i]))
	}
	rows = append(rows,
		fmt.Sprintf("best static depth: light %d, heavy %d", bestLight, bestHeavy),
		fmt.Sprintf("adaptive depth: light %d (%.3f MOPS), heavy %d (%.3f MOPS)",
			ad.preDepth, ad.preMOPS, ad.postDepth, ad.postMOPS),
	)
	var tel []string
	if o.Telemetry {
		tel = ad.tel.Text()
	}
	return Result{
		ID: "ext-adaptive-depth", Title: "on-line ring-depth tuning, one client thread (32 B values)",
		Telemetry: tel,
		// Only the depth trace goes in Series: the static sweeps run on a
		// different x axis (depth, not time) and are tabulated in Rows.
		Series: []*stats.Series{ad.trace},
		Rows:   rows,
		Notes: []string{
			"the tuner enumerates Depth in [1, MaxDepth] from the same sample window as F/R, modeling post/poll overlap against the fetched round trip",
			"a re-selected depth applies to the next post: after a shrink Post reports a full ring until the load loop has claimed the calls above the new depth",
			"heavy static points at depth >= 4 flap between modes per call: queueing behind the ring overruns R, and each reply reports 4 us, under the 7 us switch-back threshold",
			"acceptance: the adaptive depth is within one doubling step of the best static depth both before and after the mid-run shift",
		},
	}
}

// bestStaticDepth returns the smallest swept depth whose throughput is
// within 5% of the sweep's best — the static reference the adaptive run is
// judged against.
func bestStaticDepth(depths []int, mops []float64) int {
	best := 0.0
	for _, v := range mops {
		if v > best {
			best = v
		}
	}
	for i, v := range mops {
		if v >= 0.95*best {
			return depths[i]
		}
	}
	return depths[len(depths)-1]
}

// runAdaptiveDepth runs the adaptive client: starts at depth 1 with ring
// capacity 16, attaches a depth-tuning tuner, and shifts the server's
// per-request processing from light to heavy mid-run.
func runAdaptiveDepth(o Options, valueSize int) adaptiveRun {
	params := core.DefaultParams()
	params.Depth = 1
	params.MaxDepth = 16
	env, b, placements := newPipelineRig(o, params, valueSize, adaptiveLightNs)
	defer env.Close()
	cli := b.Conns[0].(*shard.Client).Server(0).Conns()[0]

	// A tight window/period so the heavy phase's slower call rate still
	// turns the sample window over within a couple of measurement windows.
	tuner := core.NewTuner(core.Calibrate(o.Profile, 1), 512, 256)
	tuner.TuneR = false
	tuner.TuneDepth = true
	cli.AttachTuner(tuner)
	// The decision log attaches before warmup: the point of this experiment
	// is the tuner's whole trajectory, including the climb out of depth 1.
	var rec *telemetry.Recorder
	if o.Telemetry {
		rec = b.Record()
		tuner.SetRecorder(rec)
	}

	phases := []scenario.Phase{
		{Name: "warmup", Duration: o.Warmup},
		{Name: "light-settle", Duration: 2 * o.Window}, // the tuner climbs out of the depth-1 start
		{Name: "light", Duration: o.Window},
		{Name: "heavy-settle", Duration: 3 * o.Window}, // the sample window turns over with heavy calls
		{Name: "heavy", Duration: o.Window},
	}
	// The depth is sampled at the end of the warm-up, of every settling
	// window and of every quarter of a measured one.
	steps := []sim.Duration{o.Warmup, o.Window, o.Window / 4, o.Window, o.Window / 4}
	var out adaptiveRun
	out.trace = &stats.Series{Label: "adaptive depth", XLabel: "time (us)", YLabel: "ring depth"}
	sample := func() {
		out.trace.Add(float64(env.Now())/float64(sim.Microsecond), float64(cli.Depth()))
	}
	var t sim.Time
	for i := range phases {
		phases[i].Workload = pipelineLoad
		for end := t.Add(phases[i].Duration); t < end; {
			t = t.Add(steps[i])
			env.At(t, sample)
		}
	}
	shift := sim.Time(o.Warmup).Add(3 * o.Window)
	env.At(shift, func() {
		out.preDepth = cli.Depth()
		b.SetExtraProcNs(adaptiveHeavyNs - jakiroDispatchNs) // the workload shift
	})

	obs := drivePhases(env, b, placements, phases, o.Seed, "ext-adaptive-depth")
	out.preMOPS = mops(obs[2])
	out.postMOPS = mops(obs[4])
	out.postDepth = int(out.trace.Y[len(out.trace.Y)-1])
	if rec != nil {
		out.tel = rec.Snapshot()
	}
	return out
}
