package experiments

// ext-tuning (extension): the on-line tuner reacting to a mid-run
// value-size shift, versus a statically configured client.

import (
	"fmt"

	"rfp/internal/core"
)

func init() {
	register("ext-tuning", "On-line (R,F) tuning across a workload shift", extTuning)
}

// extTuning drives an echo service whose result size shifts from 32 B to
// 384 B mid-run, with and without the on-line tuner attached. After the
// shift a static F=256 client pays a continuation read on every call; the
// tuner re-selects F from its sampling window and recovers the single-read
// fast path (for 384 B results the covering read is still engine-bound, so
// one big read strictly beats two small ones).
func extTuning(o Options) Result {
	const preSize, postSize = 32, 384
	run := func(tuned bool) (preMOPS, postMOPS float64, retunes uint64, finalF int) {
		const serverThreads = 6
		rig := newEchoRig(o, core.DefaultParams(), serverThreads, 16, 2048)
		defer rig.env.Close()
		rig.procNs, rig.respSize = 150, preSize
		tuner := core.NewTuner(core.Calibrate(o.Profile, serverThreads), 2048, 512)
		tuner.TuneR = false
		if tuned {
			for _, cli := range rig.clis {
				cli.AttachTuner(tuner)
			}
		}
		preMOPS = measureMOPS(rig.env, o, sumOf(rig.ops))
		rig.respSize = postSize                      // the workload shift
		rig.env.Run(rig.env.Now().Add(2 * o.Window)) // settle: window turnover + retune period
		postMOPS = windowMOPS(rig.env, o, sumOf(rig.ops))
		return preMOPS, postMOPS, tuner.Retunes, rig.clis[0].Params().F
	}
	staticPre, staticPost, _, _ := run(false)
	tunedPre, tunedPost, retunes, finalF := run(true)
	rows := []string{
		fmt.Sprintf("%-18s%14s%14s", "client", "pre-shift", "post-shift"),
		fmt.Sprintf("%-18s%10.3f MOPS%10.3f MOPS", "static F=256", staticPre, staticPost),
		fmt.Sprintf("%-18s%10.3f MOPS%10.3f MOPS", "on-line tuner", tunedPre, tunedPost),
		fmt.Sprintf("tuner retunes: %d, final F: %d", retunes, finalF),
	}
	return Result{
		ID: "ext-tuning", Title: "on-line parameter adaptation across a 32B->384B result shift",
		Rows: rows,
		Notes: []string{
			"the paper collects selection samples \"by pre-running ... or sampling periodically during its run\"; this is the second mode in action",
		},
	}
}
