package experiments

// ext-tuning (extension): the on-line tuner reacting to a mid-run
// value-size shift, versus a statically configured client.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/dist"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/jakiro"
	"rfp/internal/scenario"
	"rfp/internal/workload"
)

func init() {
	register("ext-tuning", "On-line (R,F) tuning across a workload shift", extTuning)
}

// tuningKeys is ext-tuning's key space: small enough that its rewrite
// phase reaches every key.
const tuningKeys = 128

// extTuning serves GETs whose results shift from 32 B to 384 B mid-run,
// with and without the on-line tuner attached: a Jakiro store of 32 B
// values, standing in for a 150 ns echo, has every value rewritten at
// 384 B between the two measured windows. After the shift a static F=256
// client pays a continuation read on every call; the tuner re-selects F
// from its sampling window and recovers the single-read fast path (for
// 384 B results the covering read is still engine-bound, so one big read
// strictly beats two small ones).
func extTuning(o Options) Result {
	const preSize, postSize = 32, 384
	spec := rpcSpec(KindJakiro, 6, preSize, jakiroDispatchNs)
	spec.Keys = tuningKeys
	spec.MaxValue = postSize
	phases := func() []scenario.Phase {
		rewrite := workload.Config{ValueSize: dist.Fixed(postSize)} // PUTs only: the shift
		return []scenario.Phase{
			{Name: "warmup", Duration: o.Warmup, Workload: getLoad},
			{Name: "pre", Duration: o.Window, Workload: getLoad},
			{Name: "rewrite", Duration: o.Window / 4, Workload: rewrite},
			{Name: "settle", Duration: 2 * o.Window, Workload: getLoad}, // window turnover + retune period
			{Name: "post", Duration: o.Window, Workload: getLoad},
		}
	}
	run := func(tuned bool) (preMOPS, postMOPS float64, retunes uint64, finalF int) {
		tuner := core.NewTuner(core.Calibrate(o.Profile, spec.ServerThreads), 2048, 512)
		tuner.TuneR = false
		obs, b := Measure(o, spec, paperClients, phases(), func(_ *fabric.Cluster, b *scenario.Backend) {
			if !tuned {
				return
			}
			for _, c := range b.Conns {
				for _, cli := range c.(*jakiro.Client).Conns() {
					cli.AttachTuner(tuner)
				}
			}
		})
		return mops(obs[1]), mops(obs[4]), tuner.Retunes, b.Conns[0].(*jakiro.Client).Conns()[0].Params().F
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
