package experiments

// Ablations over the design choices DESIGN.md calls out. These go beyond
// the paper's figures: each isolates one RFP mechanism and measures what
// turning it off costs.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/dist"
	"rfp/internal/fabric"
	"rfp/internal/scenario"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

func init() {
	register(ablationInline.id, ablationInline.desc, ablationInline.run)
	register("ablation-switch", "Hybrid auto-switch vs always-fetch vs always-reply under load", ablationSwitch)
	register("ablation-selection", "Tuned fetch size F vs mis-set values", ablationSelection)
	register("ablation-twosided", "Two-sided Send/Recv shows no in/out-bound asymmetry", ablationTwoSided)
}

// ablationInline quantifies the inline mechanism: without it, every fetch
// needs a size-probe read plus a payload read, halving effective IOPS for
// small results.
var ablationInline = sweep{
	id: "ablation-inline", desc: "Inline size+payload fetch vs separate size-probe read",
	title:  "cost of fetching the size separately",
	xLabel: "value size (B)", yLabel: "MOPS",
	full: []int{32, 128, 512, 2048}, quick: []int{32, 512},
	lines: []line{
		{"inline", func(o Options, sz int) scenario.PhaseObs { return point(o, coveringSpec(sz), sizedLoad(sz)) }},
		{"size-probe", func(o Options, sz int) scenario.PhaseObs {
			spec := coveringSpec(sz)
			spec.Params.NoInline = true
			return point(o, spec, sizedLoad(sz))
		}},
	},
	notes: []string{"the strawman wastes half of the RNIC's in-bound IOPS on small results (Sec. 3.2)"},
}

// coveringSpec is Jakiro over sz-byte values with an F that covers them.
func coveringSpec(sz int) scenario.BackendSpec {
	spec := PaperSpec(KindJakiro, sz)
	spec.Params.F = sz + fetchOverhead
	return spec
}

// ablationSwitch contrasts the three policies at a long process time where
// fetching no longer pays: the hybrid keeps server-reply throughput while
// releasing client CPU.
func ablationSwitch(o Options) Result {
	const procUs = 10
	type row struct {
		name string
		kind StoreKind
		noSw bool
	}
	rows := []row{
		{"hybrid (RFP)", KindJakiro, false},
		{"always-fetch", KindJakiro, true},
		{"always-reply", KindServerReply, false},
	}
	lines := []string{fmt.Sprintf("%-16s%10s%14s", "policy", "MOPS", "client CPU%")}
	for _, r := range rows {
		w := fig14Point(o, r.kind, procUs, r.noSw)
		lines = append(lines, fmt.Sprintf("%-16s%10.3f%13.1f%%", r.name, mops(w), 100*ClientUtil(w, paperClients)))
	}
	return Result{
		ID: "ablation-switch", Title: fmt.Sprintf("policies at P = %d us", procUs),
		Rows:  lines,
		Notes: []string{"the hybrid matches always-fetch throughput at a fraction of the client CPU"},
	}
}

// ablationSelection runs a mixed-size workload (mostly small values with
// an occasional large one, the population shape real KV deployments report)
// with the F that the Sec. 3.2 procedure selects versus mis-set values.
func ablationSelection(o Options) Result {
	mix := dist.Mixture{A: dist.Fixed(32), B: dist.Fixed(2048), PA: 0.92}
	w := workload.Config{GetFraction: 0.95, ValueSize: mix}
	// Pre-run sampling: observe the result sizes the service produces.
	gen := workload.NewGenerator(w, o.Seed)
	sampler := core.NewSampler(2048)
	for i := 0; i < 4096; i++ {
		op := gen.Next()
		sampler.Observe(mix.Next(gen.Rand())+1, 400) // +1: KV status byte
		_ = op
	}
	cal := core.Calibrate(o.Profile, 6)
	selected := core.SelectF(cal, sampler.Sizes)

	fs := []int{selected, cal.H, 2 * cal.H, 4 * cal.H}
	s := &stats.Series{Label: "MOPS", XLabel: "fetch size F (B)", YLabel: "MOPS"}
	spec := PaperSpec(KindJakiro, 32)
	spec.MaxValue = mix.Max()
	for _, f := range fs {
		spec.Params.F = f
		s.Add(float64(f), mops(point(o, spec, w)))
	}
	return Result{
		ID: "ablation-selection", Title: fmt.Sprintf("selected F = %d within [L=%d, H=%d]", selected, cal.L, cal.H),
		Series: []*stats.Series{s},
		Notes:  []string{"covering the rare large result with a big default F wastes bandwidth on every call; the selected F covers the common case and pays a second read only for the tail"},
	}
}

// ablationTwoSided confirms the paper's side observation that two-sided
// Send/Recv shows no in/out-bound asymmetry, unlike one-sided verbs. Its
// senders issue raw Sends, not RFP calls, so the loop is its own rather
// than scenario.Drive's.
func ablationTwoSided(o Options) Result {
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, 7)
	sent := uint64(0)
	for _, pl := range cl.ClientThreads(28) {
		qc, qs := fabric.Connect(pl.Machine, cl.Server)
		pl.Machine.Spawn("sender", func(p *sim.Proc) {
			buf := make([]byte, 32)
			for {
				if err := qc.Send(p, buf); err != nil {
					panic(err)
				}
				sent++
			}
		})
		cl.Server.Spawn("receiver", func(p *sim.Proc) {
			for {
				_ = qs.Recv(p)
			}
		})
	}
	cl.Server.AddThreads(28)
	recvRate := measureMOPS(env, o, func() uint64 { return cl.Server.NIC().Stats.Recvs })

	oneSided := inboundMOPS(o, 28, 32)
	rows := []string{
		fmt.Sprintf("two-sided recv rate at server: %.2f MOPS", recvRate),
		fmt.Sprintf("one-sided in-bound rate at server: %.2f MOPS", oneSided),
		fmt.Sprintf("one-sided asymmetry advantage: %.1fx", oneSided/recvRate),
	}
	return Result{
		ID: "ablation-twosided", Title: "two-sided operations burn receiver engine capacity",
		Rows:  rows,
		Notes: []string{"Send/Recv costs the receiver as much as the sender, so it cannot exploit the asymmetry"},
	}
}
