package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rfp/internal/kvstore/pilafkv"
	"rfp/internal/scenario"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "table3",
		"ablation-inline", "ablation-switch", "ablation-selection", "ablation-twosided",
		"ext-herd", "ext-loss", "ext-scaleout", "ext-tuning",
		"ext-async", "ext-farm", "ext-ycsb", "ext-pipeline",
		"ext-adaptive-depth", "ext-crowd", "ext-replica",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
		if _, ok := Title(id); !ok {
			t.Errorf("experiment %q has no title", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", DefaultOptions()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestResultRendering(t *testing.T) {
	r := archived(t, "fig3")
	out := r.String()
	for _, want := range []string{"fig3", "in-bound", "out-bound", "note:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered result missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Asymmetry(t *testing.T) {
	r := archived(t, "fig3")
	in, out := r.Series[0], r.Series[1]
	if p := in.PeakY(); p < 10.5 || p > 12 {
		t.Fatalf("in-bound peak = %.2f, want ~11.26", p)
	}
	if p := out.PeakY(); p < 1.9 || p > 2.3 {
		t.Fatalf("out-bound peak = %.2f, want ~2.11", p)
	}
	if in.PeakY()/out.PeakY() < 4.5 {
		t.Fatal("asymmetry below 4.5x")
	}
}

func TestFig5Convergence(t *testing.T) {
	r := archived(t, "fig5")
	in, out := r.Series[0], r.Series[1]
	last := len(in.Y) - 1
	ratio := in.Y[last] / out.Y[last]
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("4KB in/out ratio = %.2f, want ~1 (bandwidth-bound)", ratio)
	}
	if in.Y[0]/out.Y[0] < 4.5 {
		t.Fatal("32B asymmetry missing")
	}
}

func TestFig6InverseScaling(t *testing.T) {
	r := archived(t, "fig6")
	tput := r.Series[0]
	first, last := tput.Y[0], tput.Y[len(tput.Y)-1]
	kFirst, kLast := tput.X[0], tput.X[len(tput.X)-1]
	wantRatio := kLast / kFirst
	gotRatio := first / last
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.2 {
		t.Fatalf("throughput ratio %.2f, want ~%.2f (1/k scaling)", gotRatio, wantRatio)
	}
}

func TestFig9Crossover(t *testing.T) {
	r := archived(t, "fig9")
	fetch, reply := r.Series[0], r.Series[1]
	// At P=1us fetching dominates; by P=15us they are comparable.
	if fetch.Y[0] < 2*reply.Y[0] {
		t.Fatalf("P=1us: fetch %.2f vs reply %.2f, want >=2x", fetch.Y[0], reply.Y[0])
	}
	last := len(fetch.Y) - 1
	if fetch.Y[last] > 1.25*reply.Y[last] {
		t.Fatalf("P=15us: fetch %.2f vs reply %.2f, want comparable", fetch.Y[last], reply.Y[last])
	}
}

func TestFig12Hierarchy(t *testing.T) {
	r := archived(t, "fig12")
	jk, sr, mc := r.Series[0], r.Series[1], r.Series[2]
	if jk.PeakY() < 4.5 {
		t.Fatalf("Jakiro peak %.2f, want ~5.5", jk.PeakY())
	}
	if sr.PeakY() < 1.8 || sr.PeakY() > 2.4 {
		t.Fatalf("ServerReply peak %.2f, want ~2.1", sr.PeakY())
	}
	if mc.PeakY() > sr.PeakY() {
		t.Fatal("RDMA-Memcached should trail ServerReply read-intensive")
	}
	// Paper's headline: Jakiro ~160% above ServerReply, ~310% above
	// RDMA-Memcached.
	if jk.PeakY()/sr.PeakY() < 2.0 {
		t.Fatalf("Jakiro/ServerReply = %.2f, want >2", jk.PeakY()/sr.PeakY())
	}
	if jk.PeakY()/mc.PeakY() < 3.0 {
		t.Fatalf("Jakiro/Memcached = %.2f, want >3", jk.PeakY()/mc.PeakY())
	}
}

func TestFig13LatencyOrdering(t *testing.T) {
	r := archived(t, "fig13")
	jk := r.CDFs[KindJakiro.Label()]
	sr := r.CDFs[KindServerReply.Label()]
	mc := r.CDFs[KindMemcached.Label()]
	if jk.Mean() >= sr.Mean() || jk.Mean() >= mc.Mean() {
		t.Fatalf("Jakiro mean %.1fus should beat ServerReply %.1fus and Memcached %.1fus",
			jk.Mean()/1e3, sr.Mean()/1e3, mc.Mean()/1e3)
	}
	// The paper's subtlety: ServerReply has LOWER low-quantile latency
	// (single RDMA write beats a read), but worse high quantiles.
	if sr.Percentile(0.15) >= jk.Percentile(0.15) {
		t.Fatal("ServerReply should win the 15th percentile")
	}
	if sr.Percentile(0.99) <= jk.Percentile(0.99) {
		t.Fatal("Jakiro should win the 99th percentile")
	}
	// Jakiro's mean should land in the paper's ballpark (5.78us).
	if jk.Mean() < 4000 || jk.Mean() > 9000 {
		t.Fatalf("Jakiro mean latency %.2fus, want ~6us", jk.Mean()/1e3)
	}
}

func TestFig14SwitchConvergence(t *testing.T) {
	r := archived(t, "fig14")
	jk, sr := r.Series[0], r.Series[1]
	last := len(jk.Y) - 1
	// At the largest process time the hybrid matches server-reply.
	if ratio := jk.Y[last] / sr.Y[last]; ratio < 0.85 || ratio > 1.35 {
		t.Fatalf("P=12us Jakiro/ServerReply = %.2f, want ~1", ratio)
	}
	// At P=1us RFP is far ahead (paper: 30%-320% higher below the
	// crossover).
	if jk.Y[0] < 1.8*sr.Y[0] {
		t.Fatalf("P=1us Jakiro %.2f vs ServerReply %.2f", jk.Y[0], sr.Y[0])
	}
}

func TestFig15UtilizationDrops(t *testing.T) {
	r := archived(t, "fig15")
	util := r.Series[0]
	if util.Y[0] < 95 {
		t.Fatalf("P=1us client CPU = %.1f%%, want ~100%%", util.Y[0])
	}
	last := len(util.Y) - 1
	if util.Y[last] > 45 {
		t.Fatalf("P=12us client CPU = %.1f%%, want <45%% after switching", util.Y[last])
	}
}

func TestFig16JakiroHoldsUnderWrites(t *testing.T) {
	r := archived(t, "fig16")
	jk, _, mc := r.Series[0], r.Series[1], r.Series[2]
	// Jakiro within 10% across GET mixes.
	if (jk.PeakY()-jk.Y[len(jk.Y)-1])/jk.PeakY() > 0.1 {
		t.Fatalf("Jakiro varies too much across GET%%: %v", jk.Y)
	}
	// Memcached collapses write-intensive (paper: 14x below Jakiro).
	ratio := jk.Y[len(jk.Y)-1] / mc.Y[len(mc.Y)-1]
	if ratio < 8 {
		t.Fatalf("write-intensive Jakiro/Memcached = %.1f, want >8", ratio)
	}
}

func TestFig17BandwidthConvergence(t *testing.T) {
	r := archived(t, "fig17")
	jk, sr, _ := r.Series[0], r.Series[1], r.Series[2]
	last := len(jk.Y) - 1
	if ratio := jk.Y[last] / sr.Y[last]; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("8KB Jakiro/ServerReply = %.2f, want ~1 (bandwidth-bound)", ratio)
	}
	if jk.Y[0] < 2*sr.Y[0] {
		t.Fatal("32B: Jakiro should be >=2x ServerReply")
	}
}

func TestFig19SkewTolerated(t *testing.T) {
	r := archived(t, "fig19")
	jk := r.Series[0]
	if jk.PeakY() < 4.5 {
		t.Fatalf("skewed Jakiro peak %.2f, want ~5.5", jk.PeakY())
	}
}

func TestTable3RareRetries(t *testing.T) {
	r := archived(t, "table3")
	if len(r.Rows) != 5 { // header + 4 workloads
		t.Fatalf("%d rows", len(r.Rows))
	}
	out := r.String()
	if !strings.Contains(out, "uniform/95%GET") || !strings.Contains(out, "skewed/5%GET") {
		t.Fatalf("table3 rows missing workloads:\n%s", out)
	}
}

func TestAblationInlineHalvesIOPS(t *testing.T) {
	r := archived(t, "ablation-inline")
	inline, probe := r.Series[0], r.Series[1]
	if ratio := inline.Y[0] / probe.Y[0]; ratio < 1.3 {
		t.Fatalf("inline/probe = %.2f at 32B, want >1.3 (second read per call)", ratio)
	}
}

func TestAblationTwoSided(t *testing.T) {
	r := archived(t, "ablation-twosided")
	if len(r.Rows) != 3 {
		t.Fatalf("rows: %v", r.Rows)
	}
}

// The next four tests measure figure points the way the sweeps do, through
// Measure.

func TestRunKVPilafAmplification(t *testing.T) {
	o := archiveOpts()
	spec := PaperSpec(KindPilaf, 32)
	spec.Keys = 20_000
	obs, b := Measure(o, spec, paperClients, windowPhases(o, workload.Config{GetFraction: 0.95}), nil)
	if mops(obs[1]) <= 0 {
		t.Fatal("no throughput")
	}
	var st pilafkv.ClientStats
	for _, c := range b.Conns {
		st.Add(c.(*pilafkv.Client).Stats)
	}
	if rpg := st.ReadsPerGet(); rpg < 1.8 || rpg > 3.6 {
		t.Fatalf("Pilaf reads/GET = %.2f, want 2-3.5", rpg)
	}
}

func TestRunKVMissesCounted(t *testing.T) {
	spec := PaperSpec(KindJakiro, 32)
	spec.Keys = 1000
	w := point(archiveOpts(), spec, workload.Config{Keys: 1000, GetFraction: 1.0})
	if w.Missed > w.Stats.Calls/100 {
		t.Fatalf("%d misses out of %d calls on a fully preloaded store", w.Missed, w.Stats.Calls)
	}
}

func TestRunKVMissRateAtStandardLoad(t *testing.T) {
	// Regression for the partition/bucket hash-aliasing bug: at the
	// standard 100k-key load the GET miss rate must match the Poisson
	// bucket-overflow expectation (<2%), not the ~14% aliasing produced.
	w := point(archiveOpts(), PaperSpec(KindJakiro, 32), workload.Config{GetFraction: 1.0})
	rate := float64(w.Missed) / float64(w.Stats.Calls)
	if rate > 0.02 {
		t.Fatalf("miss rate %.3f at standard load, want <2%%", rate)
	}
}

// TestFigurePointIsScenarioPhase checks that a figure point is a scenario
// phase: a point's window and the "window" phase of a scenario declaring
// the same cluster, store, seed and workload report the same op count,
// latency distribution and transport stats.
func TestFigurePointIsScenarioPhase(t *testing.T) {
	o := archiveOpts()
	w := workload.Config{GetFraction: 0.95}
	spec := PaperSpec(KindJakiro, 32)
	spec.ServerThreads, spec.Keys = 4, 4096
	out := point(o, spec, w)
	rep, err := scenario.Run(scenario.Scenario{
		Name:     "figure-point",
		Topology: scenario.Topology{ClientMachines: 7, Threads: 35, Keys: 4096},
		Phases: []scenario.Phase{
			{Name: "warmup", Duration: o.Warmup, Workload: w},
			{Name: "window", Duration: o.Window, Workload: w},
		},
		Backends: []string{scenario.BackendJakiro},
	}, scenario.BackendJakiro, scenario.Options{Seed: o.Seed})
	if err != nil {
		t.Fatal(err)
	}
	win := rep.Phases[1].Obs
	if got, want := mops(out), stats.MOPS(win.Done, win.DurationNs); got != want {
		t.Errorf("MOPS %.4f, scenario window %.4f (%d done)", got, want, win.Done)
	}
	if out.Lat != win.Lat {
		t.Errorf("latency: n=%d mean=%.1f ns, scenario window n=%d mean=%.1f ns",
			out.Lat.Count, out.Lat.Mean(), win.Lat.Count, win.Lat.Mean())
	}
	if out.Stats != win.Stats {
		t.Errorf("transport stats:\n  point    %+v\n  scenario %+v", out.Stats, win.Stats)
	}
}

// TestCheckPhaseNamesFailure checks that the figure-point judge fails a
// phase whose issued ops are not all accounted for, even though every
// driver finished, and names the label, the phase and the failing
// invariant.
func TestCheckPhaseNamesFailure(t *testing.T) {
	lost := &scenario.PhaseObs{Phase: "window", Issued: 100, Done: 98}
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"fig9 window phase", "FAIL no-lost", "issued 100 = done 98 + failed 0 + corrupt 0, unfinished 0"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}()
	checkPhase("fig9", lost)
}

// TestRunHerdStatsAreWindowDelta checks that runHerd's counters cover the
// measurement window only, as its MOPS does: the calls it counts match the
// window's op count to within one in-flight call per client thread.
func TestRunHerdStatsAreWindowDelta(t *testing.T) {
	o := archiveOpts()
	mops, st := runHerd(o, 0, paperClients, 6)
	ops := mops * float64(o.Window) / 1e3
	if d := math.Abs(float64(st.Calls) - ops); d > paperClients {
		t.Fatalf("Calls = %d, window ops = %.0f: off by %.0f, want <= %d", st.Calls, ops, d, paperClients)
	}
}

func TestExtHerdOrdering(t *testing.T) {
	r := archived(t, "ext-herd")
	if len(r.Rows) != 4 {
		t.Fatalf("rows: %v", r.Rows)
	}
}

func TestExtLossDegradesGracefully(t *testing.T) {
	r := archived(t, "ext-loss")
	s := r.Series[0]
	// Lossless must beat 1% loss, and both must stay functional.
	if s.Y[0] <= s.Y[len(s.Y)-1] {
		t.Fatalf("loss did not cost throughput: %v", s.Y)
	}
	if s.Y[len(s.Y)-1] < 0.5*s.Y[0] {
		t.Fatalf("1%% loss collapsed throughput: %v", s.Y)
	}
}

func TestExtScaleoutAdds(t *testing.T) {
	r := archived(t, "ext-scaleout")
	s := r.Series[0]
	if s.Y[1] < 1.7*s.Y[0] {
		t.Fatalf("2 servers = %.2f vs 1 server = %.2f, want ~2x", s.Y[1], s.Y[0])
	}
}

func TestExtTuningRecovers(t *testing.T) {
	r := archived(t, "ext-tuning")
	if len(r.Rows) != 4 {
		t.Fatalf("rows: %v", r.Rows)
	}
	// Row 1 is static, row 2 tuned; the tuned post-shift number (last
	// field) must beat the static one by a sound margin. Parse crudely.
	var staticPre, staticPost, tunedPre, tunedPost float64
	if _, err := fmt.Sscanf(strings.ReplaceAll(r.Rows[1], "static F=256", ""), "%f MOPS%f MOPS", &staticPre, &staticPost); err != nil {
		t.Fatalf("parse static row %q: %v", r.Rows[1], err)
	}
	if _, err := fmt.Sscanf(strings.ReplaceAll(r.Rows[2], "on-line tuner", ""), "%f MOPS%f MOPS", &tunedPre, &tunedPost); err != nil {
		t.Fatalf("parse tuned row %q: %v", r.Rows[2], err)
	}
	if tunedPost < 1.2*staticPost {
		t.Fatalf("tuned post-shift %.2f vs static %.2f, want >=20%% win", tunedPost, staticPost)
	}
}

func TestExtAsyncPipeliningWins(t *testing.T) {
	r := archived(t, "ext-async")
	if len(r.Rows) != 4 {
		t.Fatalf("rows: %v", r.Rows)
	}
	var syncRate, pipeRate float64
	if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(r.Rows[1], "sync (1 thread)")), "%f", &syncRate); err != nil {
		t.Fatalf("parse %q: %v", r.Rows[1], err)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(r.Rows[2], "pipelined (1 thread)")), "%f", &pipeRate); err != nil {
		t.Fatalf("parse %q: %v", r.Rows[2], err)
	}
	if pipeRate < 2.5*syncRate {
		t.Fatalf("pipelined %.2f vs sync %.2f, want >=2.5x", pipeRate, syncRate)
	}
	if pipeRate < 1.8 || pipeRate > 2.3 {
		t.Fatalf("pipelined rate %.2f, want the ~2.11 engine ceiling", pipeRate)
	}
}

func TestExtFarmCrossover(t *testing.T) {
	r := archived(t, "ext-farm")
	farm, jk := r.Series[0], r.Series[1]
	// Small values: the wide read wins raw lookups (the paper concedes
	// FaRM's higher lookup rate). Large values: N-fold bandwidth waste
	// collapses it below Jakiro.
	if farm.Y[0] < jk.Y[0] {
		t.Fatalf("32B: FaRM-style %.2f should beat Jakiro %.2f on raw lookups", farm.Y[0], jk.Y[0])
	}
	last := len(farm.Y) - 1
	if farm.Y[last] > 0.6*jk.Y[last] {
		t.Fatalf("512B: FaRM-style %.2f vs Jakiro %.2f — bandwidth waste missing", farm.Y[last], jk.Y[last])
	}
}

func TestExtYCSB(t *testing.T) {
	r := archived(t, "ext-ycsb")
	if len(r.Rows) != 5 {
		t.Fatalf("rows: %v", r.Rows)
	}
	jk, sr := r.Series[0], r.Series[1]
	for i := range jk.Y {
		if jk.Y[i] < 1.5*sr.Y[i] {
			t.Fatalf("workload %d: Jakiro %.2f vs ServerReply %.2f", i, jk.Y[i], sr.Y[i])
		}
	}
	// Workload F is 50% read + 50% RMW = 1.5 RPCs per transaction, so its
	// transaction rate is ~2/3 of workload C's pure-read rate.
	if ratio := jk.Y[2] / jk.Y[3]; ratio < 1.3 || ratio > 1.8 {
		t.Fatalf("C/F ratio = %.2f, want ~1.5 (RMW = two RPCs)", ratio)
	}
}
