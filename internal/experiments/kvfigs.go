package experiments

// Key-value store comparisons: Figs. 10-13 and 16-20, plus Table 3.

import (
	"fmt"

	"rfp/internal/dist"
	"rfp/internal/hw"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

func init() {
	register("fig10", "Jakiro throughput vs number of client threads", fig10)
	register("fig11", "Peak throughput of Jakiro vs Pilaf (uniform, 50% GET, 20 Gbps)", fig11)
	register("fig12", "Throughput vs server threads: Jakiro/ServerReply/RDMA-Memcached", fig12)
	register("fig13", "Latency CDF at peak throughput (uniform, 95% GET, 32 B)", fig13)
	register("fig16", "Throughput vs GET percentage (uniform, 32 B)", fig16)
	register("fig17", "Throughput vs value size (uniform, 95% GET)", fig17)
	register("fig18", "Jakiro throughput vs fetch size F across value sizes", fig18)
	register("fig19", "Throughput vs GET percentage under skew (Zipf .99, 32 B)", fig19)
	register("fig20", "Latency CDF under skewed read-intensive workload", fig20)
	register("table3", "Number of fetch retries under different workloads", table3)
}

func fig10(o Options) Result {
	threads := o.pick([]int{7, 14, 21, 28, 35, 42, 49, 56, 63, 70}, []int{7, 21, 35, 70})
	s := &stats.Series{Label: "Jakiro", XLabel: "client threads", YLabel: "MOPS"}
	var tel []string
	for _, t := range threads {
		out := RunKV(KVRun{Opts: o, Kind: KindJakiro, ClientThreads: t,
			Workload: workload.Config{GetFraction: 0.95}})
		s.Add(float64(t), out.MOPS)
		if o.Telemetry {
			tel = append(tel, fmt.Sprintf(
				"threads=%-4d round-trips/call %.3f (paper: 2.005)  p50=%.2fus p99=%.2fus  retries=%d fallbacks=%d",
				t, out.Tel.RoundTripsPerCall(),
				float64(out.Tel.Total.Percentile(0.50))/1e3, float64(out.Tel.Total.Percentile(0.99))/1e3,
				out.Tel.Retries, out.Tel.Fallbacks))
		}
	}
	return Result{
		ID: "fig10", Title: "Jakiro vs client threads (6 server threads, 32 B values)",
		Series:    []*stats.Series{s},
		Telemetry: tel,
		Notes:     []string{"peak ~ half the in-bound IOPS ceiling: each call costs 1 in-bound write + ~1 in-bound read"},
	}
}

func fig11(o Options) Result {
	o.Profile = hw.ConnectX2() // Pilaf's testbed class: 20 Gbps NICs
	sizes := o.pick([]int{32, 64, 128, 256}, []int{32, 256})
	jk := &stats.Series{Label: "Jakiro", XLabel: "value size (B)", YLabel: "MOPS"}
	pf := &stats.Series{Label: "Pilaf"}
	for _, sz := range sizes {
		w := workload.Config{GetFraction: 0.5}
		jk.Add(float64(sz), RunKV(KVRun{Opts: o, Kind: KindJakiro, ValueSize: sz, Workload: w}).MOPS)
		out := RunKV(KVRun{Opts: o, Kind: KindPilaf, ValueSize: sz, Workload: w})
		pf.Add(float64(sz), out.MOPS)
	}
	return Result{
		ID: "fig11", Title: "Jakiro vs Pilaf under 50% GET",
		Series: []*stats.Series{jk, pf},
		Notes: []string{
			"the paper compares against Pilaf's published 1.3 MOPS (its code being unavailable); this run measures our server-bypass reimplementation",
		},
	}
}

func fig12(o Options) Result {
	threads := o.pick([]int{1, 2, 4, 6, 8, 10, 12, 14, 16}, []int{1, 6, 16})
	jk := &stats.Series{Label: "Jakiro", XLabel: "server threads", YLabel: "MOPS"}
	sr := &stats.Series{Label: "ServerReply"}
	mc := &stats.Series{Label: "RDMA-Memcached"}
	w := workload.Config{GetFraction: 0.95}
	for _, t := range threads {
		jk.Add(float64(t), RunKV(KVRun{Opts: o, Kind: KindJakiro, ServerThreads: t, Workload: w}).MOPS)
		sr.Add(float64(t), RunKV(KVRun{Opts: o, Kind: KindServerReply, ServerThreads: t, Workload: w}).MOPS)
		mc.Add(float64(t), RunKV(KVRun{Opts: o, Kind: KindMemcached, ServerThreads: t, Workload: w}).MOPS)
	}
	return Result{
		ID: "fig12", Title: "throughput vs server threads (32 B values)",
		Series: []*stats.Series{jk, sr, mc},
		Notes: []string{
			"Jakiro saturates the NIC in-bound engine with ~2 threads; ServerReply is capped by the out-bound IOPS ceiling; RDMA-Memcached is CPU/lock-bound",
		},
	}
}

// peakRun returns each system's peak-throughput configuration (paper
// Sec. 4.4.3): 6 server threads for Jakiro/ServerReply, 16 for
// RDMA-Memcached, 35 client threads.
func peakRun(o Options, kind StoreKind, w workload.Config) KVRun {
	r := KVRun{Opts: o, Kind: kind, Workload: w, Latency: true}
	if kind == KindMemcached {
		r.ServerThreads = 16
	} else {
		r.ServerThreads = 6
	}
	return r
}

func fig13(o Options) Result {
	w := workload.Config{GetFraction: 0.95}
	cdfs := map[string]*stats.Hist{}
	for _, kind := range []StoreKind{KindJakiro, KindServerReply, KindMemcached} {
		out := RunKV(peakRun(o, kind, w))
		cdfs[kind.Label()] = out.Lat
	}
	return Result{
		ID: "fig13", Title: "latency CDF at peak throughput",
		CDFs:  cdfs,
		Notes: []string{"ServerReply wins at low quantiles (one RDMA write beats one read) but queues badly at its out-bound ceiling"},
	}
}

func fig16(o Options) Result {
	gets := []float64{0.95, 0.50, 0.05}
	jk := &stats.Series{Label: "Jakiro", XLabel: "GET %", YLabel: "MOPS"}
	sr := &stats.Series{Label: "ServerReply"}
	mc := &stats.Series{Label: "RDMA-Memcached"}
	for _, g := range gets {
		w := workload.Config{GetFraction: g}
		jk.Add(100*g, RunKV(peakRun(o, KindJakiro, w)).MOPS)
		sr.Add(100*g, RunKV(peakRun(o, KindServerReply, w)).MOPS)
		mc.Add(100*g, RunKV(peakRun(o, KindMemcached, w)).MOPS)
	}
	return Result{
		ID: "fig16", Title: "throughput vs GET percentage (uniform)",
		Series: []*stats.Series{jk, sr, mc},
		Notes:  []string{"Jakiro holds its peak even write-intensive; RDMA-Memcached collapses (long PUT critical sections)"},
	}
}

func fig17(o Options) Result {
	sizes := o.pick([]int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}, []int{32, 256, 1024, 8192})
	jk := &stats.Series{Label: "Jakiro", XLabel: "value size (B)", YLabel: "MOPS"}
	sr := &stats.Series{Label: "ServerReply"}
	mc := &stats.Series{Label: "RDMA-Memcached"}
	for _, sz := range sizes {
		w := workload.Config{GetFraction: 0.95, ValueSize: dist.Fixed(sz)}
		// Pre-running this sweep's mix selects F = 640 (paper Sec. 4.4.3).
		// As in the paper's presentation, F counts the value bytes a fetch
		// covers; the response framing (status byte + 8 B header) rides on
		// top.
		r := peakRun(o, KindJakiro, w)
		r.ValueSize = sz
		r.FetchSize = 640 + fetchOverhead
		r.Keys = keysForValueSize(sz)
		jk.Add(float64(sz), RunKV(r).MOPS)
		r2 := peakRun(o, KindServerReply, w)
		r2.ValueSize = sz
		r2.Keys = keysForValueSize(sz)
		sr.Add(float64(sz), RunKV(r2).MOPS)
		r3 := peakRun(o, KindMemcached, w)
		r3.ValueSize = sz
		r3.Keys = keysForValueSize(sz)
		mc.Add(float64(sz), RunKV(r3).MOPS)
	}
	return Result{
		ID: "fig17", Title: "throughput vs value size (F=640 for Jakiro)",
		Series: []*stats.Series{jk, sr, mc},
		Notes:  []string{"all systems converge at 4 KB+ where link bandwidth is the bottleneck"},
	}
}

func fig18(o Options) Result {
	fs := []int{256, 512, 640, 748, 1024}
	sizes := o.pick([]int{32, 64, 128, 256, 384, 512, 640, 768, 1024, 2048}, []int{32, 256, 640, 2048})
	series := make([]*stats.Series, 0, len(fs))
	for _, f := range fs {
		s := &stats.Series{Label: fmt.Sprintf("F=%d", f), XLabel: "value size (B)", YLabel: "MOPS"}
		for _, sz := range sizes {
			w := workload.Config{GetFraction: 0.95, ValueSize: dist.Fixed(sz)}
			r := peakRun(o, KindJakiro, w)
			r.ValueSize = sz
			r.FetchSize = f + fetchOverhead
			r.Keys = keysForValueSize(sz)
			r.Latency = false
			s.Add(float64(sz), RunKV(r).MOPS)
		}
		series = append(series, s)
	}
	return Result{
		ID: "fig18", Title: "Jakiro throughput vs fetch size F",
		Series: series,
		Notes:  []string{"F must cover the common response to avoid second reads, without wasting bandwidth — 640 B suits the wide mix"},
	}
}

func fig19(o Options) Result {
	gets := []float64{0.95, 0.50, 0.05}
	jk := &stats.Series{Label: "Jakiro", XLabel: "GET %", YLabel: "MOPS"}
	sr := &stats.Series{Label: "ServerReply"}
	mc := &stats.Series{Label: "RDMA-Memcached"}
	for _, g := range gets {
		w := workload.Config{GetFraction: g, ZipfTheta: 0.99}
		jk.Add(100*g, RunKV(peakRun(o, KindJakiro, w)).MOPS)
		sr.Add(100*g, RunKV(peakRun(o, KindServerReply, w)).MOPS)
		mc.Add(100*g, RunKV(peakRun(o, KindMemcached, w)).MOPS)
	}
	return Result{
		ID: "fig19", Title: "throughput vs GET percentage (Zipf .99)",
		Series: []*stats.Series{jk, sr, mc},
		Notes:  []string{"EREW partitioning tolerates the skew; RDMA-Memcached gains from cache locality on hot keys"},
	}
}

func fig20(o Options) Result {
	w := workload.Config{GetFraction: 0.95, ZipfTheta: 0.99}
	cdfs := map[string]*stats.Hist{}
	for _, kind := range []StoreKind{KindJakiro, KindServerReply, KindMemcached} {
		out := RunKV(peakRun(o, kind, w))
		cdfs[kind.Label()] = out.Lat
	}
	return Result{ID: "fig20", Title: "latency CDF, skewed read-intensive", CDFs: cdfs}
}

func table3(o Options) Result {
	type wl struct {
		name string
		cfg  workload.Config
	}
	wls := []wl{
		{"uniform/95%GET", workload.Config{GetFraction: 0.95}},
		{"uniform/5%GET", workload.Config{GetFraction: 0.05}},
		{"skewed/95%GET", workload.Config{GetFraction: 0.95, ZipfTheta: 0.99}},
		{"skewed/5%GET", workload.Config{GetFraction: 0.05, ZipfTheta: 0.99}},
	}
	rows := []string{fmt.Sprintf("%-18s%16s%12s", "workload", "retries>1 (%)", "largest N")}
	for _, w := range wls {
		out := RunKV(peakRun(o, KindJakiro, w.cfg))
		var multi uint64
		for i := 2; i < len(out.Agg.RetryHist); i++ {
			multi += out.Agg.RetryHist[i]
		}
		pct := 0.0
		if out.Agg.Calls > 0 {
			pct = 100 * float64(multi) / float64(out.Agg.Calls)
		}
		rows = append(rows, fmt.Sprintf("%-18s%15.3f%%%12d", w.name, pct, out.Agg.MaxRetries))
	}
	return Result{
		ID: "table3", Title: "fetch retries per workload (32 B values)",
		Rows:  rows,
		Notes: []string{"multi-retry calls trace to the rare long-process-time tail; no sustained switching occurs"},
	}
}

// fetchOverhead is the response framing on top of the value bytes an
// experiment-level F must cover: the 8-byte RFP header plus the KV status
// byte.
const fetchOverhead = 9

// keysForValueSize shrinks the preloaded key count for large values so runs
// stay RAM-friendly without changing the bottleneck being measured.
func keysForValueSize(sz int) int {
	switch {
	case sz >= 4096:
		return 10_000
	case sz >= 1024:
		return 30_000
	default:
		return 100_000
	}
}
