package experiments

// The paper's evaluation figures: the swept ones (Figs. 9-12 and 14-19,
// plus ext-ycsb) as sweep declarations, the latency CDFs (Figs. 13 and 20)
// and Table 3.

import (
	"fmt"

	"rfp/internal/dist"
	"rfp/internal/hw"
	"rfp/internal/scenario"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

func init() {
	for _, s := range figures {
		register(s.id, s.desc, s.run)
	}
	register("fig13", "Latency CDF at peak throughput (uniform, 95% GET, 32 B)", fig13)
	register("fig20", "Latency CDF under skewed read-intensive workload", fig20)
	register("table3", "Number of fetch retries under different workloads", table3)
}

// Each point starts from PaperSpec, the paper's peak configuration (Sec.
// 4.4.3), loaded by 35 client threads over 32 B values unless it says
// otherwise.
var figures = []sweep{{
	id: "fig9", desc: "Repeated remote fetching vs server-reply vs server process time",
	title:  "fetching vs reply across process times (F=S=1B, 16 server threads)",
	xLabel: "server process time (us)", yLabel: "MOPS",
	full: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, quick: []int{1, 4, 7, 11, 15},
	// A bare RPC whose handler costs P and returns 1 B: GETs of 1 B values.
	lines: []line{
		{"remote-fetching", func(o Options, p int) scenario.PhaseObs {
			spec := rpcSpec(KindJakiro, 16, 1, int64(p)*1000)
			spec.Params.DisableSwitch = true // pure repeated remote fetching
			return point(o, spec, getLoad)
		}},
		{"server-reply", func(o Options, p int) scenario.PhaseObs {
			return point(o, rpcSpec(KindServerReply, 16, 1, int64(p)*1000), getLoad)
		}},
	},
	telHeader: fmt.Sprintf("%-6s%-16s%12s%12s%12s%16s", "P(us)", "paradigm",
		"p50(us)", "p99(us)", "retries", "rt/call"),
	tel: func(p int, paradigm string, t telemetry.Snapshot) string {
		return fmt.Sprintf("%-6d%-16s%12.2f%12.2f%12d%16.3f", p, paradigm,
			float64(t.Total.Percentile(0.50))/1e3, float64(t.Total.Percentile(0.99))/1e3,
			t.Retries, t.RoundTripsPerCall())
	},
	notes: []string{"crossover where server processing itself becomes the bottleneck defines the retry bound N"},
}, {
	id: "fig10", desc: "Jakiro throughput vs number of client threads",
	title:  "Jakiro vs client threads (6 server threads, 32 B values)",
	xLabel: "client threads", yLabel: "MOPS",
	full: []int{7, 14, 21, 28, 35, 42, 49, 56, 63, 70}, quick: []int{7, 21, 35, 70},
	lines: perKind(func(o Options, k StoreKind, t int) scenario.PhaseObs {
		obs, _ := Measure(o, PaperSpec(k, 32), t, windowPhases(o, workload.Config{GetFraction: 0.95}), nil)
		return obs[1]
	}, KindJakiro),
	tel: func(t int, _ string, s telemetry.Snapshot) string {
		return fmt.Sprintf(
			"threads=%-4d round-trips/call %.3f (paper: 2.005)  p50=%.2fus p99=%.2fus  retries=%d fallbacks=%d",
			t, s.RoundTripsPerCall(),
			float64(s.Total.Percentile(0.50))/1e3, float64(s.Total.Percentile(0.99))/1e3,
			s.Retries, s.Fallbacks)
	},
	notes: []string{"peak ~ half the in-bound IOPS ceiling: each call costs 1 in-bound write + ~1 in-bound read"},
}, {
	id: "fig11", desc: "Peak throughput of Jakiro vs Pilaf (uniform, 50% GET, 20 Gbps)",
	title:  "Jakiro vs Pilaf under 50% GET",
	xLabel: "value size (B)", yLabel: "MOPS",
	full: []int{32, 64, 128, 256}, quick: []int{32, 256},
	lines: perKind(func(o Options, k StoreKind, sz int) scenario.PhaseObs {
		o.Profile = hw.ConnectX2() // Pilaf's testbed class: 20 Gbps NICs
		return point(o, PaperSpec(k, sz), workload.Config{GetFraction: 0.5, ValueSize: dist.Fixed(sz)})
	}, KindJakiro, KindPilaf),
	notes: []string{"the paper compares against Pilaf's published 1.3 MOPS (its code being unavailable); this run measures our server-bypass reimplementation"},
}, {
	id: "fig12", desc: "Throughput vs server threads: Jakiro/ServerReply/RDMA-Memcached",
	title:  "throughput vs server threads (32 B values)",
	xLabel: "server threads", yLabel: "MOPS",
	full: []int{1, 2, 4, 6, 8, 10, 12, 14, 16}, quick: []int{1, 6, 16},
	lines: perKind(func(o Options, k StoreKind, t int) scenario.PhaseObs {
		spec := PaperSpec(k, 32)
		spec.ServerThreads = t
		return point(o, spec, workload.Config{GetFraction: 0.95})
	}, rpcKinds...),
	notes: []string{"Jakiro saturates the NIC in-bound engine with ~2 threads; ServerReply is capped by the out-bound IOPS ceiling; RDMA-Memcached is CPU/lock-bound"},
}, {
	id: "fig14", desc: "Jakiro/ServerReply/Jakiro-w/o-Switch vs request process time",
	title:  "throughput vs request process time",
	xLabel: "request process time (us)", yLabel: "MOPS",
	full: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, quick: []int{1, 5, 9, 12},
	lines: append(perKind(func(o Options, k StoreKind, p int) scenario.PhaseObs {
		return fig14Point(o, k, p, false)
	}, KindJakiro, KindServerReply),
		line{"Jakiro-w/o-Switch", func(o Options, p int) scenario.PhaseObs { return fig14Point(o, KindJakiro, p, true) }}),
	notes: []string{"for large process times Jakiro auto-switches to server-reply and matches it"},
}, {
	id: "fig15", desc: "Client CPU utilization vs request process time",
	title:  "client CPU utilization vs request process time (Jakiro)",
	xLabel: "request process time (us)", yLabel: "%",
	full: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, quick: []int{1, 5, 9, 12},
	lines: []line{{"client-CPU%", func(o Options, p int) scenario.PhaseObs { return fig14Point(o, KindJakiro, p, false) }}},
	y:     func(w scenario.PhaseObs) float64 { return 100 * ClientUtil(w, paperClients) },
	notes: []string{"100% while repeatedly fetching; drops sharply once the hybrid mechanism settles in server-reply mode"},
}, {
	id: "fig16", desc: "Throughput vs GET percentage (uniform, 32 B)",
	title:  "throughput vs GET percentage (uniform)",
	xLabel: "GET %", yLabel: "MOPS",
	full: []int{95, 50, 5},
	lines: perKind(func(o Options, k StoreKind, g int) scenario.PhaseObs {
		return point(o, PaperSpec(k, 32), workload.Config{GetFraction: float64(g) / 100})
	}, rpcKinds...),
	notes: []string{"Jakiro holds its peak even write-intensive; RDMA-Memcached collapses (long PUT critical sections)"},
}, {
	id: "fig17", desc: "Throughput vs value size (uniform, 95% GET)",
	title:  "throughput vs value size (F=640 for Jakiro)",
	xLabel: "value size (B)", yLabel: "MOPS",
	full: []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}, quick: []int{32, 256, 1024, 8192},
	lines: perKind(func(o Options, k StoreKind, sz int) scenario.PhaseObs {
		spec := PaperSpec(k, sz)
		if k == KindJakiro {
			// Pre-running this sweep's mix selects F = 640 (paper Sec.
			// 4.4.3). As in the paper's presentation, F counts the value
			// bytes a fetch covers; the response framing rides on top.
			spec.Params.F = 640 + fetchOverhead
		}
		return point(o, spec, sizedLoad(sz))
	}, rpcKinds...),
	notes: []string{"all systems converge at 4 KB+ where link bandwidth is the bottleneck"},
}, {
	id: "fig18", desc: "Jakiro throughput vs fetch size F across value sizes",
	title:  "Jakiro throughput vs fetch size F",
	xLabel: "value size (B)", yLabel: "MOPS", labelAll: true,
	full: []int{32, 64, 128, 256, 384, 512, 640, 768, 1024, 2048}, quick: []int{32, 256, 640, 2048},
	lines: fetchSizeLines(256, 512, 640, 748, 1024),
	notes: []string{"F must cover the common response to avoid second reads, without wasting bandwidth — 640 B suits the wide mix"},
}, {
	id: "fig19", desc: "Throughput vs GET percentage under skew (Zipf .99, 32 B)",
	title:  "throughput vs GET percentage (Zipf .99)",
	xLabel: "GET %", yLabel: "MOPS",
	full: []int{95, 50, 5},
	lines: perKind(func(o Options, k StoreKind, g int) scenario.PhaseObs {
		return point(o, PaperSpec(k, 32), workload.Config{GetFraction: float64(g) / 100, ZipfTheta: 0.99})
	}, rpcKinds...),
	notes: []string{"EREW partitioning tolerates the skew; RDMA-Memcached gains from cache locality on hot keys"},
}, {
	// The standard YCSB core workloads (all Zipf .99) extend the paper's
	// custom mixes. Workload F's read-modify-writes cost two RPCs in all
	// three systems, so its numbers halve roughly together: RFP's advantage
	// is per operation, not per transaction.
	id: "ext-ycsb", desc: "YCSB core workloads A/B/C/F across the three systems",
	title:  "YCSB core workloads (Zipf .99, 32 B values, ops/s)",
	xLabel: "workload#", yLabel: "MOPS",
	full: []int{0, 1, 2, 3},
	lines: perKind(func(o Options, k StoreKind, i int) scenario.PhaseObs {
		w, err := workload.YCSB(ycsbPresets[i], 100_000)
		if err != nil {
			panic(err)
		}
		return point(o, PaperSpec(k, 32), w)
	}, rpcKinds...),
	rows: func(s []*stats.Series) []string {
		rows := []string{fmt.Sprintf("%-10s%12s%16s%18s", "workload", "Jakiro", "ServerReply", "RDMA-Memcached")}
		for i, preset := range ycsbPresets {
			rows = append(rows, fmt.Sprintf("YCSB-%c    %12.3f%16.3f%18.3f", preset, s[0].Y[i], s[1].Y[i], s[2].Y[i]))
		}
		return rows
	},
	notes: []string{"workload F counts transactions; each read-modify-write issues two RPCs underneath"},
}}

// ycsbPresets are ext-ycsb's workloads, one per point.
const ycsbPresets = "ABCF"

// fig14Point is Jakiro (or ServerReply) with a controlled request process
// time, the paper's "for loop + RDTSC" methodology; noSwitch turns the
// hybrid mechanism off.
func fig14Point(o Options, k StoreKind, procUs int, noSwitch bool) scenario.PhaseObs {
	// The hybrid mechanism needs K consecutive overruns on each of a
	// client's per-partition connections before all of them settle in
	// reply mode; give the adaptation room before measuring.
	if o.Warmup < 2*sim.Millisecond {
		o.Warmup = 2 * sim.Millisecond
	}
	spec := PaperSpec(k, 32)
	spec.ServerThreads = 16 // paper: 16 server threads, 35 client threads
	spec.ExtraProcNs = int64(procUs) * 1000
	spec.DisableSpikes = true
	spec.Params.DisableSwitch = noSwitch
	return point(o, spec, workload.Config{GetFraction: 0.95})
}

// fetchSizeLines is one Jakiro line per fetch size F over the value sizes.
func fetchSizeLines(fs ...int) []line {
	lines := make([]line, len(fs))
	for i, f := range fs {
		lines[i] = line{fmt.Sprintf("F=%d", f), func(o Options, sz int) scenario.PhaseObs {
			spec := PaperSpec(KindJakiro, sz)
			spec.Params.F = f + fetchOverhead
			return point(o, spec, sizedLoad(sz))
		}}
	}
	return lines
}

// histNote states the CDF figures' resolution.
const histNote = "latencies come from the driver's log-linear histogram: means are exact, quantiles within half a bucket (6.25 %)"

func fig13(o Options) Result {
	return Result{
		ID: "fig13", Title: "latency CDF at peak throughput",
		CDFs: latencyCDFs(o, workload.Config{GetFraction: 0.95}),
		Notes: []string{
			"ServerReply wins at low quantiles (one RDMA write beats one read) but queues badly at its out-bound ceiling",
			histNote,
		},
	}
}

func fig20(o Options) Result {
	return Result{ID: "fig20", Title: "latency CDF, skewed read-intensive",
		CDFs:  latencyCDFs(o, workload.Config{GetFraction: 0.95, ZipfTheta: 0.99}),
		Notes: []string{histNote}}
}

// latencyCDFs runs each RPC-style system at its peak configuration under w
// and returns its per-op latency distributions by system name.
func latencyCDFs(o Options, w workload.Config) map[string]telemetry.HistSnap {
	cdfs := map[string]telemetry.HistSnap{}
	for _, k := range rpcKinds {
		cdfs[k.Label()] = point(o, PaperSpec(k, 32), w).Lat
	}
	return cdfs
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
		st := point(o, PaperSpec(KindJakiro, 32), w.cfg).Stats
		var multi uint64
		for i := 2; i < len(st.RetryHist); i++ {
			multi += st.RetryHist[i]
		}
		pct := 0.0
		if st.Calls > 0 {
			pct = 100 * float64(multi) / float64(st.Calls)
		}
		rows = append(rows, fmt.Sprintf("%-18s%15.3f%%%12d", w.name, pct, st.MaxRetries))
	}
	return Result{
		ID: "table3", Title: "fetch retries per workload (32 B values)",
		Rows:  rows,
		Notes: []string{"multi-retry calls trace to the rare long-process-time tail; no sustained switching occurs"},
	}
}
