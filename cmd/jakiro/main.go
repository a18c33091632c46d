// Command jakiro runs one Jakiro cluster simulation with configurable
// workload knobs and reports throughput, latency and the RFP hybrid
// mechanism's behaviour — a playground for exploring the store outside the
// fixed experiment grid.
//
// Usage examples:
//
//	jakiro                               # paper defaults: 6x35 threads, 95% GET, 32 B
//	jakiro -get 0.05 -value 512          # write-intensive, larger values
//	jakiro -zipf -clients 70 -ms 10      # skewed, more clients, longer run
//	jakiro -system server-reply          # the ServerReply baseline
package main

import (
	"flag"
	"fmt"
	"os"

	"rfp/internal/dist"
	"rfp/internal/experiments"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/pilafkv"
	"rfp/internal/scenario"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/trace"
	"rfp/internal/workload"
)

func main() {
	var (
		system  = flag.String("system", "jakiro", "jakiro | server-reply | memckv | pilafkv")
		srvThr  = flag.Int("server-threads", 0, "server threads (0 = per-system default)")
		clients = flag.Int("clients", 35, "client threads across 7 machines")
		getFrac = flag.Float64("get", 0.95, "GET fraction")
		value   = flag.Int("value", 32, "value size in bytes")
		keys    = flag.Int("keys", 0, "key-space size (0 = 100k; 30k for 1 KB+ values, 10k for 4 KB+, as the figures run)")
		zipf    = flag.Bool("zipf", false, "skewed keys (Zipf theta=0.99)")
		fetchF  = flag.Int("fetch", 0, "override RFP fetch size F (bytes)")
		procUs  = flag.Int("proc", 0, "extra request process time (us)")
		ms      = flag.Int("ms", 2, "virtual measurement window (ms)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		tr      = flag.Int("trace", 0, "dump the last N data-path events from the server NIC")
	)
	flag.Parse()

	// The two pre-backend-name spellings stay accepted.
	aliases := map[string]experiments.StoreKind{
		"rdma-memcached": experiments.KindMemcached,
		"pilaf":          experiments.KindPilaf,
	}
	kind, ok := aliases[*system]
	if !ok {
		kind = experiments.StoreKind(*system)
	}
	if kind.Label() == "" {
		fmt.Fprintf(os.Stderr, "jakiro: unknown system %q\n", *system)
		os.Exit(2)
	}

	o := experiments.DefaultOptions()
	o.Seed = *seed
	o.Telemetry = true // the per-call breakdown is the window's telemetry
	o.Window = sim.Duration(*ms) * sim.Millisecond
	o.Warmup = o.Window / 2

	wcfg := workload.Config{GetFraction: *getFrac, ValueSize: dist.Fixed(*value)}
	if *zipf {
		wcfg.ZipfTheta = 0.99
	}
	spec := experiments.PaperSpec(kind, *value)
	if *srvThr > 0 {
		spec.ServerThreads = *srvThr
	}
	if *keys > 0 {
		spec.Keys = *keys
	}
	if *fetchF > 0 {
		spec.Params.F = *fetchF
	}
	spec.ExtraProcNs = int64(*procUs) * 1000
	var ring *trace.Ring
	if *tr > 0 {
		ring = trace.NewRing(*tr)
	}
	obs, b := experiments.Measure(o, spec, *clients, []scenario.Phase{
		{Name: "warmup", Duration: o.Warmup, Workload: wcfg},
		{Name: "window", Duration: o.Window, Workload: wcfg},
	}, func(cl *fabric.Cluster, _ *scenario.Backend) { cl.Server.NIC().SetTracer(ring) })
	w, st := obs[1], obs[1].Stats
	var pilaf pilafkv.ClientStats
	for _, c := range b.Conns {
		if pc, ok := c.(*pilafkv.Client); ok {
			pilaf.Add(pc.Stats)
		}
	}

	fmt.Printf("system          %s\n", kind.Label())
	fmt.Printf("throughput      %.3f MOPS\n", stats.MOPS(w.Done, w.DurationNs))
	fmt.Printf("latency         mean %.2fus  p50 %.2fus  p99 %.2fus  max %.2fus\n",
		w.Lat.Mean()/1e3, float64(w.Lat.Percentile(0.5))/1e3,
		float64(w.Lat.Percentile(0.99))/1e3, float64(w.Lat.Max)/1e3)
	if st.Calls > 0 {
		fmt.Printf("fetches/call    %.3f (second reads: %d)\n",
			float64(st.FetchReads)/float64(st.Calls), st.SecondReads)
		fmt.Printf("reply mode      %d deliveries, %d switches to reply, %d back to fetch\n",
			st.ReplyDeliveries, st.SwitchToReply, st.SwitchToFetch)
		fmt.Printf("retries         max %d per call\n", st.MaxRetries)
		fmt.Printf("client CPU      %.1f%%\n", 100*experiments.ClientUtil(w, *clients))
	}
	if tel := w.Tel; tel.Calls > 0 {
		calls := float64(tel.Calls)
		fmt.Printf("phase breakdown send %.2fus  fetch %.2fus  reply-wait %.2fus (per call)\n",
			float64(tel.Send.Sum)/calls/1e3, float64(tel.FetchLeg.Sum)/calls/1e3,
			float64(tel.ReplyLeg.Sum)/calls/1e3)
	}
	if kind == experiments.KindPilaf && pilaf.Gets > 0 {
		fmt.Printf("bypass reads    %.2f per GET (torn slots %d, torn extents %d)\n",
			pilaf.ReadsPerGet(), pilaf.TornSlots, pilaf.TornExtents)
	}
	if w.Missed > 0 {
		fmt.Printf("misses          %d\n", w.Missed)
	}
	if ring != nil {
		fmt.Printf("\n%s", ring.Summary())
		fmt.Println("last events:")
		events := ring.Events()
		if len(events) > *tr {
			events = events[len(events)-*tr:]
		}
		for _, e := range events {
			fmt.Println(" ", e)
		}
	}
}
