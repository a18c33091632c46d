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
	"rfp/internal/sim"
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
	o.Window = sim.Duration(*ms) * sim.Millisecond
	o.Warmup = o.Window / 2

	wcfg := workload.Config{GetFraction: *getFrac, ValueSize: dist.Fixed(*value)}
	if *zipf {
		wcfg.ZipfTheta = 0.99
	}
	out := experiments.RunKV(experiments.KVRun{
		TraceEvents:   *tr,
		Opts:          o,
		Kind:          kind,
		ServerThreads: *srvThr,
		ClientThreads: *clients,
		Keys:          *keys,
		ValueSize:     *value,
		Workload:      wcfg,
		FetchSize:     *fetchF,
		ExtraProcNs:   int64(*procUs) * 1000,
	})

	fmt.Printf("system          %s\n", kind.Label())
	fmt.Printf("throughput      %.3f MOPS\n", out.MOPS)
	fmt.Printf("latency         mean %.2fus  p50 %.2fus  p99 %.2fus  max %.2fus\n",
		out.Lat.Mean()/1e3, float64(out.Lat.Percentile(0.5))/1e3,
		float64(out.Lat.Percentile(0.99))/1e3, float64(out.Lat.Max)/1e3)
	if out.Agg.Calls > 0 {
		fmt.Printf("fetches/call    %.3f (second reads: %d)\n",
			float64(out.Agg.FetchReads)/float64(out.Agg.Calls), out.Agg.SecondReads)
		fmt.Printf("reply mode      %d deliveries, %d switches to reply, %d back to fetch\n",
			out.Agg.ReplyDeliveries, out.Agg.SwitchToReply, out.Agg.SwitchToFetch)
		fmt.Printf("retries         max %d per call\n", out.Agg.MaxRetries)
		fmt.Printf("client CPU      %.1f%%\n", 100*out.ClientUtil)
		calls := float64(out.Agg.Calls)
		fmt.Printf("phase breakdown send %.2fus  fetch %.2fus  reply-wait %.2fus (per call)\n",
			float64(out.Agg.SendNs)/calls/1e3, float64(out.Agg.FetchNs)/calls/1e3,
			float64(out.Agg.ReplyWaitNs)/calls/1e3)
	}
	if kind == experiments.KindPilaf && out.Pilaf.Gets > 0 {
		fmt.Printf("bypass reads    %.2f per GET (torn slots %d, torn extents %d)\n",
			out.Pilaf.ReadsPerGet(), out.Pilaf.TornSlots, out.Pilaf.TornExtents)
	}
	if out.Misses > 0 {
		fmt.Printf("misses          %d\n", out.Misses)
	}
	if out.Trace != nil {
		fmt.Printf("\n%s", out.Trace.Summary())
		fmt.Println("last events:")
		events := out.Trace.Events()
		if len(events) > *tr {
			events = events[len(events)-*tr:]
		}
		for _, e := range events {
			fmt.Println(" ", e)
		}
	}
}
