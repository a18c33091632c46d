// Command rfpbench regenerates the paper's evaluation: one experiment per
// figure/table of "RFP: When RPC is Faster than Server-Bypass with RDMA"
// (EuroSys'17), plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	rfpbench -list                 # enumerate experiment ids
//	rfpbench fig3 fig12 table3     # run selected experiments
//	rfpbench -all                  # run everything (several minutes)
//	rfpbench -quick -all           # reduced point sets
//	rfpbench -json fig3            # machine-readable per-experiment output
//	rfpbench -quick -stable -json fig3  # byte-stable JSON, as archived in
//	                                    # BENCH_faultfree.json
//	rfpbench -quick ext-chaos      # the fault-injection sweep (DESIGN.md §10)
//
// Each experiment prints the same rows/series the paper plots; absolute
// values come from the calibrated simulation (see EXPERIMENTS.md for the
// paper-vs-measured record). With -json, the text rendering is replaced by
// one JSON document per experiment on stdout, newline-delimited, holding
// the same series, CDF percentiles, rows and notes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rfp/internal/experiments"
	"rfp/internal/sim"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "reduced sweep point sets")
		chart   = flag.Bool("chart", false, "render an ASCII chart under each series table")
		asJSON  = flag.Bool("json", false, "emit one JSON document per experiment instead of text")
		stable  = flag.Bool("stable", false, "zero the wall-time field so -json output is diffable across runs")
		telem   = flag.Bool("telemetry", false, "record per-call telemetry (latency percentiles, round-trips/call, tuner decisions)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		window  = flag.Duration("window", 1600*time.Microsecond, "virtual measurement window per point")
		warmup  = flag.Duration("warmup", 800*time.Microsecond, "virtual warmup per point")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-20s %s\n", id, title)
		}
		return
	}

	ids := flag.Args()
	if *all {
		ids = experiments.IDs()
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "rfpbench: nothing to run; pass experiment ids, -all, or -list")
		os.Exit(2)
	}

	o := experiments.DefaultOptions()
	o.Quick = *quick
	o.Seed = *seed
	o.Telemetry = *telem
	o.Window = sim.Duration(window.Nanoseconds())
	o.Warmup = sim.Duration(warmup.Nanoseconds())

	enc := json.NewEncoder(os.Stdout)
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			wall := time.Since(start)
			if *stable {
				// The simulation is deterministic per seed; wall time is the
				// one nondeterministic field. Zeroing it makes the output
				// byte-stable, so it diffs cleanly against BENCH_faultfree.json.
				wall = 0
			}
			if err := enc.Encode(experiments.ToJSON(res, o, wall)); err != nil {
				fmt.Fprintf(os.Stderr, "rfpbench: encoding %s: %v\n", id, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Print(res.Render(*chart))
		fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())
	}
}
