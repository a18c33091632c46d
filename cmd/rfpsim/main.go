// Command rfpsim runs declarative end-to-end scenarios from the scenario
// registry (internal/scenario, DESIGN.md §15) standalone, with a
// phase-by-phase invariant report.
//
// Usage:
//
//	rfpsim -list                         # enumerate registered scenarios
//	rfpsim -scenario flash-crowd         # run one scenario on its primary backend
//	rfpsim -scenario flash-crowd -backend memckv
//	rfpsim -scenario flash-crowd -backend all
//	rfpsim -all                          # full matrix: every scenario x declared backend
//	rfpsim -scenario rolling-restart -seed 7
//	rfpsim -scenario flash-crowd -json -stable   # byte-stable JSON (BENCH convention)
//
// The exit status is 0 only if every evaluated invariant (including the
// same-seed replay check) passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rfp/internal/experiments"
	"rfp/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main minus the process exit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rfpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list registered scenarios and exit")
		all     = fs.Bool("all", false, "run every scenario on every declared backend")
		name    = fs.String("scenario", "", "scenario to run (see -list)")
		backend = fs.String("backend", "", "backend to run on: one name, or 'all' for every declared backend (default: the scenario's primary backend)")
		seed    = fs.Int64("seed", 1, "master seed; workload, faults and jitter all derive from it")
		asJSON  = fs.Bool("json", false, "emit one JSON document per run instead of text")
		stable  = fs.Bool("stable", false, "zero the wall-time field so -json output is diffable across runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, n := range scenario.Names() {
			sc, _ := scenario.Get(n)
			fmt.Fprintf(stdout, "%-24s backends=%-22s %s\n", n, strings.Join(sc.Backends, ","), sc.Desc)
		}
		return 0
	}

	var names []string
	switch {
	case *all:
		names = scenario.Names()
	case *name != "":
		names = []string{*name}
	default:
		fmt.Fprintln(stderr, "rfpsim: -scenario <name>, -all or -list required")
		fs.Usage()
		return 2
	}

	enc := json.NewEncoder(stdout)
	exit := 0
	for _, n := range names {
		sc, ok := scenario.Get(n)
		if !ok {
			fmt.Fprintf(stderr, "rfpsim: unknown scenario %q (have %s)\n", n, strings.Join(scenario.Names(), ", "))
			return 2
		}
		backends := sc.Backends[:1]
		if *all || *backend == "all" {
			backends = sc.Backends
		} else if *backend != "" {
			backends = []string{*backend}
		}
		for _, be := range backends {
			start := time.Now()
			rep, err := scenario.Verify(sc, be, scenario.Options{Seed: *seed})
			if err != nil {
				fmt.Fprintf(stderr, "rfpsim: %v\n", err)
				return 1
			}
			wall := time.Since(start)
			if *stable {
				wall = 0
			}
			if !rep.OK() {
				exit = 1
			}
			if *asJSON {
				res := experiments.Result{
					ID:    "sim-" + sc.Name + "-" + be,
					Title: sc.Desc,
					Rows:  strings.Split(strings.TrimRight(rep.Render(), "\n"), "\n"),
					Notes: []string{
						"scenario harness report (internal/scenario, DESIGN.md §15); rows are the phase-by-phase invariant report",
					},
				}
				o := experiments.Options{Seed: *seed}
				if err := enc.Encode(experiments.ToJSON(res, o, wall)); err != nil {
					fmt.Fprintf(stderr, "rfpsim: %v\n", err)
					return 1
				}
			} else {
				fmt.Fprint(stdout, rep.Render())
			}
		}
	}
	return exit
}
