// Command bench is this repository's benchmark: four closed-loop workloads
// measured on two clocks — virtual time (the modelled RDMA system) and host
// time (the simulator itself) — plus a per-layer ledger taken from outside
// the program, at its layers' public functions. See README.md.
//
// Run it from the repository root:
//
//	go run ./bench                          # every workload, both passes
//	go run ./bench -workload W -trace 0     # end-to-end metrics of one workload
//	go run ./bench -workload W -trace 1     # per-layer metrics of one workload
//	go run ./bench -compare a.json b.json   # do two -out files agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// gomaxprocs is pinned for every rep of every workload and recorded in the
// output. Each workload's kernel runs one goroutine at a time; a second P
// only adds cross-thread wake-ups whose cost is the OS scheduler's. W1
// measured 11.7-17.4 us/op from rep to rep at 2, 7.4-7.8 at 1.
const gomaxprocs = 1

const minReps = 3

type config struct {
	seed     int64
	reps     int     // 0: as many as fit in seconds, at least minReps
	seconds  float64 // wall budget of measured windows per workload
	trace    int     // 0 untraced pass only, 1 traced pass only, -1 both
	tracedir string
	scale    float64       // window scale; 1 except in the smoke test
	iso      time.Duration // wall target of each isolation drive
	log      io.Writer
}

// result is one workload's outcome.
type result struct {
	Name      string          `json:"name"`
	PaperMops float64         `json:"paper_mops,omitempty"`
	Note      string          `json:"note,omitempty"`
	Reps      int             `json:"reps"`
	Correct   bool            `json:"correct"`
	Attempted uint64          `json:"attempted"`
	Failed    uint64          `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	Trace     string          `json:"trace_file,omitempty"`
	Breaches  []string        `json:"breaches,omitempty"`
}

// document is the -out file.
type document struct {
	Machine   machineLabel `json:"machine"`
	Seed      int64        `json:"seed"`
	Workloads []result     `json:"workloads"`
}

type machineLabel struct {
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OSArch     string `json:"os_arch"`
}

func main() {
	var cfg config
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of workload generation and of the kernel")
	flag.IntVar(&cfg.reps, "reps", 0, "untraced repetitions per workload (0: as many as fit in -seconds, at least 3)")
	names := flag.String("workload", "", "comma-separated subset of workloads (default: all)")
	out := flag.String("out", "", "write the results as JSON to this path")
	flag.StringVar(&cfg.tracedir, "tracedir", "", "directory for trace-<workload>.json (default: a temporary directory)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "wall time of measured windows per workload in the untraced pass")
	flag.IntVar(&cfg.trace, "trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: both")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a breach")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if cfg.reps != 0 && cfg.reps < minReps {
		fatalf("-reps must be at least %d", minReps)
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fatalf("%v", err)
	}
	if cfg.tracedir == "" && cfg.trace != 0 {
		dir, err := os.MkdirTemp("", "rfp-bench-trace-")
		if err != nil {
			fatalf("%v", err)
		}
		cfg.tracedir = dir
	}
	cfg.scale, cfg.iso, cfg.log = 1, isoTarget, os.Stderr

	runtime.GOMAXPROCS(gomaxprocs)
	doc := document{Machine: thisMachine(), Seed: cfg.seed, Workloads: run(selected, cfg)}
	printTable(os.Stderr, doc)
	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fatalf("-out: %v", err)
		}
	}
	ok := true
	for _, r := range doc.Workloads {
		ok = ok && r.Correct
	}
	// With one workload selected, the last line of standard output is the
	// machine-readable result of that workload.
	if len(doc.Workloads) == 1 {
		fmt.Println(contractLine(doc.Workloads[0]))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func thisMachine() machineLabel {
	return machineLabel{
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func selectWorkloads(names string) ([]benchWorkload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []benchWorkload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// run executes the passes cfg asks for over the selected workloads.
func run(selected []benchWorkload, cfg config) []result {
	results := make([]result, len(selected))
	untraced := make([][]repResult, len(selected))
	for i, w := range selected {
		results[i] = result{Name: w.name, PaperMops: w.paperMops, Note: w.note, Correct: true}
	}
	breach := func(i int, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintf(cfg.log, "bench: BREACH %s: %s\n", selected[i].name, msg)
		results[i].Breaches = append(results[i].Breaches, msg)
		results[i].Correct = false
	}
	// oneRep runs a rep and applies the output checks every rep gets.
	oneRep := func(i int, tr *tracer, label string) (repResult, bool) {
		start := time.Now()
		runtime.GC() // the previous rep's garbage is not this rep's set-up
		r, err := selected[i].rep(cfg.seed, cfg.scale, tr)
		if err != nil {
			breach(i, "%s: %v", label, err)
			return r, false
		}
		if r.breach != "" {
			breach(i, "%s: %s", label, r.breach)
		}
		fmt.Fprintf(cfg.log, "bench: %-24s %-10s %9d ops  %7.0f ns/op  set-up %.3f s  (%.1f s)\n",
			selected[i].name, label, r.ops, ratio(float64(r.wallNs), float64(r.ops)), r.setupS, time.Since(start).Seconds())
		return r, true
	}

	if cfg.trace != 1 {
		// Reps are interleaved round-robin across workloads, so machine
		// drift hits all alike.
		spent := make([]float64, len(selected))
		for k := 0; ; k++ {
			ran := false
			for i := range selected {
				if cfg.reps > 0 && k >= cfg.reps || cfg.reps == 0 && k >= minReps && spent[i] >= cfg.seconds {
					continue
				}
				ran = true
				r, ok := oneRep(i, nil, fmt.Sprintf("rep %d", k+1))
				if !ok {
					spent[i] = cfg.seconds // an erroring workload is not retried beyond minReps
					continue
				}
				spent[i] += float64(r.wallNs) / 1e9
				// The determinism check: everything on the virtual clock, and
				// the kernel's event count, repeats bit for bit.
				if len(untraced[i]) > 0 && r.virt != untraced[i][0].virt {
					breach(i, "rep %d differs from rep 1 on the virtual clock: %+v vs %+v", k+1, r.virt, untraced[i][0].virt)
				}
				untraced[i] = append(untraced[i], r)
			}
			if !ran {
				break
			}
		}
		for i := range selected {
			if len(untraced[i]) == 0 {
				continue
			}
			results[i].Reps = len(untraced[i])
			results[i].EndToEnd = endToEnd(untraced[i])
			v := untraced[i][0].virt
			results[i].Attempted, results[i].Failed = v.attempted*uint64(len(untraced[i])), v.failed*uint64(len(untraced[i]))
		}
	}

	if cfg.trace != 0 {
		for i, w := range selected {
			var base repResult
			if len(untraced[i]) > 0 {
				base = fastestRep(untraced[i])
			} else {
				r, ok := oneRep(i, nil, "untraced")
				if !ok {
					continue
				}
				base = r
				results[i].Reps = 1
				results[i].Attempted, results[i].Failed = r.attempted, r.failed
			}
			if !w.traceable {
				results[i].PerLayer = perLayer(w, base, base, nil, runIso(w, cfg.iso))
				continue
			}
			tr := newTracer(cfg.tracedir, w.name, cfg.seed)
			traced, ok := oneRep(i, tr, "traced")
			if !ok {
				continue
			}
			// Tracing costs host time only: the traced rep must reproduce
			// the untraced virtual clock exactly.
			if traced.virt != base.virt {
				breach(i, "traced rep differs from the untraced on the virtual clock: %+v vs %+v", traced.virt, base.virt)
			}
			results[i].PerLayer = perLayer(w, base, traced, tr, runIso(w, cfg.iso))
			results[i].Trace = tr.file
		}
	}
	return results
}

// fastestRep picks the rep with the least host time, the one end-to-end
// host time is reported from.
func fastestRep(reps []repResult) repResult {
	best := reps[0]
	for _, r := range reps {
		if r.wallNs < best.wallNs {
			best = r
		}
	}
	return best
}

// contractLine renders one workload as the single JSON object the driver
// reads: end-to-end metrics after an untraced pass, per-layer metrics after
// a traced pass (both when both passes ran).
func contractLine(r result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range endToEndDefs {
		if s, ok := r.EndToEnd[d.name]; ok {
			metrics[d.name] = value{s.Value, s.Unit}
		}
	}
	for _, d := range perLayerDefs {
		if s, ok := r.PerLayer[d.name]; ok {
			metrics[d.name] = value{s.Value, s.Unit}
		}
	}
	attempted := r.Attempted
	if attempted == 0 {
		attempted = 1 // nothing ran; Correct is false and says why
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings; cannot fail
	}
	return string(buf)
}

// printTable writes the human-readable report.
func printTable(w io.Writer, doc document) {
	m := doc.Machine
	fmt.Fprintf(w, "\nmachine: nproc=%d %s GOMAXPROCS=%d %s   seed=%d\n", m.NumCPU, m.GoVersion, m.GOMAXPROCS, m.OSArch, doc.Seed)
	for _, r := range doc.Workloads {
		status := "correct"
		if !r.Correct {
			status = "INCORRECT: " + strings.Join(r.Breaches, "; ")
		}
		fmt.Fprintf(w, "\n== %s  (%d reps, %d ops attempted, %d failed, %s)\n", r.Name, r.Reps, r.Attempted, r.Failed, status)
		if r.EndToEnd != nil {
			fmt.Fprintf(w, "  %-28s %14s %-6s %10s %6s\n", "end-to-end", "value", "unit", "iqr", "bound")
			for _, d := range append([]metricDef{failedFrac}, endToEndDefs...) {
				s := r.EndToEnd[d.name]
				fmt.Fprintf(w, "  %-28s %14.6g %-6s %9.2f%% %5.0f%%\n", d.name, s.Value, s.Unit, 100*ratio(s.IQR, s.Value), 100*d.bound)
			}
			if r.Note != "" {
				fmt.Fprintf(w, "  (%s)\n", r.Note)
			}
			if r.PaperMops > 0 {
				fmt.Fprintf(w, "  (paper: %.2f Mop/s; faster than the paper is drift, not a gain)\n", r.PaperMops)
			} else {
				fmt.Fprintf(w, "  (no paper figure: sim_* unvalidated)\n")
			}
		}
		if r.PerLayer != nil {
			fmt.Fprintf(w, "  %-36s %14s %s\n", "per-layer", "value", "unit")
			for _, d := range perLayerDefs {
				s := r.PerLayer[d.name]
				if s.Value == 0 {
					fmt.Fprintf(w, "  %-36s %14s %s\n", d.name, "-", s.Unit)
					continue
				}
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, s.Value, s.Unit)
			}
			if r.Trace != "" {
				fmt.Fprintf(w, "  trace: %s\n", r.Trace)
			}
		}
	}
}
