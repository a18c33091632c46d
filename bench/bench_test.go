package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the schema of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestSmoke runs every workload (untraced and traced) and every isolation
// drive with the windows cut 100x, and holds the output to BENCHMARK.json:
// every name emitted exactly once per workload with a finite value and a
// unit, and the Go-side tables equal to the file.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	// The file against the limits and against the Go-side tables.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	all := workloads()
	if len(bm.Workloads) != len(all) || len(all) < 2 || len(all) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bm.Workloads), len(all))
	}
	for i, w := range all {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), benchmark has %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	checkDefs := func(kind string, file []jsonMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: file has %d metrics, benchmark has %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != better(d) {
				t.Errorf("%s %d: file has %+v, benchmark has %+v", kind, i, f, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %q: bad name or unit %q", kind, d.name, d.unit)
			}
			switch {
			case bounded && (f.Bound == nil || *f.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: bound in file %v, in benchmark %v", kind, d.name, f.Bound, d.bound)
			case !bounded && f.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	checkDefs("end_to_end", bm.EndToEnd, endToEndDefs, true)
	checkDefs("per_layer", bm.PerLayer, perLayerDefs, false)
	if len(endToEndDefs) > 16 || len(perLayerDefs) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(endToEndDefs), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{failedFrac}, endToEndDefs...), perLayerDefs...) {
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 || len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bm.RunSeconds, bm.Paths)
	}

	// The run itself.
	start := time.Now()
	cfg := config{seed: 1, reps: 1, trace: -1, tracedir: t.TempDir(), scale: 0.01, iso: 5 * time.Millisecond, log: io.Discard}
	results := run(all, cfg)
	t.Logf("smoke run took %.1f s", time.Since(start).Seconds())

	finite := func(w, name string, s stat, unit string) {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Unit != unit {
			t.Errorf("%s: %s = %v %q, want a finite value in %q", w, name, s.Value, s.Unit, unit)
		}
	}
	isoSeen := map[string]int{}
	for i, r := range results {
		if !r.Correct {
			t.Errorf("%s: not correct: %v", r.Name, r.Breaches)
		}
		if r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", r.Name, r.Attempted, r.Failed)
		}
		if len(r.EndToEnd) != len(endToEndDefs)+1 || len(r.PerLayer) != len(perLayerDefs) {
			t.Errorf("%s: %d end-to-end and %d per-layer values, want %d and %d",
				r.Name, len(r.EndToEnd), len(r.PerLayer), len(endToEndDefs)+1, len(perLayerDefs))
		}
		for _, d := range append([]metricDef{failedFrac}, endToEndDefs...) {
			s, ok := r.EndToEnd[d.name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", r.Name, d.name)
			}
			finite(r.Name, d.name, s, d.unit)
			if d.name != failedFrac.name && s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Name, d.name, s.Value)
			}
		}
		for _, d := range perLayerDefs {
			s, ok := r.PerLayer[d.name]
			if !ok {
				t.Errorf("%s: per-layer metric %s not emitted", r.Name, d.name)
			}
			finite(r.Name, d.name, s, d.unit)
			if strings.Contains(d.name, ".iso.") && s.Value != 0 {
				isoSeen[d.name]++
			}
		}
		if all[i].traceable {
			if _, err := os.Stat(r.Trace); err != nil {
				t.Errorf("%s: trace file: %v", r.Name, err)
			}
		}

		// The contract line: end-to-end names after an untraced pass,
		// per-layer names after a traced one, nothing else.
		for pass, want := range map[string][]metricDef{"untraced": endToEndDefs, "traced": perLayerDefs} {
			one := r
			if pass == "untraced" {
				one.PerLayer = nil
			} else {
				one.EndToEnd = nil
			}
			var line struct {
				Correct   *bool                     `json:"correct"`
				Attempted *uint64                   `json:"attempted"`
				Failed    *uint64                   `json:"failed"`
				Metrics   map[string]map[string]any `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(contractLine(one)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s %s: contract line: %v", r.Name, pass, err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s %s: contract line has %d metrics, want %d", r.Name, pass, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if m := line.Metrics[d.name]; len(m) != 2 || m["unit"] != d.unit {
					t.Errorf("%s %s: contract line metric %s = %v", r.Name, pass, d.name, m)
				}
			}
		}
	}
	for _, d := range perLayerDefs {
		if strings.Contains(d.name, ".iso.") && isoSeen[d.name] != 1 {
			t.Errorf("isolation metric %s measured under %d workloads, want 1", d.name, isoSeen[d.name])
		}
	}

	// -compare: a document agrees with itself, and a worsened copy does not.
	doc := document{Machine: thisMachine(), Seed: 1, Workloads: results}
	if code := compareDocs(io.Discard, doc, doc); code != 0 {
		t.Errorf("a document does not agree with itself: exit %d", code)
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var worse document
	if err := json.Unmarshal(buf, &worse); err != nil {
		t.Fatal(err)
	}
	s := worse.Workloads[0].EndToEnd["sim_mops"]
	s.Value *= 0.9
	worse.Workloads[0].EndToEnd["sim_mops"] = s
	var out bytes.Buffer
	if code := compareDocs(&out, doc, worse); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a 10%% drop of sim_mops passed -compare (exit %d):\n%s", code, out.String())
	}
}

// TestBinStatistics pins the quantile and the interquartile mean on bins
// small enough to check by hand, and the bucket ranges recovered from the
// program's histogram.
func TestBinStatistics(t *testing.T) {
	// Samples 10,10,10,10 and 20,20,20,20 in unit-width bins.
	bins := sampleBins([]int32{10, 10, 10, 10, 20, 20, 20, 20})
	for _, c := range []struct{ q, want float64 }{{0.25, 10.5}, {0.50, 11}, {0.75, 20.5}, {1, 21}} {
		if got := binQuantile(bins, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile %v: got %v, want %v", c.q, got, c.want)
		}
	}
	// Ranks 2..6 of 8: the upper half of the first bin, the lower half of the second.
	if got, want := binIQM(bins), (2*10.75+2*20.25)/4; math.Abs(got-want) > 1e-9 {
		t.Errorf("IQM: got %v, want %v", got, want)
	}
	lo, hi := bucketRange(40)
	var l latHist
	l.h.Count, l.h.Buckets[40], l.h.Min, l.h.Max = 4, 4, lo, hi
	if b := l.bins(); len(b) != 1 || lo >= hi || b[0] != (bin{lo: float64(lo), width: float64(hi - lo + 1), n: 4}) {
		t.Errorf("bucket 40 spans [%d, %d], bins %v", lo, hi, b)
	}
}
