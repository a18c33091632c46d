// Package experiments reproduces the paper's evaluation: one driver per
// figure/table, each assembling the simulated cluster, running the paper's
// workload, and reporting the same rows/series the paper plots. The
// per-experiment index lives in DESIGN.md; paper-vs-measured numbers are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
)

// Options tune how heavily an experiment runs. Zero values take defaults.
type Options struct {
	// Profile is the NIC/host model (default ConnectX-3 40 Gbps).
	Profile hw.Profile
	// Warmup and Window bound each measured run.
	Warmup, Window sim.Duration
	// Quick reduces sweep point counts for test runs.
	Quick bool
	// Seed makes runs reproducible.
	Seed int64
	// Telemetry attaches per-call recorders (internal/telemetry) to the
	// measured clients and adds their snapshots to the result. Off by
	// default: recording is out of the virtual-time data path, but the extra
	// result lines would break byte-identity of archived runs.
	Telemetry bool
}

// DefaultOptions returns the standard measurement envelope.
func DefaultOptions() Options {
	return Options{
		Profile: hw.ConnectX3(),
		Warmup:  800 * sim.Microsecond,
		Window:  1600 * sim.Microsecond,
		Seed:    1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Profile.Name == "" {
		o.Profile = d.Profile
	}
	if o.Warmup <= 0 {
		o.Warmup = d.Warmup
	}
	if o.Window <= 0 {
		o.Window = d.Window
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// pick returns full or quick depending on o.Quick.
func (o Options) pick(full, quick []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	// Series share an x axis; rendered as the figure's table.
	Series []*stats.Series
	// CDFs holds latency distributions for CDF figures.
	CDFs map[string]telemetry.HistSnap
	// Rows holds free-form table rows (Table 3 style).
	Rows []string
	// Telemetry holds per-call telemetry lines (latency percentiles,
	// round-trips per call, tuner decisions), present only when
	// Options.Telemetry was set.
	Telemetry []string
	// Memory holds resource-footprint samples (registered memory, MRs,
	// QPs, endpoint occupancy) for experiments that measure them
	// (ext-crowd); absent otherwise, so archived encodings are unchanged.
	Memory []MemorySample
	// SimEvents counts kernel events retired across the experiment's
	// simulations, for events-per-second reporting. Only ext-scaleout sets
	// it; zero keeps other archived encodings unchanged.
	SimEvents uint64
	// Notes document modeling caveats for this experiment.
	Notes []string
}

// MemorySample is one measured transport-resource footprint: the gauges of
// telemetry.Resources at a labelled point of a sweep.
type MemorySample struct {
	Label     string
	Clients   int
	Resources telemetry.Resources
}

// String renders the sample as one report line.
func (m MemorySample) String() string {
	s := fmt.Sprintf("%-10s clients=%-6d %8.1f KB in %d MRs, %d QPs",
		m.Label, m.Clients, float64(m.Resources.RegisteredBytes)/1024,
		m.Resources.RegisteredMRs, m.Resources.QPs)
	if m.Resources.Endpoints > 0 {
		s += fmt.Sprintf("; %d leases over %d endpoints (occupancy %d)",
			m.Resources.EndpointLeases, m.Resources.Endpoints, m.Resources.EndpointOccupancy)
	}
	return s
}

// String renders the result in the harness's text format.
func (r Result) String() string { return r.render(false) }

// Render renders the result, optionally with an ASCII chart of the series.
func (r Result) Render(chart bool) string { return r.render(chart) }

func (r Result) render(chart bool) string {
	var b strings.Builder
	if len(r.Series) > 0 {
		b.WriteString(stats.Table(fmt.Sprintf("%s — %s", r.ID, r.Title), r.Series...))
		if chart {
			b.WriteString("\n")
			b.WriteString(stats.Chart(r.ID, 56, 12, r.Series...))
		}
	} else {
		fmt.Fprintf(&b, "# %s — %s\n", r.ID, r.Title)
	}
	if len(r.CDFs) > 0 {
		names := make([]string, 0, len(r.CDFs))
		for n := range r.CDFs {
			names = append(names, n)
		}
		sort.Strings(names)
		qs := []float64{0.05, 0.15, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}
		fmt.Fprintf(&b, "%-14s", "quantile")
		for _, n := range names {
			fmt.Fprintf(&b, "%16s", n)
		}
		b.WriteString("\n")
		for _, q := range qs {
			fmt.Fprintf(&b, "%-14.3f", q)
			for _, n := range names {
				h := r.CDFs[n]
				fmt.Fprintf(&b, "%14.2fus", float64(h.Percentile(q))/1e3)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%-14s", "mean")
		for _, n := range names {
			h := r.CDFs[n]
			fmt.Fprintf(&b, "%14.2fus", h.Mean()/1e3)
		}
		b.WriteString("\n")
	}
	for _, row := range r.Rows {
		b.WriteString(row)
		b.WriteString("\n")
	}
	if len(r.Telemetry) > 0 {
		b.WriteString("telemetry:\n")
		for _, line := range r.Telemetry {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	if len(r.Memory) > 0 {
		b.WriteString("memory:\n")
		for _, m := range r.Memory {
			b.WriteString("  ")
			b.WriteString(m.String())
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// registry maps experiment ids to drivers.
var registry = map[string]struct {
	title string
	run   func(Options) Result
}{}

func register(id, title string, run func(Options) Result) {
	registry[id] = struct {
		title string
		run   func(Options) Result
	}{title, run}
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's description.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// Run executes one experiment by id.
func Run(id string, o Options) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.run(o.withDefaults()), nil
}
