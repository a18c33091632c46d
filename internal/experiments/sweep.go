package experiments

// The sweep runner. Most of the paper's evaluation is one grid of
// closed-loop runs: a line per system or variant, a point per swept thread
// count, process time, GET share or value size. A sweep declares that grid;
// its run measures one figure point per (point, line) and assembles the
// Result from the points' measured windows.

import (
	"rfp/internal/dist"
	"rfp/internal/scenario"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

// sweep declares one swept experiment.
type sweep struct {
	id, desc, title string // registry id and description; the Result's title
	xLabel, yLabel  string
	labelAll        bool  // label every series' axes, not only the first's
	full, quick     []int // the swept x values; a nil quick sweeps full
	lines           []line
	// y projects a point's window onto its plotted value; nil plots MOPS.
	y func(scenario.PhaseObs) float64
	// tel renders one telemetry row per (point, line) when
	// Options.Telemetry is set, under telHeader when that is set.
	telHeader string
	tel       func(x int, label string, t telemetry.Snapshot) string
	// rows renders table rows from the measured series.
	rows  func([]*stats.Series) []string
	notes []string
}

// line is one plotted line: its label and the measured window of each
// point.
type line struct {
	label string
	run   func(o Options, x int) scenario.PhaseObs
}

// run measures the points x-major, each point's lines in declaration order,
// so telemetry rows follow the sweep.
func (s sweep) run(o Options) Result {
	xs := o.pick(s.full, s.quick)
	if xs == nil {
		xs = s.full
	}
	res := Result{ID: s.id, Title: s.title, Notes: s.notes}
	for i, l := range s.lines {
		ser := &stats.Series{Label: l.label}
		if i == 0 || s.labelAll {
			ser.XLabel, ser.YLabel = s.xLabel, s.yLabel
		}
		res.Series = append(res.Series, ser)
	}
	if o.Telemetry && s.telHeader != "" {
		res.Telemetry = append(res.Telemetry, s.telHeader)
	}
	for _, x := range xs {
		for i, l := range s.lines {
			w := l.run(o, x)
			y := mops(w)
			if s.y != nil {
				y = s.y(w)
			}
			res.Series[i].Add(float64(x), y)
			if o.Telemetry && s.tel != nil {
				res.Telemetry = append(res.Telemetry, s.tel(x, l.label, w.Tel))
			}
		}
	}
	if s.rows != nil {
		res.Rows = s.rows(res.Series)
	}
	return res
}

// perKind is one line per store kind, labelled with the kind's name.
func perKind(run func(o Options, k StoreKind, x int) scenario.PhaseObs, kinds ...StoreKind) []line {
	lines := make([]line, len(kinds))
	for i, k := range kinds {
		lines[i] = line{k.Label(), func(o Options, x int) scenario.PhaseObs { return run(o, k, x) }}
	}
	return lines
}

// rpcKinds are the three RPC-style systems most figures compare.
var rpcKinds = []StoreKind{KindJakiro, KindServerReply, KindMemcached}

// sizedLoad is a read-intensive load over sz-byte values: 95 % GETs, the
// PUTs writing sz bytes (a store preloaded by PaperSpec(k, sz) writes the
// same size).
func sizedLoad(sz int) workload.Config {
	return workload.Config{GetFraction: 0.95, ValueSize: dist.Fixed(sz)}
}

// fetchOverhead is the response framing on top of the value bytes an
// experiment-level F must cover: the 8-byte RFP header plus the KV status
// byte.
const fetchOverhead = 9
