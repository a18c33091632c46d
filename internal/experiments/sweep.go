package experiments

// The sweep runner. Most of the paper's evaluation is one grid of
// closed-loop runs: a line per system or variant, a point per swept thread
// count, process time, GET share or value size. A sweep declares that grid;
// its run measures one RunKV or RunEcho run per (point, line) and assembles
// the Result.

import (
	"rfp/internal/dist"
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
	// y projects a run onto its plotted value; nil plots MOPS.
	y func(KVOut) float64
	// tel renders one telemetry row per (point, line) when
	// Options.Telemetry is set, under telHeader when that is set.
	telHeader string
	tel       func(x int, label string, t telemetry.Snapshot) string
	// rows renders table rows from the measured series.
	rows  func([]*stats.Series) []string
	notes []string
}

// line is one plotted line: its label and the run behind each point.
type line struct {
	label string
	run   func(o Options, x int) KVOut
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
			out := l.run(o, x)
			y := out.MOPS
			if s.y != nil {
				y = s.y(out)
			}
			res.Series[i].Add(float64(x), y)
			if o.Telemetry && s.tel != nil {
				res.Telemetry = append(res.Telemetry, s.tel(x, l.label, out.Tel))
			}
		}
	}
	if s.rows != nil {
		res.Rows = s.rows(res.Series)
	}
	return res
}

// kvLine is a line whose every point is one RunKV run.
func kvLine(label string, run func(o Options, x int) KVRun) line {
	return line{label, func(o Options, x int) KVOut { return RunKV(run(o, x)) }}
}

// perKind is one kvLine per store kind, labelled with the kind's name.
func perKind(run func(o Options, k StoreKind, x int) KVRun, kinds ...StoreKind) []line {
	lines := make([]line, len(kinds))
	for i, k := range kinds {
		lines[i] = kvLine(k.Label(), func(o Options, x int) KVRun { return run(o, k, x) })
	}
	return lines
}

// rpcKinds are the three RPC-style systems most figures compare.
var rpcKinds = []StoreKind{KindJakiro, KindServerReply, KindMemcached}

// sizedRun is a read-intensive run over sz-byte values: 95 % GETs, PUTs and
// the preload both writing sz bytes.
func sizedRun(o Options, k StoreKind, sz int) KVRun {
	return KVRun{Opts: o, Kind: k, ValueSize: sz,
		Workload: workload.Config{GetFraction: 0.95, ValueSize: dist.Fixed(sz)}}
}

// fetchOverhead is the response framing on top of the value bytes an
// experiment-level F must cover: the 8-byte RFP header plus the KV status
// byte.
const fetchOverhead = 9
