package experiments

// Machine-readable result encoding, shared by cmd/rfpbench's -json mode and
// the archive tests. The encoding is part of the repo's stable surface:
// BENCH_faultfree.json and BENCH_sim.json are byte-compared against fresh
// runs, so field order, naming and the omitempty set must not drift.

import (
	"fmt"
	"sort"
	"time"
)

// JSONSeries is one plotted line in -json output.
type JSONSeries struct {
	Label  string    `json:"label"`
	XLabel string    `json:"x_label,omitempty"`
	YLabel string    `json:"y_label,omitempty"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

// JSONCDF is one latency distribution, summarized at fixed quantiles.
type JSONCDF struct {
	Label       string             `json:"label"`
	Count       uint64             `json:"count"`
	MeanUs      float64            `json:"mean_us"`
	Percentiles map[string]float64 `json:"percentiles_us"`
}

// JSONResult is the machine-readable form of one experiment run.
type JSONResult struct {
	ID         string       `json:"id"`
	Title      string       `json:"title"`
	Seed       int64        `json:"seed"`
	Quick      bool         `json:"quick"`
	WindowUs   float64      `json:"window_us"`
	WarmupUs   float64      `json:"warmup_us"`
	Series     []JSONSeries `json:"series,omitempty"`
	CDFs       []JSONCDF    `json:"cdfs,omitempty"`
	Rows       []string     `json:"rows,omitempty"`
	Telemetry  []string     `json:"telemetry,omitempty"`
	Memory     []JSONMemory `json:"memory,omitempty"`
	Notes      []string     `json:"notes,omitempty"`
	WallTimeMs float64      `json:"wall_time_ms"`
	// SimEvents/EventsPerSec report kernel throughput for experiments that
	// measure it (ext-scaleout). EventsPerSec derives from wall time, so a
	// -stable run omits it (wall is zeroed) and keeps the encoding
	// byte-stable; SimEvents itself is deterministic per seed.
	SimEvents    uint64  `json:"sim_events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// JSONMemory is one transport-resource footprint sample in -json output.
// Only experiments that measure footprints (ext-crowd) emit it — the
// omitempty keeps every archived encoding byte-identical.
type JSONMemory struct {
	Label             string `json:"label"`
	Clients           int    `json:"clients"`
	RegisteredBytes   int64  `json:"registered_bytes"`
	RegisteredMRs     int    `json:"registered_mrs"`
	QPs               int    `json:"qps"`
	Endpoints         int    `json:"endpoints,omitempty"`
	EndpointLeases    int    `json:"endpoint_leases,omitempty"`
	EndpointOccupancy int    `json:"endpoint_occupancy,omitempty"`
}

// cdfQuantiles are the summary points emitted for each latency histogram.
var cdfQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// ToJSON converts one experiment result to its machine-readable form. A
// telemetry-off run never sets Telemetry, so its encoding is byte-identical
// to the pre-telemetry format.
func ToJSON(res Result, o Options, wall time.Duration) JSONResult {
	out := JSONResult{
		ID:         res.ID,
		Title:      res.Title,
		Seed:       o.Seed,
		Quick:      o.Quick,
		WindowUs:   float64(o.Window) / 1e3,
		WarmupUs:   float64(o.Warmup) / 1e3,
		Rows:       res.Rows,
		Telemetry:  res.Telemetry,
		Notes:      res.Notes,
		WallTimeMs: float64(wall.Nanoseconds()) / 1e6,
		SimEvents:  res.SimEvents,
	}
	if res.SimEvents > 0 && wall > 0 {
		out.EventsPerSec = float64(res.SimEvents) / wall.Seconds()
	}
	for _, m := range res.Memory {
		out.Memory = append(out.Memory, JSONMemory{
			Label:             m.Label,
			Clients:           m.Clients,
			RegisteredBytes:   m.Resources.RegisteredBytes,
			RegisteredMRs:     m.Resources.RegisteredMRs,
			QPs:               m.Resources.QPs,
			Endpoints:         m.Resources.Endpoints,
			EndpointLeases:    m.Resources.EndpointLeases,
			EndpointOccupancy: m.Resources.EndpointOccupancy,
		})
	}
	for _, s := range res.Series {
		out.Series = append(out.Series, JSONSeries{
			Label: s.Label, XLabel: s.XLabel, YLabel: s.YLabel, X: s.X, Y: s.Y,
		})
	}
	labels := make([]string, 0, len(res.CDFs))
	for label := range res.CDFs {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		h := res.CDFs[label]
		c := JSONCDF{
			Label:       label,
			Count:       h.Count(),
			MeanUs:      h.Mean() / 1e3,
			Percentiles: make(map[string]float64, len(cdfQuantiles)),
		}
		for _, pt := range h.CDF(cdfQuantiles) {
			c.Percentiles[fmt.Sprintf("p%g", pt.Q*100)] = float64(pt.Ns) / 1e3
		}
		out.CDFs = append(out.CDFs, c)
	}
	return out
}
