package telemetry

// Snapshot is the aggregate view of one or more recorders at a point in
// time: plain values, safe to copy, merge and render after (or during) a
// run.

import "fmt"

// Snapshot holds a recorder's counters, histograms, occupancy gauge and
// decision log as plain values.
type Snapshot struct {
	Calls      uint64 // completed calls: Total.Count
	FetchCalls uint64 // calls completed by fetching the result: FetchLeg.Count
	ReplyCalls uint64 // calls completed by a server reply: ReplyLeg.Count
	// The verb counters cover every claimed call, failed ones included.
	Writes    uint64 // completed request writes (posts + resends)
	Reads     uint64 // completed result fetches (incl. retries/continuations)
	Retries   uint64 // fetch attempts that read an incomplete/stale image
	Fallbacks uint64 // calls switched from fetch to server-reply in flight

	Total    HistSnap // post -> completion (ns)
	Send     HistSnap // post -> request delivered (ns)
	FetchLeg HistSnap // delivery -> completion, fetch-mode calls (ns)
	ReplyLeg HistSnap // delivery -> completion, reply-mode calls (ns)

	Occupancy [MaxOccupancy + 1]uint64 // samples by outstanding depth

	Decisions      []Decision
	DecisionsTotal uint64

	// Resources are transport-resource gauges sampled at snapshot time
	// (core.Server.Resources); all-zero on snapshots that never sampled
	// them, and omitted from Text then.
	Resources Resources
}

// Resources gauges the transport-resource footprint behind a set of
// connections: pinned registered memory (page-rounded, as an RNIC pins it),
// memory regions, QPs, and how hard the leased endpoints are multiplexed.
// Point-in-time values, not accumulating counters.
type Resources struct {
	RegisteredBytes int64 // page-rounded bytes pinned by registrations
	RegisteredMRs   int   // live memory regions
	QPs             int   // QPs on the serving NIC
	Endpoints       int   // live endpoints (QP pairs) of the server's pool
	EndpointLeases  int   // live logical clients multiplexed onto them

	// EndpointOccupancy is the heaviest endpoint's lease count — the
	// multiplexing factor.
	EndpointOccupancy int
}

// merge sums gauges (footprints of disjoint servers add) and takes the
// worst occupancy.
func (r *Resources) merge(o Resources) {
	r.RegisteredBytes += o.RegisteredBytes
	r.RegisteredMRs += o.RegisteredMRs
	r.QPs += o.QPs
	r.Endpoints += o.Endpoints
	r.EndpointLeases += o.EndpointLeases
	if o.EndpointOccupancy > r.EndpointOccupancy {
		r.EndpointOccupancy = o.EndpointOccupancy
	}
}

// Merge accumulates another snapshot into s (counters add, histograms
// merge, decision logs concatenate).
func (s *Snapshot) Merge(o Snapshot) {
	s.Calls += o.Calls
	s.FetchCalls += o.FetchCalls
	s.ReplyCalls += o.ReplyCalls
	s.Writes += o.Writes
	s.Reads += o.Reads
	s.Retries += o.Retries
	s.Fallbacks += o.Fallbacks
	s.Total.Merge(&o.Total)
	s.Send.Merge(&o.Send)
	s.FetchLeg.Merge(&o.FetchLeg)
	s.ReplyLeg.Merge(&o.ReplyLeg)
	for i := range s.Occupancy {
		s.Occupancy[i] += o.Occupancy[i]
	}
	s.Decisions = append(s.Decisions, o.Decisions...)
	s.DecisionsTotal += o.DecisionsTotal
	s.Resources.merge(o.Resources)
}

// Delta returns the activity recorded between prev and s, where prev is an
// earlier snapshot of the same recorder set: counters and histograms
// subtract, occupancy samples subtract, and the decision log is reduced to
// its count delta (the retained Decision entries are a bounded window, so
// individual entries cannot be attributed to one interval — per-phase
// reporting wants the volumes, not the log). Resources are point-in-time
// gauges and keep s's values.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Calls:          s.Calls - prev.Calls,
		FetchCalls:     s.FetchCalls - prev.FetchCalls,
		ReplyCalls:     s.ReplyCalls - prev.ReplyCalls,
		Writes:         s.Writes - prev.Writes,
		Reads:          s.Reads - prev.Reads,
		Retries:        s.Retries - prev.Retries,
		Fallbacks:      s.Fallbacks - prev.Fallbacks,
		Total:          s.Total.Delta(prev.Total),
		Send:           s.Send.Delta(prev.Send),
		FetchLeg:       s.FetchLeg.Delta(prev.FetchLeg),
		ReplyLeg:       s.ReplyLeg.Delta(prev.ReplyLeg),
		DecisionsTotal: s.DecisionsTotal - prev.DecisionsTotal,
		Resources:      s.Resources,
	}
	for i := range s.Occupancy {
		d.Occupancy[i] = s.Occupancy[i] - prev.Occupancy[i]
	}
	return d
}

// RoundTripsPerCall is the paper's amplification metric: one-sided verbs
// per completed call (the paper reports 2.005 for RFP: one request write
// plus 1.005 fetch reads on average). Verbs are reported at their call's
// claim, so over a Delta window it covers exactly the calls claimed in the
// window; a fault-free server-reply window reads 1.
func (s Snapshot) RoundTripsPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Writes+s.Reads) / float64(s.Calls)
}

// FetchesPerCall is the read half of the amplification metric.
func (s Snapshot) FetchesPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Calls)
}

// MeanOccupancy is the average ring occupancy over all post samples.
func (s Snapshot) MeanOccupancy() float64 {
	var samples, weighted uint64
	for d, n := range s.Occupancy {
		samples += n
		weighted += uint64(d) * n
	}
	if samples == 0 {
		return 0
	}
	return float64(weighted) / float64(samples)
}

// PeakOccupancy is the deepest occupancy observed.
func (s Snapshot) PeakOccupancy() int {
	for d := len(s.Occupancy) - 1; d >= 0; d-- {
		if s.Occupancy[d] > 0 {
			return d
		}
	}
	return 0
}

// us formats a nanosecond latency as microseconds.
func us(ns int64) string { return fmt.Sprintf("%.2fus", float64(ns)/1e3) }

// histLine renders one histogram row: count, mean and tail percentiles.
func histLine(name string, h *HistSnap) string {
	return fmt.Sprintf("%-10s n=%-8d mean=%-9s p50=%-9s p99=%-9s max=%s",
		name, h.Count, us(int64(h.Mean())), us(h.Percentile(0.50)),
		us(h.Percentile(0.99)), us(h.Max))
}

// Text renders the snapshot as indented report lines (no trailing
// newlines), suitable for an experiment's telemetry section.
func (s Snapshot) Text() []string {
	if s.Calls == 0 {
		return []string{"no calls recorded"}
	}
	lines := []string{
		fmt.Sprintf("calls %d (%d fetch, %d reply)  round-trips/call %.3f (%.3f writes + %.3f reads; paper: 2.005)",
			s.Calls, s.FetchCalls, s.ReplyCalls, s.RoundTripsPerCall(),
			float64(s.Writes)/float64(s.Calls), s.FetchesPerCall()),
		fmt.Sprintf("retries %d  fallbacks %d  occupancy mean %.2f peak %d",
			s.Retries, s.Fallbacks, s.MeanOccupancy(), s.PeakOccupancy()),
		histLine("total", &s.Total),
		histLine("send", &s.Send),
	}
	if s.FetchLeg.Count > 0 {
		lines = append(lines, histLine("fetch-leg", &s.FetchLeg))
	}
	if s.ReplyLeg.Count > 0 {
		lines = append(lines, histLine("reply-leg", &s.ReplyLeg))
	}
	if len(s.Decisions) > 0 {
		lines = append(lines, fmt.Sprintf("tuner decisions %d (%d retained):", s.DecisionsTotal, len(s.Decisions)))
		for _, d := range s.Decisions {
			lines = append(lines, "  "+d.String())
		}
	}
	if r := s.Resources; r.RegisteredMRs > 0 || r.QPs > 0 {
		line := fmt.Sprintf("resources: %.1f KB registered in %d MRs, %d QPs",
			float64(r.RegisteredBytes)/1024, r.RegisteredMRs, r.QPs)
		if r.Endpoints > 0 {
			line += fmt.Sprintf("; %d leases over %d endpoints (occupancy %d)",
				r.EndpointLeases, r.Endpoints, r.EndpointOccupancy)
		}
		lines = append(lines, line)
	}
	return lines
}
