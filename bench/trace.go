package main

// The traced pass. One extra repetition runs with span-recording telemetry
// recorders on the clients, a verb ring on every NIC and the benchmark's
// own virtual-time span around each driver call. Spans are kept in memory,
// stitched after the window, and written to <tracedir>/trace-<workload>.json
// when the rep ends. Tracing inside the program is a later change: every
// span here is taken at a layer's public boundary, from outside.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

const (
	spanEvents     = 1 << 16 // call-scoped events each recorder retains
	verbRingEvents = 1 << 13 // verb events each NIC retains
	traceFileOps   = 4096    // most recent linked operations written to the trace file
)

// tracer carries one traced rep's recorders and what was made of them.
type tracer struct {
	dir, workload string
	seed          int64
	recs          []recorder
	rings         []verbRing

	calls      uint64             // calls the recorders saw in the window
	callMeanNs float64            // exact mean post -> completion over those calls
	layer      map[string]float64 // per-layer metrics that only tracing yields
	file       string             // the trace file written
}

func newTracer(dir, workload string, seed int64) *tracer {
	return &tracer{dir: dir, workload: workload, seed: seed, layer: map[string]float64{}}
}

// attach hooks the recorders and rings into a warmed-up rig, right before
// its measured window, so every count covers exactly the window.
func (tr *tracer) attach(rig *kvRig) {
	if rig.attach != nil {
		tr.recs = make([]recorder, rig.recorders)
		for i := range tr.recs {
			tr.recs[i] = newRecorder(spanEvents)
		}
		rig.attach(tr.recs)
	}
	for _, m := range append(append([]machine(nil), rig.clientNICs...), rig.serverNICs...) {
		tr.rings = append(tr.rings, m.traceVerbs(verbRingEvents))
	}
	// Each thread keeps its most recent op spans; together they reach back
	// at least as far as the recorders' event rings do.
	per := 4 * spanEvents / len(rig.threads)
	if per < 256 {
		per = 256
	}
	for _, t := range rig.threads {
		t.ring = make([]opSpan, per)
	}
	rig.shared.spans = true
}

// traceSpan is one span of the trace file. Spans of one operation share Op;
// Parent is the id of the span that caused this one (0: a root).
type traceSpan struct {
	ID     int    `json:"id"`
	Op     int    `json:"op,omitempty"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	NIC    string `json:"nic"`
	Start  vtime  `json:"start_ns"`
	End    vtime  `json:"end_ns"`
}

type traceFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Note        string      `json:"note"`
	LinkedOps   int         `json:"linked_ops"`
	CallSpans   int         `json:"call_spans"`
	Misstitched int         `json:"misstitched_events"`
	Spans       []traceSpan `json:"spans"`
}

type opKey struct {
	nic   string
	start vtime
}

// collect stitches the window's spans, derives the tracing-only per-layer
// metrics and writes the trace file.
func (tr *tracer) collect(rig *kvRig) {
	if len(tr.recs) > 0 {
		st := summarize(tr.recs)
		tr.calls, tr.callMeanNs = st.calls, st.totalMeanNs
		calls := float64(st.calls)
		tr.layer["core.writes_per_call"] = ratio(float64(st.writes), calls)
		tr.layer["core.reads_per_call"] = ratio(float64(st.reads), calls)
		tr.layer["core.fetch_miss_frac"] = ratio(float64(st.retries), float64(st.reads))
		tr.layer["core.reply_call_frac"] = ratio(float64(st.replyCalls), calls)
		tr.layer["core.fallbacks"] = float64(st.fallbacks)
		tr.layer["core.send_leg_p50_us"] = st.sendP50 / 1e3
		tr.layer["core.fetch_leg_p50_us"] = st.fetchLegP50 / 1e3
		tr.layer["core.reply_leg_p50_us"] = st.replyLegP50 / 1e3
		tr.layer["core.ring_occupancy_mean"] = st.occupancyMean
	}

	// The benchmark's op spans, by (client NIC, start instant): a driver
	// call enters core at the instant it starts, so a stitched call's
	// parent is the op span on its NIC that starts with it.
	type opRef struct {
		span opSpan
		nic  string
		id   int
	}
	var ops []opRef
	for _, t := range rig.threads {
		n := t.ringNext
		if n > len(t.ring) {
			n = len(t.ring)
		}
		for _, s := range t.ring[:n] {
			ops = append(ops, opRef{span: s, nic: t.nic})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].span.end < ops[j].span.end })
	byStart := map[opKey][]int{}
	for i, o := range ops {
		k := opKey{o.nic, o.span.start}
		byStart[k] = append(byStart[k], i)
	}

	calls, scoped, misstitched := stitchedCalls(tr.recs)
	var spans []traceSpan
	nextID := 1
	emit := func(s traceSpan) int {
		s.ID = nextID
		nextID++
		spans = append(spans, s)
		return s.ID
	}
	var postToHit, hitToDone float64
	linked := 0
	for _, c := range calls {
		postToHit += float64(c.hit - c.start)
		hitToDone += float64(c.end - c.hit)
		// Link to the op span that starts with the call and contains it; two
		// threads of one machine can start in the same nanosecond, so take
		// the first such op not yet claimed.
		k := opKey{c.nic, c.start}
		cands := byStart[k]
		parent := -1
		for ci, i := range cands {
			if ops[i].span.end >= c.end {
				parent = i
				byStart[k] = append(cands[:ci:ci], cands[ci+1:]...)
				break
			}
		}
		if parent < 0 {
			misstitched += len(c.events)
			continue
		}
		linked++
		o := &ops[parent]
		if o.id == 0 {
			o.id = emit(traceSpan{Name: o.span.name, NIC: o.nic, Start: o.span.start, End: o.span.end})
			spans[len(spans)-1].Op = o.id
		}
		callID := emit(traceSpan{Op: o.id, Parent: o.id, Name: "core.call", NIC: c.nic, Start: c.start, End: c.end})
		for _, e := range c.events {
			emit(traceSpan{Op: o.id, Parent: callID, Name: "core." + e.kind, NIC: e.nic, Start: e.start, End: e.end})
		}
	}
	if n := float64(len(calls)); n > 0 {
		tr.layer["core.span.post_to_hit_us"] = postToHit / n / 1e3
		tr.layer["core.span.hit_to_done_us"] = hitToDone / n / 1e3
	}
	tr.layer["core.span.orphan_frac"] = ratio(float64(misstitched), float64(scoped))

	// Stores without a telemetry hook still get their op spans written.
	if len(tr.recs) == 0 {
		for i := range ops {
			o := &ops[i]
			o.id = emit(traceSpan{Name: o.span.name, NIC: o.nic, Start: o.span.start, End: o.span.end})
			spans[len(spans)-1].Op = o.id
		}
		linked = len(ops)
	}

	// Verbs carry no call identity: they are written as roots under their
	// NIC, and yield the verb latencies.
	var reads, writes []float64
	var verbs []traceSpan
	for _, r := range tr.rings {
		for _, e := range r.events() {
			d := float64(e.end - e.start)
			switch e.kind {
			case "READ":
				reads = append(reads, d)
			case "WRITE":
				writes = append(writes, d)
			}
			verbs = append(verbs, traceSpan{Name: "rnic." + e.kind, NIC: e.src, Start: e.start, End: e.end})
		}
	}
	tr.layer["rnic.read_p50_us"] = median(reads) / 1e3
	tr.layer["rnic.write_p50_us"] = median(writes) / 1e3

	tr.write(spans, verbs, linked, len(calls), misstitched)
}

// write keeps the most recent traceFileOps operations (and the verbs that
// overlap them) and writes the file. A failure to write is reported, not
// fatal: the metrics do not depend on the file.
func (tr *tracer) write(spans, verbs []traceSpan, linked, calls, misstitched int) {
	opsSeen, cut := 0, 0
	for i := len(spans) - 1; i >= 0 && opsSeen < traceFileOps; i-- {
		if spans[i].Parent == 0 {
			opsSeen++
		}
		cut = i
	}
	spans = spans[cut:]
	if len(spans) > 0 {
		from := spans[0].Start
		for _, s := range spans {
			if s.Start < from {
				from = s.Start
			}
		}
		id := spans[len(spans)-1].ID
		for _, v := range verbs {
			if v.End >= from {
				id++
				v.ID = id
				spans = append(spans, v)
			}
		}
	}
	doc := traceFile{
		Workload: tr.workload, Seed: tr.seed,
		Note:      "virtual time in ns; spans of one operation share op; parent 0 is a root; rnic verbs carry no call identity and are roots under their NIC",
		LinkedOps: linked, CallSpans: calls, Misstitched: misstitched,
		Spans: spans,
	}
	if err := os.MkdirAll(tr.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: trace dir: %v\n", err)
		return
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: trace encode: %v\n", err)
		return
	}
	path := filepath.Join(tr.dir, "trace-"+tr.workload+".json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: trace write: %v\n", err)
		return
	}
	tr.file = path
}
