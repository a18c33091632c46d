package experiments

// The fault-free contract. BENCH_faultfree.json holds one line per
// registered experiment: the exact document `rfpbench -quick -stable -json`
// prints for it. TestFaultFreeArchive re-runs every id in-process and
// compares it with its line, and the shape tests read the same memoized
// Result, so each experiment runs once per test process under the archive's
// options. A change that moves a figure on
// purpose re-archives in the same PR, with the command in EXPERIMENTS.md
// ("Archives"), and says which document moved.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"testing"
)

// faultFreeArchive is BENCH_faultfree.json, relative to this package.
const faultFreeArchive = "../../BENCH_faultfree.json"

// archiveOpts is the option set BENCH_faultfree.json was recorded under:
// rfpbench's defaults with -quick.
func archiveOpts() Options {
	o := DefaultOptions()
	o.Quick = true
	return o
}

type memoRun struct {
	once sync.Once
	res  Result
	err  error
}

var memo sync.Map // id -> *memoRun

// archived returns id's Result under archiveOpts, running the experiment on
// first use only. Every caller shares the one Result and must not modify it.
func archived(t testing.TB, id string) Result {
	t.Helper()
	v, _ := memo.LoadOrStore(id, new(memoRun))
	m := v.(*memoRun)
	m.once.Do(func() { m.res, m.err = Run(id, archiveOpts()) })
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.res
}

// encodeLine is one document of the -stable stream: res under o, wall time
// zeroed, newline-terminated.
func encodeLine(t testing.TB, res Result, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ToJSON(res, o, 0)); err != nil {
		t.Fatalf("encoding %s: %v", res.ID, err)
	}
	return buf.Bytes()
}

// archiveLines reads BENCH_faultfree.json into id -> line (newline kept) and
// the ids in file order.
func archiveLines(t testing.TB) (map[string][]byte, []string) {
	t.Helper()
	raw, err := os.ReadFile(faultFreeArchive)
	if err != nil {
		t.Fatalf("reading archive: %v", err)
	}
	lines := map[string][]byte{}
	var order []string
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("archive line %d: %v", len(order)+1, err)
		}
		lines[doc.ID] = line
		order = append(order, doc.ID)
	}
	return lines, order
}

// TestFaultFreeArchive compares every fault-free experiment's fresh document
// with its archived line, one parallel subtest per id. The runs land in the
// memo, so the shape tests after it find their Result ready.
func TestFaultFreeArchive(t *testing.T) {
	lines, order := archiveLines(t)
	ids := IDs()
	if !slices.Equal(order, ids) {
		t.Errorf("archive ids %v\n      registered %v\nre-archive BENCH_faultfree.json", order, ids)
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			checkArchived(t, lines, id)
		})
	}
}

// checkArchived compares the fresh documents of ids with their lines in
// BENCH_faultfree.json, failing on the first that drifted.
func checkArchived(t *testing.T, lines map[string][]byte, ids ...string) {
	t.Helper()
	o := archiveOpts()
	for _, id := range ids {
		want, ok := lines[id]
		if !ok {
			t.Fatalf("%s is registered but has no line in BENCH_faultfree.json", id)
		}
		got := encodeLine(t, archived(t, id), o)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s drifted from BENCH_faultfree.json: %s\ngot:  %s\nwant: %s",
				id, firstDiff(got, want), got, want)
		}
	}
}

// The three tests below pin the documents of one subsystem each, as named
// groups of archive lines: a drift there fails both the per-id subtest and
// the group's test. They read the memo, so they add no run.

// TestBenchKVArchiveByteIdentical pins figure points of all four
// stores: throughput, latency CDFs and the retry table.
func TestBenchKVArchiveByteIdentical(t *testing.T) {
	lines, _ := archiveLines(t)
	checkArchived(t, lines, "fig10", "fig11", "fig13", "fig16", "table3")
}

// TestBenchPipelineArchiveByteIdentical pins the pipelined-client documents
// with telemetry off: recording costs host time only.
func TestBenchPipelineArchiveByteIdentical(t *testing.T) {
	lines, _ := archiveLines(t)
	checkArchived(t, lines, "ext-pipeline", "ext-adaptive-depth")
}

// TestBenchReplicaArchiveByteIdentical pins the quorum-replication document.
func TestBenchReplicaArchiveByteIdentical(t *testing.T) {
	lines, _ := archiveLines(t)
	checkArchived(t, lines, "ext-replica")
}

// firstDiff names the first leaf at which two JSON documents differ, by its
// path, with both values.
func firstDiff(got, want []byte) string {
	var g, w any
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return "one side is not valid JSON"
	}
	gl, wl := leaves("", g, nil), leaves("", w, nil)
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			return fmt.Sprintf("first difference: got %s; want %s", leaf(gl, i), leaf(wl, i))
		}
	}
	return "same values, different bytes"
}

// leaves flattens a decoded JSON value into "path = value" lines, object
// keys sorted, arrays in order.
func leaves(path string, v any, out []string) []string {
	switch v := v.(type) {
	case map[string]any:
		for _, k := range slices.Sorted(maps.Keys(v)) {
			out = leaves(path+"."+k, v[k], out)
		}
	case []any:
		for i, e := range v {
			out = leaves(fmt.Sprintf("%s[%d]", path, i), e, out)
		}
	default:
		b, _ := json.Marshal(v)
		out = append(out, path+" = "+string(b))
	}
	return out
}

func leaf(l []string, i int) string {
	if i < len(l) {
		return l[i]
	}
	return "<end of document>"
}

// TestBenchSimArchiveByteIdentical guards the kernel-throughput archive
// (rfpbench -quick -json ext-scaleout > BENCH_sim.json). The archive is a
// real timed run, so its wall_time_ms and events_per_sec fields are
// measurements from the machine that recorded it; every other field —
// series, rows, and sim_events, the kernel's deterministic event count — is
// pinned byte for byte. A drift in sim_events means the kernel retired a
// different event schedule: a real behavior change, to be re-archived in the
// same PR when intentional.
func TestBenchSimArchiveByteIdentical(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatalf("reading archive: %v", err)
	}
	var archive JSONResult
	if err := json.Unmarshal(raw, &archive); err != nil {
		t.Fatalf("decoding archive: %v", err)
	}
	if archive.WallTimeMs <= 0 || archive.EventsPerSec <= 0 {
		t.Fatalf("archive must carry a real measurement: wall_time_ms=%v events_per_sec=%v",
			archive.WallTimeMs, archive.EventsPerSec)
	}
	archive.WallTimeMs, archive.EventsPerSec = 0, 0

	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(archive); err != nil {
		t.Fatal(err)
	}
	got := encodeLine(t, archived(t, "ext-scaleout"), archiveOpts())
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("fresh run diverged from BENCH_sim.json (wall fields excluded): %s\ngot:\n%s\nwant:\n%s",
			firstDiff(got, want.Bytes()), got, want.String())
	}
}
