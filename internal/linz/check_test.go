package linz

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// initPresent0 models the harness preload: every key present at version 0.
func initPresent0(key uint64) (uint32, bool) { return 0, true }

// initAbsent models an empty store.
func initAbsent(key uint64) (uint32, bool) { return 0, false }

func check(t *testing.T, h History, init Init, want Verdict) Result {
	t.Helper()
	res := CheckKV(h, init, Options{Minimize: true})
	if res.Verdict != want {
		t.Fatalf("verdict = %v, want %v\nhistory:\n%s", res.Verdict, want, h.Render())
	}
	return res
}

func TestSequentialHistoryLinearizable(t *testing.T) {
	h := History{
		{Client: 0, Kind: Write, Key: 1, Arg: 7, Call: 0, Return: 10},
		{Client: 0, Kind: Read, Key: 1, Out: 7, Found: true, Call: 20, Return: 30},
		{Client: 1, Kind: Write, Key: 1, Arg: 8, Call: 40, Return: 50},
		{Client: 1, Kind: Read, Key: 1, Out: 8, Found: true, Call: 60, Return: 70},
	}
	res := check(t, h, initAbsent, Linearizable)
	if res.Ops != 4 || res.Partitions != 1 {
		t.Fatalf("ops=%d partitions=%d, want 4/1", res.Ops, res.Partitions)
	}
	if res.Nodes == 0 {
		t.Fatalf("expected search nodes > 0")
	}
}

func TestConcurrentReadEitherSideOfWrite(t *testing.T) {
	// Both reads overlap the write; one sees the old value, one the new —
	// the write linearizes between them.
	h := History{
		{Client: 0, Kind: Write, Key: 2, Arg: 1, Call: 0, Return: 100},
		{Client: 1, Kind: Read, Key: 2, Out: 0, Found: true, Call: 10, Return: 20},
		{Client: 2, Kind: Read, Key: 2, Out: 1, Found: true, Call: 30, Return: 40},
	}
	check(t, h, initPresent0, Linearizable)
}

func TestStaleReadAfterNewReadIllegal(t *testing.T) {
	// The classic a-saw-stale-read counterexample: a concurrent write is
	// observed by one reader, then a strictly later reader sees the old
	// value again. No order is legal: the second read's real-time
	// predecessor already pinned the write before it.
	h := History{
		{Client: 1, Kind: Write, Key: 5, Arg: 1, Call: 0, Return: 100},
		{Client: 2, Kind: Read, Key: 5, Out: 1, Found: true, Call: 10, Return: 20},
		{Client: 3, Kind: Read, Key: 5, Out: 0, Found: true, Call: 30, Return: 40},
	}
	res := check(t, h, initPresent0, Illegal)
	if res.BadKey != 5 {
		t.Fatalf("BadKey = %d, want 5", res.BadKey)
	}
	if len(res.Counterexample) != 3 {
		t.Fatalf("counterexample has %d ops, want the full 3-op core:\n%s",
			len(res.Counterexample), res.Counterexample.Render())
	}
}

// TestGoldenMinimizedCounterexample pins the minimizer's output byte for
// byte on a padded version of the stale-read history: five extra
// linearizable ops (two on another key) must all be shaved off, leaving
// exactly the three-op core in canonical render order.
func TestGoldenMinimizedCounterexample(t *testing.T) {
	h := History{
		// The violation core.
		{Client: 1, Kind: Write, Key: 5, Arg: 1, Call: 0, Return: 100},
		{Client: 2, Kind: Read, Key: 5, Out: 1, Found: true, Call: 10, Return: 20},
		{Client: 3, Kind: Read, Key: 5, Out: 0, Found: true, Call: 30, Return: 40},
		// Linearizable padding on the same key...
		{Client: 4, Kind: Read, Key: 5, Out: 0, Found: true, Call: 1, Return: 4},
		{Client: 4, Kind: Write, Key: 5, Arg: 9, Call: 200, Return: 210},
		{Client: 4, Kind: Read, Key: 5, Out: 9, Found: true, Call: 220, Return: 230},
		// ...and on an unrelated key.
		{Client: 5, Kind: Write, Key: 6, Arg: 3, Call: 0, Return: 10},
		{Client: 5, Kind: Read, Key: 6, Out: 3, Found: true, Call: 20, Return: 30},
	}
	res := check(t, h, initPresent0, Illegal)
	const golden = "c1 W(k5=v1) [0,100]\n" +
		"c2 R(k5)=v1 [10,20]\n" +
		"c3 R(k5)=v0 [30,40]\n"
	if got := res.Counterexample.Render(); got != golden {
		t.Fatalf("minimized counterexample:\n%s\nwant:\n%s", got, golden)
	}
}

func TestReadBeforeAnyWriteIllegalWhenAbsent(t *testing.T) {
	h := History{
		{Client: 0, Kind: Read, Key: 3, Out: 1, Found: true, Call: 0, Return: 10},
		{Client: 1, Kind: Write, Key: 3, Arg: 1, Call: 20, Return: 30},
	}
	check(t, h, initAbsent, Illegal)
}

func TestMissThenWriteThenHit(t *testing.T) {
	h := History{
		{Client: 0, Kind: Read, Key: 3, Found: false, Call: 0, Return: 10},
		{Client: 1, Kind: Write, Key: 3, Arg: 1, Call: 20, Return: 30},
		{Client: 0, Kind: Read, Key: 3, Out: 1, Found: true, Call: 40, Return: 50},
	}
	check(t, h, initAbsent, Linearizable)
}

func TestMissAfterWriteIllegal(t *testing.T) {
	h := History{
		{Client: 1, Kind: Write, Key: 3, Arg: 1, Call: 0, Return: 10},
		{Client: 0, Kind: Read, Key: 3, Found: false, Call: 20, Return: 30},
	}
	check(t, h, initAbsent, Illegal)
}

func TestFailedWriteMayTakeEffect(t *testing.T) {
	// An ambiguous write (Return=inf) observed by a later read: legal, the
	// write's effect is linearized before the read.
	h := History{
		{Client: 0, Kind: Write, Key: 1, Arg: 1, Call: 0, Return: InfTime},
		{Client: 1, Kind: Read, Key: 1, Out: 1, Found: true, Call: 100, Return: 110},
	}
	check(t, h, initPresent0, Linearizable)
}

func TestFailedWriteMayNeverTakeEffect(t *testing.T) {
	// The same ambiguous write never observed: also legal — its effect
	// linearizes after every read.
	h := History{
		{Client: 0, Kind: Write, Key: 1, Arg: 1, Call: 0, Return: InfTime},
		{Client: 1, Kind: Read, Key: 1, Out: 0, Found: true, Call: 100, Return: 110},
		{Client: 1, Kind: Read, Key: 1, Out: 0, Found: true, Call: 200, Return: 210},
	}
	check(t, h, initPresent0, Linearizable)
}

func TestFailedWriteCannotFlipFlop(t *testing.T) {
	// Observed, then un-observed: the ambiguous write can linearize at any
	// single point, not two.
	h := History{
		{Client: 0, Kind: Write, Key: 1, Arg: 1, Call: 0, Return: InfTime},
		{Client: 1, Kind: Read, Key: 1, Out: 1, Found: true, Call: 100, Return: 110},
		{Client: 1, Kind: Read, Key: 1, Out: 0, Found: true, Call: 200, Return: 210},
	}
	check(t, h, initPresent0, Illegal)
}

func TestWriteSkewPairIllegal(t *testing.T) {
	// Sequential writes v1 then v2, then a strictly later read of v1 with
	// no other v1 write anywhere: provably non-linearizable (the fuzz
	// oracle's pattern).
	h := History{
		{Client: 0, Kind: Write, Key: 9, Arg: 1, Call: 0, Return: 10},
		{Client: 1, Kind: Write, Key: 9, Arg: 2, Call: 20, Return: 30},
		{Client: 2, Kind: Read, Key: 9, Out: 1, Found: true, Call: 40, Return: 50},
	}
	check(t, h, initPresent0, Illegal)
}

func TestMultiKeyPartitioning(t *testing.T) {
	// Key 1 is linearizable, key 2 is not; the verdict pins key 2 and the
	// counterexample contains only key-2 ops (locality).
	h := History{
		{Client: 0, Kind: Write, Key: 1, Arg: 1, Call: 0, Return: 10},
		{Client: 0, Kind: Read, Key: 1, Out: 1, Found: true, Call: 20, Return: 30},
		{Client: 1, Kind: Write, Key: 2, Arg: 1, Call: 0, Return: 10},
		{Client: 2, Kind: Read, Key: 2, Out: 0, Found: true, Call: 20, Return: 30},
	}
	res := check(t, h, initPresent0, Illegal)
	if res.BadKey != 2 {
		t.Fatalf("BadKey = %d, want 2", res.BadKey)
	}
	for _, o := range res.Counterexample {
		if o.Key != 2 {
			t.Fatalf("counterexample leaked key %d op: %s", o.Key, o)
		}
	}
	if res.Partitions != 2 {
		t.Fatalf("partitions = %d, want 2", res.Partitions)
	}
}

func TestBudgetExhaustionIsUnknown(t *testing.T) {
	// Many pairwise-concurrent ops; with a one-node budget the search
	// cannot decide and must say so rather than guess.
	var h History
	for i := 0; i < 8; i++ {
		h = append(h, Op{Client: i, Kind: Write, Key: 1, Arg: uint32(i + 1), Call: 0, Return: 1000})
	}
	res := CheckKV(h, initPresent0, Options{NodeBudget: 1})
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown", res.Verdict)
	}
}

func TestDeterministicNodeCount(t *testing.T) {
	h := History{
		{Client: 0, Kind: Write, Key: 1, Arg: 1, Call: 0, Return: 100},
		{Client: 1, Kind: Write, Key: 1, Arg: 2, Call: 50, Return: 150},
		{Client: 2, Kind: Read, Key: 1, Out: 2, Found: true, Call: 60, Return: 160},
		{Client: 3, Kind: Read, Key: 1, Out: 2, Found: true, Call: 200, Return: 210},
		{Client: 0, Kind: Write, Key: 4, Arg: 1, Call: 0, Return: 10},
		{Client: 1, Kind: Read, Key: 4, Out: 1, Found: true, Call: 5, Return: 20},
	}
	a := CheckKV(h, initPresent0, Options{})
	// Shuffle the input order: the canonical per-partition sort must make
	// the search (and its node count) identical.
	shuffled := History{h[5], h[2], h[0], h[4], h[3], h[1]}
	b := CheckKV(shuffled, initPresent0, Options{})
	if a.Verdict != b.Verdict || a.Nodes != b.Nodes {
		t.Fatalf("nondeterministic check: (%v, %d nodes) vs (%v, %d nodes)",
			a.Verdict, a.Nodes, b.Verdict, b.Nodes)
	}
	if a.Verdict != Linearizable {
		t.Fatalf("verdict = %v, want linearizable", a.Verdict)
	}
}

func TestEmptyHistory(t *testing.T) {
	res := CheckKV(nil, initAbsent, Options{})
	if res.Verdict != Linearizable || res.Nodes != 0 || res.Partitions != 0 {
		t.Fatalf("empty history: %+v", res)
	}
}

func TestClientLogRecorderAndCheckLogs(t *testing.T) {
	a := NewClientLog(0)
	b := NewClientLog(1)
	a.Write(1, 5, 0, 10)
	b.Read(1, 5, true, 20, 30)
	b.FailedWrite(2, 9, 40)
	a.Read(2, 0, false, 50, 60)
	h := logOps(a, b, nil)
	recorded := History{
		{Client: 0, Kind: Write, Key: 1, Arg: 5, Call: 0, Return: 10},
		{Client: 0, Kind: Read, Key: 2, Call: 50, Return: 60},
		{Client: 1, Kind: Read, Key: 1, Out: 5, Found: true, Call: 20, Return: 30},
		{Client: 1, Kind: Write, Key: 2, Arg: 9, Call: 40, Return: InfTime},
	}
	if !slices.Equal(h, recorded) {
		t.Fatalf("logs hold\n%swant the recorded ops\n%s", h.Render(), recorded.Render())
	}
	// The history is linearizable under an absent-keys init: the failed
	// write on key 2 linearizes after the miss read.
	res := CheckLogs([]*ClientLog{a, b, nil}, initAbsent, Options{Minimize: true})
	if res.Verdict != Linearizable || res.Ops != 4 || res.Partitions != 2 {
		t.Fatalf("CheckLogs: %+v, want linearizable, 4 ops, 2 partitions", res)
	}
	if !slices.Equal(logOps(a, b), recorded) {
		t.Fatalf("CheckLogs changed the logs:\n%s", logOps(a, b).Render())
	}
	if !strings.Contains(h.Render(), "c1 W(k2=v9) [40,inf]") {
		t.Fatalf("render lost the ambiguous return:\n%s", h.Render())
	}
}

// TestCheckKVOrderIndependent: CheckKV returns the same Result whatever the
// order of the ops it is handed, and leaves each history unchanged op for
// op. The histories are small random ones (both verdicts, with and
// without minimizing), a dense one whose search mostly backtracks, bench's
// iso history, the padded stale-read history whose counterexample is
// minimized, and a history with two malformed intervals.
func TestCheckKVOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var verdicts [3]int
	for i := 0; i < 1000; i++ {
		init := Init(initAbsent)
		if i%2 == 1 {
			init = initPresent0
		}
		res, err := checkShuffled(randomSmallHistory(rng), init, Options{Minimize: i%4 < 2}, rng)
		if err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		verdicts[res.Verdict]++
	}
	if verdicts[Linearizable] < 200 || verdicts[Illegal] < 200 {
		t.Fatalf("verdict mix %v: generator too one-sided", verdicts)
	}
	stale := History{
		{Client: 1, Kind: Write, Key: 5, Arg: 1, Call: 0, Return: 100},
		{Client: 2, Kind: Read, Key: 5, Out: 1, Found: true, Call: 10, Return: 20},
		{Client: 3, Kind: Read, Key: 5, Out: 0, Found: true, Call: 30, Return: 40},
		{Client: 4, Kind: Read, Key: 5, Out: 0, Found: true, Call: 1, Return: 4},
		{Client: 4, Kind: Write, Key: 5, Arg: 9, Call: 200, Return: 210},
		{Client: 5, Kind: Write, Key: 6, Arg: 3, Call: 0, Return: 10},
		{Client: 5, Kind: Read, Key: 6, Out: 3, Found: true, Call: 20, Return: 30},
	}
	malformed := History{
		{Client: 0, Kind: Write, Key: 3, Arg: 1, Call: 50, Return: 40},
		{Client: 1, Kind: Write, Key: 1, Arg: 1, Call: 0, Return: 10},
		{Client: 2, Kind: Read, Key: 2, Found: true, Call: 30, Return: 29},
	}
	for _, tc := range []struct {
		name string
		h    History
		want Verdict
	}{
		{"concurrent-400-3", concurrentHistory(7, 400, 3, 30), Linearizable},
		{"iso-10k-64", isoHistory(10_000, 64), Linearizable},
		{"stale-read", stale, Illegal},
		{"malformed", malformed, Unknown},
	} {
		res, err := checkShuffled(tc.h, initPresent0, Options{Minimize: true}, rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Verdict != tc.want {
			t.Fatalf("%s: verdict %v, want %v", tc.name, res.Verdict, tc.want)
		}
	}
}

func TestVerdictAndKindStrings(t *testing.T) {
	if Linearizable.String() != "linearizable" || Illegal.String() != "illegal" || Unknown.String() != "unknown" {
		t.Fatalf("verdict strings: %v %v %v", Linearizable, Illegal, Unknown)
	}
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatalf("kind strings: %v %v", Read, Write)
	}
}

// TestBadIntervalIsUnknown: an op that returns before it is called has no
// instant to linearize at. The check says so with ErrBadInterval and an
// Unknown verdict instead of building an entry list around it.
func TestBadIntervalIsUnknown(t *testing.T) {
	for _, h := range []History{
		{{Kind: Write, Key: 1, Call: 10, Return: 5}},
		{
			{Client: 0, Kind: Write, Key: 1, Arg: 1, Call: 0, Return: 10},
			{Client: 1, Kind: Read, Key: 2, Found: true, Call: 30, Return: 29},
		},
	} {
		res := CheckKV(h, initPresent0, Options{Minimize: true})
		if res.Verdict != Unknown || !errors.Is(res.Err, ErrBadInterval) || res.Ops != len(h) {
			t.Fatalf("verdict %v, err %v, ops %d; want unknown, ErrBadInterval, %d\n%s",
				res.Verdict, res.Err, res.Ops, len(h), h.Render())
		}
	}
	if res := CheckKV(History{{Kind: Write, Key: 1, Call: 5, Return: 5}}, nil, Options{}); res.Err != nil || res.Verdict != Linearizable {
		t.Fatalf("a point interval is legal: verdict %v, err %v", res.Verdict, res.Err)
	}
}

// TestCheckKVAllocsBounded pins the checker's heap use. Its allocations
// do not grow with the number of ops: both sizes read 14 for CheckKV and
// CheckLogs alike (seven search buffers sized once for the longest
// partition, its copy buffer, the pointer array, the partition list and
// four doublings of the key table); the bound of 24 leaves ten for a cache
// table that grows or a history with more keys. Its bytes are one 8-byte
// pointer per op plus buffers that scale with the longest partition L and
// the K keys, bounded by 8·N + 1024·L + 128·K: the 100k-op check reads
// 931,872 B against a bound of 1,109,248 (L = 238, K = 512), and any copy
// of the history, 48 B per op, fails it.
func TestCheckKVAllocsBounded(t *testing.T) {
	counts := map[int]float64{}
	for _, ops := range []int{10_000, 100_000} {
		h := isoHistory(ops, 512)
		logs := isoLogs(ops, 512, 16)
		counts[ops] = testing.AllocsPerRun(3, func() {
			if res := CheckKV(h, initPresent0, Options{}); res.Verdict != Linearizable {
				t.Fatalf("%d ops: verdict %v", ops, res.Verdict)
			}
		})
		if counts[ops] > 24 {
			t.Errorf("CheckKV on %d ops made %.0f allocations, want <= 24", ops, counts[ops])
		}
		var m0, m1 runtime.MemStats
		objects := testing.AllocsPerRun(1, func() {
			runtime.ReadMemStats(&m0)
			CheckLogs(logs, initPresent0, Options{})
			runtime.ReadMemStats(&m1)
		})
		if objects > 24 {
			t.Errorf("CheckLogs on %d ops made %.0f allocations, want <= 24", ops, objects)
		}
		perKey := map[uint64]int{}
		longest := 0
		for _, o := range h {
			perKey[o.Key]++
			longest = max(longest, perKey[o.Key])
		}
		bytes := m1.TotalAlloc - m0.TotalAlloc
		if limit := uint64(8*ops + 1024*longest + 128*len(perKey)); bytes > limit {
			t.Errorf("CheckLogs on %d ops allocated %d B (%.1f per op), want <= %d", ops, bytes, float64(bytes)/float64(ops), limit)
		}
		t.Logf("%d ops: CheckKV %.0f allocations, CheckLogs %.0f in %d B", ops, counts[ops], objects, bytes)
	}
	if d := counts[100_000] - counts[10_000]; d > 16 || d < -16 {
		t.Errorf("allocations grow with the history: %.0f at 10k ops, %.0f at 100k", counts[10_000], counts[100_000])
	}
}
