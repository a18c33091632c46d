package linz

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// logOps returns the ops of logs, log after log, each in the order it was
// recorded: the history CheckLogs must check like CheckKV.
func logOps(logs ...*ClientLog) History {
	h := History{}
	for _, l := range logs {
		if l != nil {
			for _, c := range l.chunks {
				h = append(h, c...)
			}
		}
	}
	return h
}

// recordRun appends n ops to l as one thread issues them: each op takes
// time and is called at or after the previous one's return (after a failed
// write, after the instant its error came back), over a coarse clock so
// that ops of different clients often share a Call time. Some reads miss
// and some writes fail with an InfTime return. A legal run keeps to keys of
// its own and reads what its last completed write left (version 0 before
// any), so it is linearizable from a preloaded store; otherwise the thread
// shares 8 keys with every other and reads random values.
func recordRun(rng *rand.Rand, l *ClientLog, n int, legal bool) {
	cur := map[uint64]uint32{}
	t := int64(rng.Intn(4))
	for i := 0; i < n; i++ {
		call := t + int64(rng.Intn(3))
		ret := call + 1 + int64(rng.Intn(3))
		key := uint64(rng.Intn(8))
		if legal {
			key += 8 * uint64(l.client+1)
		}
		switch r := rng.Intn(10); {
		case r < 4 && legal:
			l.Read(key, cur[key], true, call, ret)
		case r < 4:
			l.Read(key, uint32(rng.Intn(5)), r > 0, call, ret)
		case r < 9:
			cur[key] = uint32(rng.Intn(1 << 20))
			l.Write(key, cur[key], call, ret)
		default:
			l.FailedWrite(key, uint32(rng.Intn(1<<20)), call)
			ret = call + 1 + int64(rng.Intn(4))
		}
		t = ret
	}
}

// TestCheckLogsMatchesCheckKV checks the ops where they were recorded
// against CheckKV over the same ops in one history, on random per-client
// logs: lengths on and around chunk boundaries, nil and empty logs, equal
// Call times across clients, InfTime returns, legal and illegal histories,
// and malformed ones. The two must return the same Result, and neither may
// change the ops it read.
func TestCheckLogsMatchesCheckKV(t *testing.T) {
	// Lengths that end a chunk exactly, and one op either side of it.
	var lengths []int
	for end, size := logChunkMin, logChunkMin; end < 5*logChunkMax; end += size {
		lengths = append(lengths, end-1, end, end+1)
		size = min(2*size, logChunkMax)
	}
	rng := rand.New(rand.NewSource(7))
	var verdicts [3]int
	for trial := 0; trial < 120; trial++ {
		logs := make([]*ClientLog, 1+rng.Intn(20))
		legal := trial%4 != 0
		for i := range logs {
			switch {
			case rng.Intn(8) == 0:
				continue // nil log
			case rng.Intn(8) == 0:
				logs[i] = NewClientLog(i) // empty log
				continue
			}
			logs[i] = NewClientLog(i)
			n := rng.Intn(300)
			if rng.Intn(3) == 0 {
				n = lengths[rng.Intn(len(lengths))]
			}
			recordRun(rng, logs[i], n, legal)
		}
		if trial%10 == 9 && logs[0] != nil {
			// Two ops that return before they are called.
			logs[0].add(Op{Client: 0, Kind: Write, Key: 3, Call: 50, Return: 40})
			logs[0].add(Op{Client: 0, Kind: Read, Key: 2, Found: true, Call: 30, Return: 29})
		}
		h := logOps(logs...)
		given := slices.Clone(h)
		opt := Options{NodeBudget: 200_000, Minimize: len(h) < 2000}
		want := CheckKV(h, initPresent0, opt)
		got := CheckLogs(logs, initPresent0, opt)
		if err := sameResult(got, want); err != nil {
			t.Fatalf("trial %d, %d ops: CheckLogs vs CheckKV: %v", trial, len(h), err)
		}
		if !slices.Equal(h, given) {
			t.Fatalf("trial %d: CheckKV changed the history it was handed", trial)
		}
		if after := logOps(logs...); !slices.Equal(after, given) {
			t.Fatalf("trial %d: CheckLogs changed the logs it read", trial)
		}
		verdicts[got.Verdict]++
	}
	t.Logf("verdicts %v", verdicts)
	if verdicts[Linearizable] < 30 || verdicts[Illegal] < 10 || verdicts[Unknown] < 5 {
		t.Fatalf("verdict mix %v: generator too one-sided", verdicts)
	}
	for _, logs := range [][]*ClientLog{nil, {nil, NewClientLog(3), nil}} {
		if res := CheckLogs(logs, initPresent0, Options{}); res.Verdict != Linearizable || res.Ops != 0 || res.Partitions != 0 {
			t.Fatalf("CheckLogs of %d nil and empty logs: %+v", len(logs), res)
		}
	}
}

// TestClientLogBytesBounded is the recorder's heap floor: recording N ops
// allocates at most 48·N·(1+ε) bytes, ε = 1/8, in at most 2·log₂ N objects.
// A log that grew one slice by re-allocation would copy each op about four
// times and allocate about five times the bytes it keeps.
func TestClientLogBytesBounded(t *testing.T) {
	const n = 16 * logChunkMax
	var bytes uint64
	objects := testing.AllocsPerRun(1, func() {
		var m0, m1 runtime.MemStats
		l := NewClientLog(0)
		runtime.ReadMemStats(&m0)
		for i := int64(0); i < n; i++ {
			l.Write(uint64(i%64), uint32(i), 2*i, 2*i+1)
		}
		runtime.ReadMemStats(&m1)
		bytes = m1.TotalAlloc - m0.TotalAlloc
	})
	if limit := uint64(48 * n * 9 / 8); bytes > limit {
		t.Errorf("recording %d ops allocated %d B (%.1f per op), want <= %d", n, bytes, float64(bytes)/n, limit)
	}
	if limit := 2 * bits.Len(n); objects > float64(limit) {
		t.Errorf("recording %d ops made %.0f allocations, want <= %d", n, objects, limit)
	}
	t.Logf("%d ops: %d B in %.0f allocations", n, bytes, objects)
}

// isoLogs records bench's iso history of ops ops on keys keys as clients
// driver threads would, op i by thread i mod clients.
func isoLogs(ops, keys, clients int) []*ClientLog {
	logs := make([]*ClientLog, clients)
	for i := range logs {
		logs[i] = NewClientLog(i)
	}
	for i, o := range isoHistory(ops, keys) {
		o.Client = i % clients
		logs[o.Client].add(o)
	}
	return logs
}

// BenchmarkCheckLogs checks a history shaped like the replicated store's
// benchmark run (16 driver logs, 98k ops, 512 keys) where it was recorded;
// one iteration is one whole check.
func BenchmarkCheckLogs(b *testing.B) {
	logs := isoLogs(98_000, 512, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := CheckLogs(logs, initPresent0, Options{}); res.Verdict != Linearizable {
			b.Fatal(res.Verdict)
		}
	}
}
