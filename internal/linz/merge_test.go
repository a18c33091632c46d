package linz

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// mergeRef is the reference Merge: the ops each log was given, appended
// log after log, then the whole history sorted.
func mergeRef(given []History) History {
	h := History{}
	for _, ops := range given {
		h = append(h, ops...)
	}
	h.Sort()
	return h
}

// recordRun appends n ops to l as one thread issues them and returns them in
// the order given: each op takes time and is called at or after the
// previous one's return (after a failed write, after the instant its error
// came back), over a coarse clock so that ops of different clients often
// share a Call time. Some reads miss and some writes fail with an InfTime
// return.
func recordRun(rng *rand.Rand, l *ClientLog, n int) History {
	var ops History
	t := int64(rng.Intn(4))
	for i := 0; i < n; i++ {
		call := t + int64(rng.Intn(3))
		ret := call + 1 + int64(rng.Intn(3))
		key := uint64(rng.Intn(8))
		o := Op{Client: l.client, Key: key, Call: call, Return: ret}
		switch r := rng.Intn(10); {
		case r < 4:
			o.Kind, o.Out, o.Found = Read, uint32(rng.Intn(5)), r > 0
			l.Read(key, o.Out, o.Found, call, ret)
		case r < 9:
			o.Kind, o.Arg = Write, uint32(rng.Intn(1<<20))
			l.Write(key, o.Arg, call, ret)
		default:
			o.Kind, o.Arg, o.Return = Write, uint32(rng.Intn(1<<20)), InfTime
			l.FailedWrite(key, o.Arg, call)
			ret = call + 1 + int64(rng.Intn(4))
		}
		ops = append(ops, o)
		t = ret
	}
	return ops
}

// TestMergeMatchesSort checks that Merge returns each recorded op exactly
// once, on random per-client logs: logs in order with lengths on and around
// chunk boundaries, logs out of order, equal Call times across clients,
// InfTime returns, and empty and nil logs. Merge promises no order, so its
// history, sorted, must equal append-then-Sort of the ops each log was
// given, element for element.
func TestMergeMatchesSort(t *testing.T) {
	// Lengths that end a chunk exactly, and one op either side of it.
	var lengths []int
	for end, size := logChunkMin, logChunkMin; end < 5*logChunkMax; end += size {
		lengths = append(lengths, end-1, end, end+1)
		size = min(2*size, logChunkMax)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(20)
		logs := make([]*ClientLog, k)
		given := make([]History, k)
		shuffled := -1
		if trial%3 == 1 {
			shuffled = rng.Intn(k)
		}
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
			if i == shuffled {
				// A valid run, appended in a shuffled order.
				ops := recordRun(rng, NewClientLog(i), n+2)
				for slices.IsSortedFunc(ops, opCmp) {
					rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
				}
				for _, o := range ops {
					logs[i].add(o)
				}
				given[i] = ops
				continue
			}
			given[i] = recordRun(rng, logs[i], n)
		}
		got, want := Merge(logs...), mergeRef(given)
		got.Sort()
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d ops, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: op %d is %s, want %s", trial, i, got[i], want[i])
			}
		}
	}
	if h := Merge(); h == nil || len(h) != 0 {
		t.Fatalf("Merge() = %v, want an empty history", h)
	}
	if h := Merge(nil, NewClientLog(3), nil); h == nil || len(h) != 0 {
		t.Fatalf("Merge of nil and empty logs = %v, want an empty history", h)
	}
}

// TestClientLogBytesBounded is the recorder's heap floor: recording N ops
// allocates at most 56·N·(1+ε) bytes, ε = 1/8, in at most 2·log₂ N objects.
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
	if limit := uint64(56 * n * 9 / 8); bytes > limit {
		t.Errorf("recording %d ops allocated %d B (%.1f per op), want <= %d", n, bytes, float64(bytes)/n, limit)
	}
	if limit := 2 * bits.Len(n); objects > float64(limit) {
		t.Errorf("recording %d ops made %.0f allocations, want <= %d", n, objects, limit)
	}
	t.Logf("%d ops: %d B in %.0f allocations", n, bytes, objects)
}
