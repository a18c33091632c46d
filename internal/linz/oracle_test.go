package linz

import (
	"math/rand"
	"slices"
	"testing"
)

// bruteLinearizable decides h by enumeration, independently of the WGL
// search: it tries every order of the ops that respects real time (a before
// b whenever a returned before b was called), replays a register per key,
// and lets writes that never returned (InfTime) drop out of the order. It
// does not partition by key, so it does not lean on the locality theorem
// either. Exponential: meant for histories of a handful of ops.
func bruteLinearizable(h History, init Init) bool {
	type reg struct {
		val     uint32
		present bool
	}
	regs := map[uint64]reg{}
	for _, o := range h {
		if init != nil {
			v, p := init(o.Key)
			regs[o.Key] = reg{v, p}
		} else {
			regs[o.Key] = reg{}
		}
	}
	placed := make([]bool, len(h))
	var search func() bool
	search = func() bool {
		done := true
		for i, o := range h {
			if !placed[i] && !(o.Kind == Write && o.Return >= InfTime) {
				done = false
			}
		}
		if done {
			return true // whatever is left is ambiguous writes, which drop out
		}
		for i, o := range h {
			if placed[i] {
				continue
			}
			blocked := false
			for j, p := range h {
				if !placed[j] && j != i && p.Return < o.Call {
					blocked = true // p must come before o
					break
				}
			}
			if blocked {
				continue
			}
			r := regs[o.Key]
			if o.Kind == Write {
				regs[o.Key] = reg{o.Arg, true}
			} else if o.Found != r.present || (o.Found && o.Out != r.val) {
				continue
			}
			placed[i] = true
			ok := search()
			placed[i] = false
			regs[o.Key] = r
			if ok {
				return true
			}
		}
		return false
	}
	return search()
}

// randomSmallHistory draws up to 7 ops over up to 2 keys: dense intervals,
// three write values, reads that hit one of four values or miss, and one
// write in four ambiguous.
func randomSmallHistory(rng *rand.Rand) History {
	h := make(History, 1+rng.Intn(7))
	keys := 1 + rng.Intn(2)
	for i := range h {
		call := int64(rng.Intn(20))
		o := Op{Client: i, Key: uint64(rng.Intn(keys)), Call: call, Return: call + int64(rng.Intn(10))}
		if rng.Intn(2) == 0 {
			o.Kind, o.Arg = Write, uint32(1+rng.Intn(3))
			if rng.Intn(4) == 0 {
				o.Return = InfTime
			}
		} else if rng.Intn(4) != 0 {
			o.Found, o.Out = true, uint32(rng.Intn(4))
		}
		h[i] = o
	}
	return h
}

// TestCheckKVMatchesBruteForce is the checker's exhaustive oracle: on 5,000
// seeded small histories, half starting absent and half preloaded, the WGL
// search (partitions, arena, configuration cache) and plain enumeration
// agree on every verdict, and every minimized counterexample is itself
// illegal by enumeration.
func TestCheckKVMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var verdicts [3]int
	for i := 0; i < 5000; i++ {
		h := randomSmallHistory(rng)
		init := Init(initAbsent)
		if i%2 == 1 {
			init = initPresent0
		}
		res := CheckKV(h, init, Options{Minimize: true})
		verdicts[res.Verdict]++
		if want := bruteLinearizable(h, init); (res.Verdict == Linearizable) != want || res.Verdict == Unknown {
			t.Fatalf("history %d: CheckKV says %v, enumeration says linearizable=%v\n%s", i, res.Verdict, want, h.Render())
		}
		if res.Verdict == Illegal && bruteLinearizable(res.Counterexample, init) {
			t.Fatalf("history %d: minimized counterexample is linearizable\n%s", i, res.Counterexample.Render())
		}
	}
	// The generator must exercise both outcomes, or agreement means little.
	if verdicts[Linearizable] < 1000 || verdicts[Illegal] < 1000 {
		t.Fatalf("verdict mix %v: generator too one-sided", verdicts)
	}
}

// isoHistory is the synthetic history of bench's linz.iso.check_ns_per_op:
// ops operations on keys keys by 8 clients, three overlapping at any
// instant, every read observing the latest write.
func isoHistory(ops, keys int) History {
	rng := rand.New(rand.NewSource(1))
	cur := make([]uint32, keys)
	h := make(History, ops)
	for i := range h {
		k := rng.Intn(keys)
		o := Op{Client: i % 8, Key: uint64(k), Call: int64(i), Return: int64(i + 3)}
		if rng.Float64() < 0.7 {
			o.Kind, o.Out, o.Found = Read, cur[k], true
		} else {
			cur[k] = uint32(i + 1)
			o.Kind, o.Arg = Write, cur[k]
		}
		h[i] = o
	}
	return h
}

// concurrentHistory is linearizable by construction and branches hard:
// each op takes effect at a random point inside an interval up to 2·spread
// wide, effects apply in point order, and one write in ten is ambiguous.
func concurrentHistory(seed int64, ops, keys, spread int) History {
	rng := rand.New(rand.NewSource(seed))
	h := make(History, ops)
	at := make([]int64, ops)
	for i := range h {
		call := int64(rng.Intn(ops * 2))
		at[i] = call + int64(rng.Intn(spread))
		h[i] = Op{Client: i, Key: uint64(rng.Intn(keys)), Call: call, Return: at[i] + int64(rng.Intn(spread))}
		if rng.Intn(3) == 0 {
			h[i].Kind, h[i].Arg = Write, uint32(1+rng.Intn(50))
			if rng.Intn(10) == 0 {
				h[i].Return = InfTime
			}
		}
	}
	order := make([]int, ops)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return int(at[a] - at[b]) })
	state := map[uint64]uint32{}
	for _, i := range order {
		if h[i].Kind == Write {
			state[h[i].Key] = h[i].Arg
		} else {
			h[i].Out, h[i].Found = state[h[i].Key], true
		}
	}
	return h
}

// TestSearchNodeCountsPinned pins (verdict, partitions, nodes) on two
// histories: bench's 100k-op iso history, where the search never
// backtracks, and a dense one where it mostly does (25 nodes per op). A
// change to entry order, a tie-break, the cache's membership or the budget
// accounting moves a count.
func TestSearchNodeCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		h          History
		partitions int
		nodes      int64
	}{
		{"iso-100k-512", isoHistory(100_000, 512), 512, 100_000},
		{"concurrent-400-3", concurrentHistory(7, 400, 3, 30), 3, 9950},
	} {
		res := CheckKV(tc.h, initPresent0, Options{})
		if res.Verdict != Linearizable || res.Partitions != tc.partitions || res.Nodes != tc.nodes {
			t.Errorf("%s: (%v, %d partitions, %d nodes), want (linearizable, %d, %d)",
				tc.name, res.Verdict, res.Partitions, res.Nodes, tc.partitions, tc.nodes)
		}
	}
}

// BenchmarkCheckKV checks bench's iso history (100k ops, 512 keys); one
// iteration is one whole check.
func BenchmarkCheckKV(b *testing.B) {
	h := isoHistory(100_000, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := CheckKV(h, initPresent0, Options{}); res.Verdict != Linearizable {
			b.Fatal(res.Verdict)
		}
	}
}
