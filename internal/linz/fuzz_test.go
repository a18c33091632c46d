package linz

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// decodeHistory maps arbitrary fuzz bytes onto a bounded history: up to 16
// ops over 2 keys, 4-bit values, 6-bit times. Small domains force dense
// overlap, which is where the search actually branches. The top bit of an
// op's fourth byte turns its duration negative, a malformed interval the
// checker must reject rather than search.
func decodeHistory(data []byte) History {
	var h History
	for i := 0; i+4 <= len(data) && len(h) < 16; i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		call := int64(b2 & 63)
		ret := call + int64(b3&63)
		if b3&128 != 0 {
			ret = call - int64(b3&63)
		}
		op := Op{
			Client: len(h),
			Key:    uint64(b0 & 1),
			Call:   call,
			Return: ret,
		}
		if b0&2 != 0 {
			op.Kind = Write
			op.Arg = uint32(b1 & 15)
			if b3&64 != 0 {
				op.Return = InfTime // ambiguous write
			}
		} else {
			op.Kind = Read
			op.Found = b0&4 != 0
			op.Out = uint32(b1 & 15)
		}
		h = append(h, op)
	}
	return h
}

// hasWriteSkew reports the provably-non-linearizable pattern: on one key,
// a write Wa(v1) strictly before a write Wb(v2≠v1), strictly before a read
// that observed v1, where Wa is the only writer of v1 on that key and keys
// start absent (so the read cannot be explained by the initial state).
// Whatever else the history contains, no legal order exists: the read must
// follow Wb in real time, v1 can only re-enter the register via Wa, and Wa
// must precede Wb.
func hasWriteSkew(h History) bool {
	for _, r := range h {
		if r.Kind != Read || !r.Found {
			continue
		}
		writers := 0
		for _, w := range h {
			if w.Kind == Write && w.Key == r.Key && w.Arg == r.Out {
				writers++
			}
		}
		if writers != 1 {
			continue
		}
		for _, wa := range h {
			if wa.Kind != Write || wa.Key != r.Key || wa.Arg != r.Out {
				continue
			}
			for _, wb := range h {
				if wb.Kind != Write || wb.Key != r.Key || wb.Arg == r.Out {
					continue
				}
				if wa.Return < wb.Call && wb.Return < r.Call {
					return true
				}
			}
		}
	}
	return false
}

// badInterval reports whether some op returns before it is called.
func badInterval(h History) bool {
	for _, o := range h {
		if o.Return < o.Call {
			return true
		}
	}
	return false
}

// checkShuffled runs CheckKV on h and on a shuffled copy of h and returns
// h's result, with an error naming the first way the two results differ —
// verdict, Ops, Partitions, Nodes, BadKey, the error's text or the rendered
// counterexample — or a call that left its history other than a
// permutation of what it was given.
func checkShuffled(h History, init Init, opt Options, rng *rand.Rand) (Result, error) {
	given := slices.Clone(h)
	given.Sort()
	shuffled := slices.Clone(h)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a := CheckKV(h, init, opt)
	b := CheckKV(shuffled, init, opt)
	for _, after := range []History{h, shuffled} {
		got := slices.Clone(after)
		got.Sort()
		if !slices.Equal(got, given) {
			return a, fmt.Errorf("CheckKV left a history of %d ops that is not a permutation of the %d it was given", len(after), len(given))
		}
	}
	switch {
	case a.Verdict != b.Verdict || a.Ops != b.Ops || a.Partitions != b.Partitions || a.Nodes != b.Nodes || a.BadKey != b.BadKey:
		return a, fmt.Errorf("shuffled input: (%v, %d ops, %d partitions, %d nodes, key %d), in order: (%v, %d, %d, %d, %d)",
			b.Verdict, b.Ops, b.Partitions, b.Nodes, b.BadKey, a.Verdict, a.Ops, a.Partitions, a.Nodes, a.BadKey)
	case fmt.Sprint(a.Err) != fmt.Sprint(b.Err):
		return a, fmt.Errorf("shuffled input: error %v, in order: %v", b.Err, a.Err)
	case a.Counterexample.Render() != b.Counterexample.Render():
		return a, fmt.Errorf("shuffled input: counterexample\n%sin order:\n%s", b.Counterexample.Render(), a.Counterexample.Render())
	}
	return a, nil
}

// FuzzHistoryCheck feeds arbitrary interleaved invoke/return records to the
// checker: it must never panic, must be deterministic (same verdict and
// node count on a re-run), must not depend on the order of the ops (the
// same Result on a shuffled copy, each history left a permutation of its
// input), must reject a malformed interval with ErrBadInterval, must never
// certify a history containing a write-skew pair, and on up to 7 ops must
// agree with exhaustive enumeration.
func FuzzHistoryCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 10, 2, 2, 20, 10, 4, 1, 40, 10}) // the skew core
	f.Add([]byte{2, 1, 0, 63, 4, 1, 50, 5})                // ambiguous write observed
	f.Add([]byte{0, 0, 0, 5, 2, 3, 1, 60, 4, 3, 10, 50})   // miss + overlapping write
	f.Add(bytes.Repeat([]byte{2, 7, 0, 63}, 16))           // 16 concurrent writes
	f.Add([]byte{6, 9, 0, 1, 2, 9, 10, 1, 3, 4, 20, 1, 7, 4, 30, 1})
	f.Add([]byte{2, 1, 10, 5 | 128, 4, 1, 20, 5}) // a write returning before its call
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHistory(data)
		// A modest budget keeps adversarial all-concurrent inputs fast (the
		// oracle below accepts Unknown); minimization only triggers on
		// Illegal, where the violation bounds the search.
		opt := Options{NodeBudget: 20_000, Minimize: true}
		res, err := checkShuffled(h, nil, opt, rand.New(rand.NewSource(int64(len(data)))))
		if err != nil {
			t.Fatalf("%v\n%s", err, h.Render())
		}
		again := CheckKV(h, nil, opt)
		if res.Verdict != again.Verdict || res.Nodes != again.Nodes {
			t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)\n%s",
				res.Verdict, res.Nodes, again.Verdict, again.Nodes, h.Render())
		}
		if bad := badInterval(h); bad != errors.Is(res.Err, ErrBadInterval) || bad && res.Verdict != Unknown {
			t.Fatalf("malformed=%v but verdict %v, err %v:\n%s", bad, res.Verdict, res.Err, h.Render())
		}
		if res.Err != nil {
			return
		}
		if hasWriteSkew(h) && res.Verdict == Linearizable {
			t.Fatalf("certified a write-skew history:\n%s", h.Render())
		}
		if len(h) <= 7 && res.Verdict != Unknown && (res.Verdict == Linearizable) != bruteLinearizable(h, nil) {
			t.Fatalf("verdict %v disagrees with enumeration:\n%s", res.Verdict, h.Render())
		}
		if res.Verdict == Illegal {
			if len(res.Counterexample) == 0 {
				t.Fatalf("illegal verdict without counterexample:\n%s", h.Render())
			}
			// The counterexample must itself be illegal — minimization may
			// not over-shrink past the violation.
			sub := CheckKV(res.Counterexample, nil, Options{NodeBudget: 20_000})
			if sub.Verdict == Linearizable {
				t.Fatalf("counterexample is linearizable:\n%s", res.Counterexample.Render())
			}
		}
	})
}
