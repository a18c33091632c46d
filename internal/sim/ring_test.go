package sim

import (
	"math/rand"
	"testing"
)

// TestRingMatchesSliceModel drives a Ring and a plain slice (append at the
// tail, a head index that is never reclaimed) with the same random push/pop
// sequence and holds them equal at every step. The phases force the cases a
// circular buffer can get wrong: growth while the live run wraps the end of
// the array, pop to empty and reuse, and a long bounded steady state whose
// capacity must stay where the deepest fill put it.
func TestRingMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Ring[*int]
		var ref []*int // every element ever pushed; ref[popped:] is queued
		popped := 0
		queued := func() int { return len(ref) - popped }
		push := func() {
			v := new(int)
			*v = len(ref)
			r.Push(v)
			ref = append(ref, v)
		}
		pop := func() {
			got, want := r.Pop(), ref[popped]
			popped++
			if got != want {
				t.Fatalf("seed %d: Pop = %d, want %d", seed, *got, *want)
			}
		}
		check := func() {
			if r.Len() != queued() {
				t.Fatalf("seed %d: Len = %d, want %d", seed, r.Len(), queued())
			}
			if c := r.Cap(); c != 0 && (c < ringMinCap || c&(c-1) != 0 || c < r.Len()) {
				t.Fatalf("seed %d: Cap = %d with %d queued: want a power of two >= both %d and Len", seed, c, r.Len(), ringMinCap)
			}
			// Everything outside the live run is zeroed: no popped pointer
			// is pinned by the backing array.
			live := 0
			for _, v := range r.buf {
				if v != nil {
					live++
				}
			}
			if live != r.Len() {
				t.Fatalf("seed %d: %d non-zero slots for %d queued elements", seed, live, r.Len())
			}
		}
		// Random walk biased to fill, then to drain: grows several times,
		// with the head anywhere in the array when it does.
		for _, pushBias := range []float64{0.7, 0.3, 0.6, 0.2} {
			for i := 0; i < 400; i++ {
				if queued() == 0 || rng.Float64() < pushBias {
					push()
				} else {
					pop()
				}
				check()
			}
		}
		// Pop to empty, then reuse from wherever the head stopped.
		for queued() > 0 {
			pop()
		}
		check()
		capAfterFill := r.Cap()
		// Steady state at a depth the ring has already held, never empty:
		// laps the array many times and must not grow.
		depth := 1 + rng.Intn(capAfterFill)
		for queued() < depth {
			push()
		}
		for i := 0; i < 10*capAfterFill; i++ {
			pop()
			push()
			check()
		}
		if r.Cap() != capAfterFill {
			t.Fatalf("seed %d: steady state at depth %d grew the ring %d -> %d", seed, depth, capAfterFill, r.Cap())
		}
	}
}

// TestRingGrowsWhileWrapped pins the one copy that is easy to get wrong: a
// full ring whose live run wraps the end of the array is unwrapped in order.
func TestRingGrowsWhileWrapped(t *testing.T) {
	var r Ring[int]
	for i := 0; i < ringMinCap; i++ {
		r.Push(i)
	}
	r.Pop()
	r.Pop()
	r.Push(ringMinCap)
	r.Push(ringMinCap + 1) // full, head at 2: the run wraps
	if r.Cap() != ringMinCap || r.head != 2 {
		t.Fatalf("setup: cap %d head %d, want %d and 2", r.Cap(), r.head, ringMinCap)
	}
	r.Push(ringMinCap + 2) // grows
	if r.Cap() != 2*ringMinCap {
		t.Fatalf("Cap = %d after growth, want %d", r.Cap(), 2*ringMinCap)
	}
	for want := 2; r.Len() > 0; want++ {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop from an empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.Push(1)
	r.Pop()
	r.Pop()
}
