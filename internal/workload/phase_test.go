package workload

// Phase-boundary generator reuse: a long-lived per-thread generator that is
// Reset (or Reseed) at a phase boundary must produce exactly the stream a
// fresh generator would — no PRNG state may leak across the boundary,
// regardless of how far the previous phase got. Plus the KeyOffset rotation
// and RampOffset stagger the scenario harness phases are built on.

import (
	"testing"

	"rfp/internal/dist"
)

func drawN(g *Generator, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestResetMatchesFreshGenerator(t *testing.T) {
	cfgA := Config{Keys: 512, GetFraction: 0.7, ZipfTheta: 0.99, ValueSize: dist.Uniform{Lo: 8, Hi: 64}}
	cfgB := Config{Keys: 512, GetFraction: 0.3, RMWFraction: 0.2}

	// Drain different amounts from the first phase: the second phase's
	// stream must be identical no matter how far phase one ran.
	var streams [][]Op
	for _, drain := range []int{0, 1, 17, 1000} {
		g := NewGenerator(cfgA, 11)
		drawN(g, drain)
		g.Reset(cfgB, 99)
		streams = append(streams, drawN(g, 200))
	}
	fresh := drawN(NewGenerator(cfgB, 99), 200)
	for i, s := range streams {
		if !sameOps(s, fresh) {
			t.Fatalf("stream after Reset (drain case %d) diverges from a fresh generator", i)
		}
	}
}

// TestForkMatchesFreshGenerator: a forked generator, and one Reset into a
// phase over the same (Keys, ZipfTheta), draw exactly what a fresh generator
// would while sharing — keeping — the key distribution; a phase over another
// key space or skew builds its own.
func TestForkMatchesFreshGenerator(t *testing.T) {
	cfg := Config{Keys: 4096, GetFraction: 0.7, RMWFraction: 0.1, ZipfTheta: 0.99, ValueSize: dist.Uniform{Lo: 8, Hi: 64}}
	base := NewGenerator(cfg, 3)
	drawN(base, 100) // a fork takes nothing from the parent's source
	for _, seed := range []int64{0, 3, 1001} {
		fork := base.Fork(seed)
		if fork.keys != base.keys {
			t.Fatalf("fork built its own key distribution")
		}
		if !sameOps(drawN(fork, 10_000), drawN(NewGenerator(cfg, seed), 10_000)) {
			t.Fatalf("forked stream (seed %d) diverges from a fresh generator's", seed)
		}
	}
	uni := Config{Keys: 4096}
	if f, fresh := NewGenerator(uni, 1).Fork(9), NewGenerator(uni, 9); !sameOps(drawN(f, 10_000), drawN(fresh, 10_000)) {
		t.Fatalf("forked uniform stream diverges from a fresh generator's")
	}

	g := base.Fork(5)
	next := cfg
	next.GetFraction, next.KeyOffset = 0.2, 77
	g.Reset(next, 6)
	if g.keys != base.keys {
		t.Fatalf("Reset rebuilt the key distribution although Keys and ZipfTheta are unchanged")
	}
	if !sameOps(drawN(g, 10_000), drawN(NewGenerator(next, 6), 10_000)) {
		t.Fatalf("stream after a distribution-keeping Reset diverges from a fresh generator's")
	}
	for _, other := range []Config{{Keys: 2048, ZipfTheta: 0.99}, {Keys: 4096, ZipfTheta: 0.5}, {Keys: 4096}} {
		g := base.Fork(5)
		g.Reset(other, 8)
		if g.keys == base.keys {
			t.Fatalf("Reset to %+v kept the old key distribution", other)
		}
		if !sameOps(drawN(g, 1000), drawN(NewGenerator(other, 8), 1000)) {
			t.Fatalf("stream after Reset to %+v diverges from a fresh generator's", other)
		}
	}
}

// KeyOffset must rotate the drawn key sequence exactly (k+off mod Keys)
// without disturbing any other draw (op mix, value sizes).
func TestKeyOffsetRotates(t *testing.T) {
	const keys, off = 1024, 300
	base := Config{Keys: keys, GetFraction: 0.6, ZipfTheta: 0.99}
	shifted := base
	shifted.KeyOffset = off
	a := drawN(NewGenerator(base, 7), 2000)
	b := drawN(NewGenerator(shifted, 7), 2000)
	for i := range a {
		if b[i].Key != (a[i].Key+off)%keys {
			t.Fatalf("op %d: key %d, want %d rotated by %d", i, b[i].Key, a[i].Key, off)
		}
		if b[i].Kind != a[i].Kind || b[i].ValueSize != a[i].ValueSize {
			t.Fatalf("op %d: KeyOffset disturbed non-key draws: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, op := range b {
		if op.Key >= keys {
			t.Fatalf("rotated key %d out of range [0,%d)", op.Key, keys)
		}
	}
}

func TestRampOffset(t *testing.T) {
	const threads, ramp = 8, 160_000
	if got := RampOffset(0, threads, ramp); got != 0 {
		t.Fatalf("thread 0 offset = %d, want 0", got)
	}
	prev := int64(-1)
	for i := 0; i < threads; i++ {
		off := RampOffset(i, threads, ramp)
		if off < 0 || off >= ramp {
			t.Fatalf("thread %d offset %d outside [0,%d)", i, off, ramp)
		}
		if off <= prev && i > 0 && off != prev {
			t.Fatalf("offsets not monotone: thread %d got %d after %d", i, off, prev)
		}
		if off < prev {
			t.Fatalf("offsets decreased at thread %d", i)
		}
		prev = off
	}
	if got := RampOffset(3, threads, ramp); got != ramp*3/threads {
		t.Fatalf("thread 3 offset = %d, want %d", got, ramp*3/threads)
	}
	// Degenerate inputs never stagger.
	for _, got := range []int64{RampOffset(5, 1, ramp), RampOffset(5, threads, 0), RampOffset(-1, threads, ramp)} {
		if got != 0 {
			t.Fatalf("degenerate RampOffset = %d, want 0", got)
		}
	}
}
