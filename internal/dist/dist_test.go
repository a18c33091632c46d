package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := Fixed(32)
	for i := 0; i < 10; i++ {
		if f.Next(r) != 32 {
			t.Fatal("Fixed not fixed")
		}
	}
	if f.Max() != 32 {
		t.Fatal("Max")
	}
}

func TestUniformRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	u := Uniform{Lo: 32, Hi: 8192}
	seenLow, seenHigh := false, false
	for i := 0; i < 20000; i++ {
		v := u.Next(r)
		if v < 32 || v > 8192 {
			t.Fatalf("out of range: %d", v)
		}
		if v < 1000 {
			seenLow = true
		}
		if v > 7000 {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Fatal("uniform draws not spread across range")
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	u := Uniform{Lo: 5, Hi: 5}
	if u.Next(r) != 5 {
		t.Fatal("degenerate uniform")
	}
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	z := NewZipf(0.99, 1_000_000)
	// Analytically, theta=0.99 over 1M keys puts ~20% of all draws on the
	// top 10 ranks (zeta(10)/zeta(1e6)).
	hits := 0
	for i := 0; i < 50000; i++ {
		if z.Next(r) < 10 {
			hits++
		}
	}
	mass := float64(hits) / 50000
	if mass < 0.15 || mass > 0.27 {
		t.Fatalf("top-10 mass = %.3f; want ~0.20", mass)
	}
	if z.Max() != 999_999 {
		t.Fatal("Max")
	}
}

func TestZipfHeadToAverageRatio(t *testing.T) {
	// The paper: "the most popular key is about 1e5 times more often than
	// the average key" for Zipf(.99) over its key space.
	r := rand.New(rand.NewSource(5))
	z := NewZipf(0.99, 1_000_000)
	const draws = 400000
	head := 0
	for i := 0; i < draws; i++ {
		if z.Next(r) == 0 {
			head++
		}
	}
	avg := 1.0 / 1_000_000
	ratio := float64(head) / draws / avg
	if ratio < 3e4 || ratio > 3e5 {
		t.Fatalf("head/average = %.0f, want ~1e5", ratio)
	}
}

func TestZipfRankOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	z := NewZipf(0.99, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Next(r)]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[500]) {
		t.Fatalf("popularity not rank-ordered: c0=%d c10=%d c500=%d",
			counts[0], counts[10], counts[500])
	}
}

func TestZipfPanicsOnBadTheta(t *testing.T) {
	for _, theta := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("theta=%v: no panic", theta)
				}
			}()
			NewZipf(theta, 10)
		}()
	}
}

func TestZipfRange(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	z := NewZipf(0.99, 100)
	for i := 0; i < 10000; i++ {
		v := z.Next(r)
		if v < 0 || v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		}
	}
}

func TestZipfDeterminism(t *testing.T) {
	draw := func() []int {
		r := rand.New(rand.NewSource(9))
		z := NewZipf(0.99, 1000)
		out := make([]int, 50)
		for i := range out {
			out[i] = z.Next(r)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("zipf draws not deterministic for fixed seed")
		}
	}
}

// TestZipfMemoized: NewZipf shares one normalization per (theta, n), and
// whoever computes it first — here, racing parallel subtests on a shape no
// other test uses — every caller gets the struct a fresh summation gives.
func TestZipfMemoized(t *testing.T) {
	const theta, n = 0.63, 4321
	want := Zipf{n: n, theta: theta, alpha: 1 / (1 - theta)}
	for i := 1; i <= n; i++ {
		want.zetan += 1 / math.Pow(float64(i), theta)
		if i == 2 {
			want.zeta2 = want.zetan
		}
	}
	want.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - want.zeta2/want.zetan)
	t.Run("group", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				if a, b := NewZipf(theta, n), NewZipf(theta, n); *a != want || *b != want {
					t.Fatalf("NewZipf = %+v then %+v, want %+v", *a, *b, want)
				}
			})
		}
	})
}

// Property: uniform draws always stay within bounds for arbitrary ranges.
func TestUniformBoundsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(lo uint16, span uint16) bool {
		u := Uniform{Lo: int(lo), Hi: int(lo) + int(span)}
		for i := 0; i < 50; i++ {
			v := u.Next(r)
			if v < u.Lo || v > u.Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixture(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	m := Mixture{A: Fixed(32), B: Fixed(2048), PA: 0.9}
	small := 0
	for i := 0; i < 10000; i++ {
		v := m.Next(r)
		if v == 32 {
			small++
		} else if v != 2048 {
			t.Fatalf("unexpected draw %d", v)
		}
	}
	if small < 8800 || small > 9200 {
		t.Fatalf("small fraction %d/10000, want ~9000", small)
	}
	if m.Max() != 2048 {
		t.Fatal("Max")
	}
}

// Min is a lower bound every draw respects, and some draw reaches it.
func TestMinBoundsDraws(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, d := range []IntDist{
		Fixed(32),
		Uniform{Lo: 16, Hi: 128},
		NewZipf(0.99, 1000),
		Mixture{A: Fixed(32), B: Uniform{Lo: 8, Hi: 2048}, PA: 0.5},
	} {
		lo := d.Max() + 1
		for i := 0; i < 20000; i++ {
			lo = min(lo, d.Next(r))
		}
		if lo != d.Min() {
			t.Errorf("%v: smallest of 20000 draws %d, Min %d", d, lo, d.Min())
		}
	}
}
