// Package dist provides deterministic random variates used by the workload
// generator: fixed, uniform, Zipf-distributed and two-point-mixture
// integers. All variates draw from a caller-owned *rand.Rand so simulations
// stay reproducible.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// IntDist produces non-negative integers, e.g. key indices or value sizes.
type IntDist interface {
	Next(r *rand.Rand) int
	// Max returns the largest value the distribution can produce.
	Max() int
}

// Fixed always yields the same value.
type Fixed int

// Next implements IntDist.
func (f Fixed) Next(*rand.Rand) int { return int(f) }

// Max implements IntDist.
func (f Fixed) Max() int { return int(f) }

func (f Fixed) String() string { return fmt.Sprintf("fixed(%d)", int(f)) }

// Uniform yields integers uniformly distributed in [Lo, Hi].
type Uniform struct {
	Lo, Hi int
}

// Next implements IntDist.
func (u Uniform) Next(r *rand.Rand) int {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + r.Intn(u.Hi-u.Lo+1)
}

// Max implements IntDist.
func (u Uniform) Max() int { return u.Hi }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%d,%d)", u.Lo, u.Hi) }

// Zipf yields integers in [0, N) with Zipfian popularity (rank 0 most
// popular): P(rank k) ∝ 1/(k+1)^theta. A theta of 0.99 matches YCSB's
// "zipfian" default and the paper's skewed workload; with n = 1M keys the
// most popular key is drawn ~1e5 times more often than the average key,
// exactly the ratio the paper quotes.
//
// This is the standard YCSB/Gray et al. generator — math/rand's Zipf cannot
// express theta < 1, which is the regime key-value skew lives in.
type Zipf struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	zeta2 float64
	eta   float64
}

// NewZipf builds a Zipf distribution over [0, n) with exponent theta in
// (0, 1). The zeta normalization is computed once at construction.
func NewZipf(theta float64, n int) *Zipf {
	if n <= 0 {
		panic("dist: Zipf needs n > 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("dist: Zipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, theta: theta, alpha: 1 / (1 - theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
		if i == 2 {
			z.zeta2 = z.zetan
		}
	}
	if n == 1 {
		z.zeta2 = z.zetan
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// Next implements IntDist, drawing from r.
func (z *Zipf) Next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		if z.n < 2 {
			return 0
		}
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Max implements IntDist.
func (z *Zipf) Max() int { return z.n - 1 }

func (z *Zipf) String() string { return fmt.Sprintf("zipf(n=%d)", z.n) }

// Mixture draws from A with probability PA, otherwise from B — e.g. a
// key-value population of mostly small values with an occasional large one.
type Mixture struct {
	A, B IntDist
	PA   float64
}

// Next implements IntDist.
func (m Mixture) Next(r *rand.Rand) int {
	if r.Float64() < m.PA {
		return m.A.Next(r)
	}
	return m.B.Next(r)
}

// Max implements IntDist.
func (m Mixture) Max() int {
	if m.A.Max() > m.B.Max() {
		return m.A.Max()
	}
	return m.B.Max()
}

func (m Mixture) String() string {
	return fmt.Sprintf("mix(%.2f*%v, %v)", m.PA, m.A, m.B)
}
