// Package dist provides deterministic random variates used by the workload
// generator: fixed, uniform, Zipf-distributed and two-point-mixture
// integers. All variates draw from a caller-owned *rand.Rand so simulations
// stay reproducible.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// IntDist produces non-negative integers, e.g. key indices or value sizes.
type IntDist interface {
	Next(r *rand.Rand) int
	// Min and Max return the smallest and largest values the distribution
	// can produce.
	Min() int
	Max() int
}

// Fixed always yields the same value.
type Fixed int

// Next implements IntDist.
func (f Fixed) Next(*rand.Rand) int { return int(f) }

// Min implements IntDist.
func (f Fixed) Min() int { return int(f) }

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

// Min implements IntDist.
func (u Uniform) Min() int { return u.Lo }

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
// (0, 1). The zeta normalization is computed once per (theta, n) and
// shared by every later NewZipf of the same shape.
func NewZipf(theta float64, n int) *Zipf {
	if n <= 0 {
		panic("dist: Zipf needs n > 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("dist: Zipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, theta: theta, alpha: 1 / (1 - theta)}
	z.zetan, z.zeta2 = zetas(theta, n)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaMemo maps zipfShape to its zipfZetas. A sync.Map rather than a mutex:
// two racing first calls both compute the same bits, and either store wins.
var zetaMemo sync.Map

type zipfShape struct {
	theta float64
	n     int
}

type zipfZetas struct{ zetan, zeta2 float64 }

// zetas returns the normalization sums zeta(n, theta) and zeta(2, theta)
// (zeta(1, theta) when n is 1): n math.Pow calls the first time a shape
// is seen, a map read after that.
func zetas(theta float64, n int) (zetan, zeta2 float64) {
	if v, ok := zetaMemo.Load(zipfShape{theta, n}); ok {
		z := v.(zipfZetas)
		return z.zetan, z.zeta2
	}
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
		if i == 2 {
			zeta2 = zetan
		}
	}
	if n == 1 {
		zeta2 = zetan
	}
	zetaMemo.Store(zipfShape{theta, n}, zipfZetas{zetan, zeta2})
	return zetan, zeta2
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

// Min implements IntDist.
func (z *Zipf) Min() int { return 0 }

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

// Min implements IntDist.
func (m Mixture) Min() int { return min(m.A.Min(), m.B.Min()) }

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
