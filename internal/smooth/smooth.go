// Package smooth implements the differential-privacy release machinery FLEX
// layers on top of elastic sensitivity (Section 4 of the paper):
//
//   - smooth sensitivity (Nissim et al.): S = max_k e^{-βk}·Ŝ(k) with
//     β = ε / (2 ln(2/δ)),
//   - the Theorem 3 search cutoff k ≤ degree/β that makes the maximization
//     independent of the database size,
//   - a Laplace sampler and the FLEX mechanism of Definition 7
//     (release q(x) + Lap(2S/ε)), and
//   - privacy-budget accounting with sequential and strong composition
//     (Section 4.3).
package smooth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// PrivacyParams bundles (ε, δ).
type PrivacyParams struct {
	Epsilon float64
	Delta   float64
}

// Validate checks the parameters are usable for the smooth-sensitivity
// mechanism, which requires ε > 0 and 0 < δ < 1.
func (p PrivacyParams) Validate() error {
	if !(p.Epsilon > 0) {
		return fmt.Errorf("smooth: epsilon must be positive, got %g", p.Epsilon)
	}
	if !(p.Delta > 0) || p.Delta >= 1 {
		return fmt.Errorf("smooth: delta must be in (0,1), got %g", p.Delta)
	}
	return nil
}

// DeltaForSize returns the paper's experimental setting δ = n^(−ln n) for a
// database of n tuples (following Dwork and Lei), clamped into (0, 1).
func DeltaForSize(n int) float64 {
	if n < 3 {
		return 1e-9
	}
	ln := math.Log(float64(n))
	d := math.Pow(float64(n), -ln)
	if d <= 0 {
		return math.SmallestNonzeroFloat64
	}
	if d >= 1 {
		return 0.999
	}
	return d
}

// Beta returns the smoothing parameter β = ε / (2 ln(2/δ)) of Definition 7.
func Beta(p PrivacyParams) float64 {
	return p.Epsilon / (2 * math.Log(2/p.Delta))
}

// SensitivityFn gives the elastic sensitivity Ŝ^(k) at distance k.
type SensitivityFn func(k int) (float64, error)

// Smoothed is the result of the smooth-sensitivity maximization.
type Smoothed struct {
	S    float64 // max_k e^{-βk}·Ŝ(k)
	ArgK int     // distance attaining the max
	Beta float64
}

// NoiseScale returns the Laplace scale 2S/ε of Definition 7 step 3.
func (s Smoothed) NoiseScale(epsilon float64) float64 {
	return 2 * s.S / epsilon
}

// Smooth computes S = max_{k=0..maxK} e^{-βk}·Ŝ(k) (Definition 7 step 2).
// maxK should be the database size n; use SmoothWithCutoff to exploit
// Theorem 3.
func Smooth(fn SensitivityFn, maxK int, p PrivacyParams) (Smoothed, error) {
	if err := p.Validate(); err != nil {
		return Smoothed{}, err
	}
	beta := Beta(p)
	best := math.Inf(-1)
	argK := 0
	for k := 0; k <= maxK; k++ {
		s, err := fn(k)
		if err != nil {
			return Smoothed{}, err
		}
		if s < 0 {
			return Smoothed{}, fmt.Errorf("smooth: negative sensitivity %g at k=%d", s, k)
		}
		v := math.Exp(-beta*float64(k)) * s
		if v > best {
			best = v
			argK = k
		}
	}
	if math.IsInf(best, -1) {
		return Smoothed{}, errors.New("smooth: empty search range")
	}
	return Smoothed{S: best, ArgK: argK, Beta: beta}, nil
}

// CutoffK returns the Theorem 3 search bound: for Ŝ(k) a polynomial of
// degree at most λ with non-negative coefficients, e^{-βk}·Ŝ(k) is
// non-increasing beyond k = λ/β, so the max over k = 0..n is attained by
// k ≤ ceil(λ/β). The result is additionally capped at n.
func CutoffK(degree int, beta float64, n int) int {
	if degree <= 0 {
		return 0
	}
	c := int(math.Ceil(float64(degree) / beta))
	if c > n {
		return n
	}
	return c
}

// SmoothWithCutoff computes the Definition 7 maximum using the Theorem 3
// cutoff derived from the sensitivity polynomial degree. n is the database
// size; degree is an upper bound on the degree of Ŝ(k) in k (the paper uses
// j(q)²; any sound bound works).
func SmoothWithCutoff(fn SensitivityFn, degree, n int, p PrivacyParams) (Smoothed, error) {
	if err := p.Validate(); err != nil {
		return Smoothed{}, err
	}
	maxK := CutoffK(degree, Beta(p), n)
	return Smooth(fn, maxK, p)
}

// Laplace draws one sample from the Laplace distribution with mean 0 and the
// given scale, via inverse-CDF sampling on the provided source.
func Laplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	// u uniform in (-1/2, 1/2]; avoid u == -1/2 exactly.
	u := rng.Float64() - 0.5
	for u == -0.5 {
		u = rng.Float64() - 0.5
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// Mechanism is the FLEX release mechanism of Definition 7. It is safe for
// concurrent use.
type Mechanism struct {
	seed int64
	mu   sync.Mutex
	rng  *rand.Rand
}

// NewMechanism returns a mechanism seeded for reproducible experiments. A
// deployment would seed from crypto/rand; the experiments need determinism.
func NewMechanism(seed int64) *Mechanism {
	return &Mechanism{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// splitmix64 is the SplitMix64 finalizer, used to derive well-separated
// child seeds from (root seed, call id) pairs. Consecutive call ids map to
// statistically independent streams, which a bare seed+id sum would not.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampler is a single-call Laplace noise source forked off a Mechanism. It
// holds a private RNG, so drawing noise takes no lock; callers that want
// concurrency fork one Sampler per query answer. A Sampler must not be
// shared across goroutines.
type Sampler struct {
	rng *rand.Rand
}

// Fork derives the sampler for call number `call`, deterministically from
// the mechanism's root seed. The (seed, call) → stream mapping is fixed, so
// sequential callers get reproducible noise regardless of how many
// goroutines answer other calls in between. The derivation chains the mixes
// — sm(sm(seed) + call), not sm(seed) XOR sm(call) — so that (seed a, call
// b) and (seed b, call a) do not collapse to the same stream across
// mechanisms with different seeds.
func (m *Mechanism) Fork(call uint64) *Sampler {
	child := splitmix64(splitmix64(uint64(m.seed)) + call)
	return &Sampler{rng: rand.New(rand.NewSource(int64(child)))}
}

// Release perturbs a true answer with Laplace noise scaled to 2S/ε
// (Definition 7 step 3) from the sampler's private stream.
func (s *Sampler) Release(trueAnswer float64, sm Smoothed, epsilon float64) float64 {
	return trueAnswer + Laplace(s.rng, sm.NoiseScale(epsilon))
}

// Release perturbs a true answer with Laplace noise scaled to 2S/ε
// (Definition 7 step 3).
func (m *Mechanism) Release(trueAnswer float64, s Smoothed, epsilon float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return trueAnswer + Laplace(m.rng, s.NoiseScale(epsilon))
}

// ReleaseVec perturbs a vector of true answers, each with its own smooth
// bound, under a common ε.
func (m *Mechanism) ReleaseVec(trueAnswers []float64, bounds []Smoothed, epsilon float64) ([]float64, error) {
	if len(trueAnswers) != len(bounds) {
		return nil, fmt.Errorf("smooth: %d answers but %d bounds", len(trueAnswers), len(bounds))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, len(trueAnswers))
	for i, t := range trueAnswers {
		out[i] = t + Laplace(m.rng, bounds[i].NoiseScale(epsilon))
	}
	return out, nil
}
