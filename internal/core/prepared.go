package core

import (
	"sync"

	"flexdp/internal/relalg"
)

// SensitivityCache memoizes the per-distance elastic sensitivity vectors
// Ŝ^(k) of one analyzed query. The smooth-sensitivity maximization evaluates
// Ŝ(k) for every k up to the Theorem 3 cutoff, once per output column, and
// each evaluation walks the full relation tree (Figure 1's recursive
// definitions) even though the walk already produces all outputs at once.
// Caching the walk result per k collapses that to one tree walk per distance
// for the lifetime of a prepared query, shared across output columns,
// (ε, δ) settings, and goroutines.
//
// Cached values are exactly the Analyzer.SensitivityAt results — not a
// polynomial upper bound — so a prepared query's bounds are bit-identical to
// the unprepared path. The cache is valid as long as the underlying metrics
// store contents are unchanged; FLEX rebuilds it whenever the database
// version moves.
//
// Its only remaining caller is bench/e2e/trace.go; flex.Prepared calls
// Analyzer.SensitivityAt directly.
type SensitivityCache struct {
	an *Analyzer
	q  *relalg.Query

	mu  sync.RWMutex
	byK map[int][]float64
}

// NewSensitivityCache returns an empty cache for the query against the
// analyzer's metrics.
func NewSensitivityCache(an *Analyzer, q *relalg.Query) *SensitivityCache {
	return &SensitivityCache{an: an, q: q, byK: make(map[int][]float64)}
}

// At returns the per-output elastic sensitivities at distance k, computing
// and memoizing them on first use. The returned slice is shared; callers
// must not modify it. Safe for concurrent use.
func (c *SensitivityCache) At(k int) ([]float64, error) {
	c.mu.RLock()
	ss, ok := c.byK[k]
	c.mu.RUnlock()
	if ok {
		return ss, nil
	}
	ss, err := c.an.SensitivityAt(c.q, k)
	if err != nil {
		// Errors are not memoized: they signal missing metrics, which a
		// metrics refresh can repair without rebuilding the cache.
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.byK[k]; ok {
		ss = prev // keep the first stored vector so callers share one slice
	} else {
		c.byK[k] = ss
	}
	c.mu.Unlock()
	return ss, nil
}

// Analyzer returns the analyzer the cache evaluates against.
func (c *SensitivityCache) Analyzer() *Analyzer { return c.an }

// Len reports how many distances have been memoized (for tests).
func (c *SensitivityCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byK)
}
