// Package flex is an end-to-end differential-privacy system for SQL queries
// based on elastic sensitivity, reproducing the FLEX system of Johnson,
// Near and Song, "Towards Practical Differential Privacy for SQL Queries"
// (VLDB 2018).
//
// The pipeline follows the paper's Figure 2: a SQL query is statically
// analyzed to compute its elastic sensitivity (an upper bound on local
// sensitivity supporting arbitrary equijoins), the bound is smoothed with
// smooth sensitivity, the query executes unchanged on the database, and
// Laplace noise scaled to 2S/ε perturbs each aggregated output. No database
// modification is required and the only interaction with the data outside
// query execution is a one-time metrics collection.
//
// Minimal usage:
//
//	db := flex.NewDatabase()
//	... create tables, insert data ...
//	sys := flex.NewSystem(db, flex.Options{Seed: 1})
//	sys.CollectMetrics()
//	res, err := sys.Run("SELECT COUNT(*) FROM trips", 0.1, 1e-8)
//
// For repeated queries — the dominant workload of a deployed DP proxy —
// prepare once and run many times. Prepare performs the parse, the
// relational-algebra lowering, the elastic-sensitivity analysis, and the
// engine plan compilation a single time; each Run only evaluates the smooth
// bound (memoized per (ε, δ)), executes the cached plan, and draws fresh
// noise:
//
//	prep, err := sys.Prepare("SELECT COUNT(*) FROM trips WHERE city_id = 1")
//	res1, err := prep.Run(0.1, 1e-8)
//	res2, err := prep.Run(0.5, 1e-8)
//
// A System and its Prepared queries are safe for concurrent use: metrics
// refreshes swap under a lock, and every answered query draws noise from a
// private sampler forked deterministically from the root seed and a call
// counter, so sequential runs stay reproducible for a fixed seed.
package flex

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexdp/internal/core"
	"flexdp/internal/metrics"
	"flexdp/internal/relalg"
	"flexdp/internal/smooth"
	"flexdp/internal/spill"
)

// NoiseMode selects how the Laplace scale is derived from elastic
// sensitivity.
type NoiseMode int

const (
	// ModeSmooth is the paper's Definition 7: S = max_k e^{−βk}·Ŝ^(k),
	// noise Lap(2S/ε), proven (ε, δ)-differentially private. This is the
	// default and the only mode with an end-to-end privacy proof.
	ModeSmooth NoiseMode = iota
	// ModeLocalK0 scales noise to the elastic sensitivity at distance 0,
	// Lap(2·Ŝ(0)/ε). The paper's published utility numbers (Figure 4,
	// Figure 5, Table 5) are numerically consistent with this scaling —
	// full Definition 7 smoothing at δ = n^(−ln n) imposes a noise floor of
	// 2/(eβε) on every join query, far above the errors the paper reports —
	// so the evaluation experiments use this mode to reproduce the paper's
	// utility shape. Ŝ(0) upper-bounds local sensitivity (Theorem 1) but
	// Laplace noise scaled to an unsmoothed local bound does not by itself
	// satisfy (ε, δ)-DP; see EXPERIMENTS.md.
	ModeLocalK0
)

// Options configures a System.
type Options struct {
	// Seed drives the Laplace sampler for reproducible experiments.
	Seed int64
	// Budget, when non-nil, enforces cumulative (ε, δ) limits across Run
	// calls via sequential composition (Section 4.3).
	Budget *smooth.Budget
	// DisablePublicTables turns off the Section 3.6 optimization even for
	// tables marked public (used by the Figure 7 ablation).
	DisablePublicTables bool
	// NoiseMode selects Definition 7 smoothing (default) or the
	// paper-evaluation Ŝ(0) scaling.
	NoiseMode NoiseMode
	// StaleMetrics controls behavior when the database has changed since
	// CollectMetrics. The paper notes the mf metrics must be recomputed on
	// update or differential privacy is no longer guaranteed (Section 4).
	StaleMetrics StalePolicy
	// Parallelism bounds the engine's intra-query worker count (the
	// morsel-driven executor): 0 leaves the database's current setting
	// (default: one worker per CPU), 1 forces serial execution, n > 1 caps
	// the pool. The setting is applied to the wrapped Database, which may be
	// shared between Systems. It is purely a throughput knob: query results
	// — and therefore sensitivities, noise draws, and private outputs — are
	// bit-identical at every value, and the sensitivity analysis itself
	// never executes queries, so the privacy guarantees are unaffected.
	Parallelism int
	// MemoryBudget bounds each query's engine operator state (hash-join
	// build tables, ORDER BY buffers, grouped-aggregation state, DISTINCT
	// and set-operation key sets) in bytes; operators exceeding it
	// spill to disk and continue out-of-core (Grace partitioned joins,
	// external merge sort, partitioned aggregation). 0 leaves the database's current setting
	// (default: unbounded). Like Parallelism it is purely a resource knob:
	// spilled and in-memory executions return bit-identical results, so
	// sensitivities, noise draws, and privacy accounting are unaffected.
	MemoryBudget int64
	// TempDir is where spill files are written when MemoryBudget forces a
	// query out-of-core; "" leaves the database's current setting (default:
	// the OS temp directory). Spill files are removed when their query
	// finishes, on success and on error alike.
	TempDir string
}

// StalePolicy selects the response to metrics that predate a database
// mutation.
type StalePolicy int

const (
	// StaleRefresh (default) recollects metrics automatically before
	// answering, emulating the trigger-based maintenance the paper suggests.
	StaleRefresh StalePolicy = iota
	// StaleReject refuses queries until CollectMetrics is called.
	StaleReject
	// StaleIgnore answers anyway (only for experiments that manage metrics
	// manually; unsound if the most frequent join key changed).
	StaleIgnore
)

// ErrStaleMetrics is returned under StaleReject when the database changed
// after the last CollectMetrics.
var ErrStaleMetrics = fmt.Errorf("flex: metrics are stale (database modified since CollectMetrics)")

// System is the FLEX system: a database plus its precomputed metrics and the
// release mechanism. A System is safe for concurrent Run/Prepare calls; see
// the package documentation.
type System struct {
	db   *Database
	mech *smooth.Mechanism
	opts Options
	// calls numbers answered queries; each one draws noise from a sampler
	// forked off the mechanism with its call number, so noise streams are
	// mutex-free and reproducible for sequential callers.
	calls atomic.Uint64

	// collectMu serializes whole CollectMetrics invocations: without it,
	// two concurrent collections racing a database mutation could install
	// the older store contents under the newer version stamp, permanently
	// passing MetricsFresh with stale metrics.
	collectMu sync.Mutex
	// mu guards the metrics/analyzer swap performed by CollectMetrics (the
	// StaleRefresh path runs it mid-query) and the bin-domain registry.
	mu      sync.RWMutex
	metrics *metrics.Store
	an      *core.Analyzer
	domains map[metrics.ColumnKey][]any
	// metricsVersion is the database version the metrics were collected at;
	// 0 means never collected.
	metricsVersion uint64
}

// NewSystem creates a FLEX instance over the database. Metrics start empty;
// call CollectMetrics (or set them manually) before running queries.
func NewSystem(db *Database, opts Options) *System {
	if opts.Parallelism > 0 {
		db.SetParallelism(opts.Parallelism)
	}
	if opts.MemoryBudget > 0 {
		db.SetMemoryBudget(opts.MemoryBudget)
	}
	if opts.TempDir != "" {
		db.SetTempDir(opts.TempDir)
	}
	m := metrics.New()
	return &System{
		db:      db,
		metrics: m,
		an:      core.NewAnalyzer(m),
		mech:    smooth.NewMechanism(opts.Seed),
		opts:    opts,
		domains: make(map[metrics.ColumnKey][]any),
	}
}

// CollectMetrics computes max-frequency and value-range metrics for every
// column of every table, the step the paper performs with one SQL query per
// column (Section 4). Public-table markings and bin domains are preserved.
// Columns with enforced check constraints (EnforceValueRange) use the
// enforced range as vr, which the paper prefers over observed ranges.
func (s *System) CollectMetrics() {
	s.collectMu.Lock()
	defer s.collectMu.Unlock()
	// Capture the version before reading the data: a mutation that lands
	// mid-collection leaves the metrics marked stale rather than silently
	// unaccounted for.
	version := s.db.eng.Version()
	fresh := metrics.CollectFromDB(s.db.eng)
	cur := s.Metrics()
	for _, name := range s.db.eng.TableNames() {
		if cur.IsPublic(name) {
			fresh.MarkPublic(name)
		}
		t := s.db.eng.Table(name)
		for _, c := range t.Checks {
			fresh.SetVR(name, c.Column, c.Max-c.Min)
		}
	}
	// Swap in the fresh store and a new analyzer over it rather than
	// mutating the current store in place: in-flight queries hold the old
	// (analyzer, store) snapshot and keep reading a consistent Ŝ(k)
	// sequence; only calls that start after the swap see the new metrics.
	s.mu.Lock()
	s.metrics = fresh
	s.an = core.NewAnalyzer(fresh)
	s.metricsVersion = version
	s.mu.Unlock()
}

// analyzer returns the current analyzer under the read lock.
func (s *System) analyzer() *core.Analyzer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.an
}

// MetricsFresh reports whether the metrics reflect the database's current
// contents.
func (s *System) MetricsFresh() bool {
	return s.metricsVersionNow() == s.db.eng.Version()
}

func (s *System) metricsVersionNow() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metricsVersion
}

// refreshIfStale applies the configured stale-metrics policy; it returns
// ErrStaleMetrics under StaleReject.
func (s *System) refreshIfStale() error {
	if s.MetricsFresh() {
		return nil
	}
	switch s.opts.StaleMetrics {
	case StaleRefresh:
		s.CollectMetrics()
	case StaleReject:
		return ErrStaleMetrics
	}
	return nil
}

// EnforceValueRange installs a check constraint bounding a numeric column to
// [min, max] and records the corresponding value-range metric vr = max − min
// (Section 3.7.2: the metric must be enforced, e.g. as a column check
// constraint, for SUM/AVG/MIN/MAX sensitivities to be sound). Existing rows
// are validated; violations fail without installing the constraint.
func (s *System) EnforceValueRange(table, column string, min, max float64) error {
	if err := s.db.eng.AddCheckRange(table, column, min, max); err != nil {
		return err
	}
	s.Metrics().SetVR(table, column, max-min)
	return nil
}

// Metrics exposes the metrics store for inspection and manual overrides
// (e.g. setting vr from a data model rather than observed values).
func (s *System) Metrics() *metrics.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metrics
}

// MarkPublic declares tables non-protected (Section 3.6).
func (s *System) MarkPublic(tables ...string) {
	if s.opts.DisablePublicTables {
		return
	}
	s.Metrics().MarkPublic(tables...)
}

// SetBinDomain registers the finite, enumerable, non-protected domain of a
// histogram bin label column (Section 4, "Histogram bin enumeration").
// Queries grouping by this column release one noisy row per domain value,
// with missing bins zero-filled, so the presence or absence of a bin leaks
// nothing.
func (s *System) SetBinDomain(table, column string, values []any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.domains[metrics.ColumnKey{Table: lower(table), Column: lower(column)}] = values
}

// lower delegates to strings.ToLower: SQL identifiers in this module are
// folded with the same Unicode-correct rule everywhere (the engine and the
// metrics store also use strings.ToLower), so non-ASCII identifier bytes
// round-trip consistently instead of being byte-shifted.
func lower(s string) string { return strings.ToLower(s) }

// Database returns the wrapped database.
func (s *System) Database() *Database { return s.db }

// SpillStats reports the database's cumulative out-of-core execution
// metrics, so serving layers can expose spill activity without reaching
// into the engine.
func (s *System) SpillStats() spill.Stats { return s.db.SpillStats() }

// CloneWithSeed returns a System that shares this system's database,
// collected metrics, analyzer, options, and bin domains but draws noise
// from an independent mechanism seeded with seed. Parallel experiment
// runners use it to give each worker a deterministic noise stream that does
// not depend on goroutine scheduling; the shared read-only state avoids
// recollecting metrics per worker.
func (s *System) CloneWithSeed(seed int64) *System {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The bin-domain map is copied, not shared: each System guards its map
	// with its own mutex, so sharing would let SetBinDomain on one instance
	// race readers on the other.
	domains := make(map[metrics.ColumnKey][]any, len(s.domains))
	for k, v := range s.domains {
		domains[k] = v
	}
	return &System{
		db:             s.db,
		metrics:        s.metrics,
		an:             s.an,
		mech:           smooth.NewMechanism(seed),
		opts:           s.opts,
		domains:        domains,
		metricsVersion: s.metricsVersion,
	}
}

// PrivateRow is one row of a differentially private result: the (public)
// histogram bin labels followed by the noisy aggregate values.
type PrivateRow struct {
	Bins   []any
	Values []float64
}

// PrivateResult is the output of System.Run.
type PrivateResult struct {
	// Columns are the output column names: bin labels first, then
	// aggregates (matching each Row's Bins ++ Values).
	Columns []string
	Rows    []PrivateRow

	// TrueRows holds the unperturbed aggregate values in the same order as
	// Rows; retained for experiment error measurement only — a production
	// deployment would never expose them.
	TrueRows [][]float64

	// Analysis describes the sensitivity computation.
	Analysis *Analysis

	// BinsEnumerated reports whether histogram bins came from a registered
	// public domain (true) or were taken from the observed result (false —
	// in that case bin presence itself is not protected and the caller must
	// supply labels, mirroring the paper's fallback).
	BinsEnumerated bool

	// Phase timings for the Table 2 performance experiment.
	AnalysisTime time.Duration
	ExecTime     time.Duration
	PerturbTime  time.Duration
}

// Run answers a SQL query with (ε, δ)-differential privacy end to end:
// analyze, smooth, execute, perturb. It returns an error for unsupported
// queries (classified per Section 5.1 — see Classify).
func (s *System) Run(sql string, epsilon, delta float64) (*PrivateResult, error) {
	return s.RunContext(context.Background(), sql, epsilon, delta)
}

// RunContext is Run under a cancellation context: cancellation or deadline
// expiry aborts query execution within one morsel of work per worker and
// returns the context's error (errors.Is against context.Canceled /
// context.DeadlineExceeded holds). An aborted query releases nothing, so its
// privacy budget is refunded — only released answers cost budget.
func (s *System) RunContext(ctx context.Context, sql string, epsilon, delta float64) (*PrivateResult, error) {
	return (&Prepared{sys: s, sql: sql}).run(ctx, Request{Epsilon: epsilon, Delta: delta})
}

// RunWithBins answers a histogram query using analyst-supplied bin labels,
// the paper's fallback when no public enumerable domain exists (Section 4):
// exactly the provided bins are released, zero-filled when absent from the
// true result, so the output shape is independent of the data.
func (s *System) RunWithBins(sql string, epsilon, delta float64, bins []any) (*PrivateResult, error) {
	return (&Prepared{sys: s, sql: sql}).RunWithBins(epsilon, delta, bins)
}

var errNoBins = fmt.Errorf("flex: RunWithBins requires at least one bin label")

// computeBounds evaluates the per-output noise bounds for an analyzed query:
// Definition 7 smoothing by default, or the paper-evaluation Ŝ(0) scaling
// under ModeLocalK0.
func computeBounds(an *core.Analyzer, analysis *Analysis, n int, p smooth.PrivacyParams, mode NoiseMode) ([]smooth.Smoothed, error) {
	bounds := make([]smooth.Smoothed, len(analysis.query.Outputs))
	if mode == ModeLocalK0 {
		ss, err := an.SensitivityAt(analysis.query, 0)
		if err != nil {
			return nil, err
		}
		for i, v := range ss {
			bounds[i] = smooth.Smoothed{S: v, ArgK: 0, Beta: smooth.Beta(p)}
		}
		return bounds, nil
	}
	for i := range bounds {
		var err error
		if bounds[i], err = smoothBound(an, analysis, i, n, p); err != nil {
			return nil, err
		}
	}
	return bounds, nil
}

// smoothBound is Definition 7 step 2 for one output over a database of n rows.
func smoothBound(an *core.Analyzer, a *Analysis, output, n int, p smooth.PrivacyParams) (smooth.Smoothed, error) {
	fn := func(k int) (float64, error) {
		ss, err := an.SensitivityAt(a.query, k)
		if err != nil {
			return 0, err
		}
		return ss[output], nil
	}
	return smooth.SmoothWithCutoff(fn, a.Degree, n, p)
}

// Sensitivity helpers on the analyzer, re-exported for tooling.

// SensitivityAt evaluates the per-output elastic sensitivity of an analyzed
// query at distance k.
func (s *System) SensitivityAt(a *Analysis, k int) ([]float64, error) {
	return s.analyzer().SensitivityAt(a.query, k)
}

// SmoothBound computes the smooth upper bound (Definition 7 step 2) for one
// output of an analyzed query.
func (s *System) SmoothBound(a *Analysis, output int, p smooth.PrivacyParams) (smooth.Smoothed, error) {
	return smoothBound(s.analyzer(), a, output, s.db.TotalRows(), p)
}

// Analyzer exposes the elastic-sensitivity analyzer for in-module tooling.
func (s *System) Analyzer() *core.Analyzer { return s.analyzer() }

// Query exposes the lowered relational algebra of an analysis.
func (a *Analysis) Query() *relalg.Query { return a.query }
