package flex

import (
	"context"
	"sync"
	"time"

	"flexdp/internal/core"
	"flexdp/internal/engine"
	"flexdp/internal/metrics"
	"flexdp/internal/smooth"
	"flexdp/internal/sqlparser"
)

// Prepared is a query that has been parsed, lowered to relational algebra,
// analyzed for elastic sensitivity, and compiled into an engine plan exactly
// once. Run answers it with fresh (ε, δ) parameters, reusing every cached
// stage:
//
//   - the parse and the relational-algebra lowering,
//   - the symbolic sensitivity polynomials and output classification,
//   - the smooth bounds (memoized per (ε, δ) pair), and
//   - the engine's compiled closure trees.
//
// Invalidation is by version: when the table store has changed since the
// state was built, or the metrics store has mutated in any way (a
// re-collection, MarkPublic, EnforceValueRange, manual SetVR), the next Run
// re-analyzes the parsed statement against the live schema, metrics, and
// data, so a Prepared query never answers from stale analysis. Execution
// always reads the current table contents — only derived, content-addressed
// artifacts are cached.
//
// A Prepared query is safe for concurrent Run calls. System.Run answers
// through a Prepared built on the spot, so prepared and one-shot answers
// are bit-identical for the same seed and call sequence.
//
// Execution runs on the engine's morsel-driven parallel executor, governed
// by Options.Parallelism / Database.SetParallelism and re-read on every Run,
// so the worker count can change between runs without invalidating any
// cached stage. Parallelism never touches the sensitivity analysis and the
// parallel executor is bit-identical to the serial one, so the cached
// bounds, the noise stream, and the released answers are all independent of
// the worker count.
type Prepared struct {
	sys *System
	sql string

	mu sync.RWMutex
	// stmt is sql's AST: handed over by PrepareStmt or parsed by the first
	// state build, then shared by every rebuild, which never re-parses.
	stmt *sqlparser.SelectStmt
	st   *preparedState
}

// preparedState is everything derived from (SQL, schema, metrics, database
// version). It is immutable after construction apart from its
// concurrency-safe bounds memo.
type preparedState struct {
	version        uint64         // database version the state was built at
	metricsVersion uint64         // System metrics version the analysis used
	store          *metrics.Store // metrics store instance the analysis used
	metricsEpoch   uint64         // that store's mutation epoch at build
	analysis       *Analysis
	an             *core.Analyzer // the analyzer over store
	pq             *engine.PreparedQuery
	n              int // database size at build, for the Theorem 3 cutoff

	boundsMu sync.Mutex
	bounds   map[smooth.PrivacyParams][]smooth.Smoothed
}

// Prepare analyzes and compiles sql for repeated execution. Unsupported or
// unparseable queries fail here, with the same errors Run would produce.
func (s *System) Prepare(sql string) (*Prepared, error) {
	return s.PrepareStmt(sql, nil)
}

// PrepareStmt is Prepare for a caller that already parsed sql into stmt (nil
// means parse it here), so one parse serves the caller, the analysis and the
// execution. stmt is shared, never mutated.
func (s *System) PrepareStmt(sql string, stmt *sqlparser.SelectStmt) (*Prepared, error) {
	p := &Prepared{sys: s, sql: sql, stmt: stmt}
	if _, err := p.state(); err != nil {
		return nil, err
	}
	return p, nil
}

// SQL returns the prepared query text.
func (p *Prepared) SQL() string { return p.sql }

// Analysis returns the current static analysis (rebuilt if the database has
// changed since Prepare).
func (p *Prepared) Analysis() (*Analysis, error) {
	st, err := p.state()
	if err != nil {
		return nil, err
	}
	return st.analysis, nil
}

// state returns the prepared state valid for the database's current version,
// rebuilding it when the table store or the metrics have moved. The metrics
// check uses the store's mutation epoch, so manual overrides (MarkPublic,
// EnforceValueRange, Metrics().SetVR) invalidate cached sensitivities just
// like a full re-collection does.
func (p *Prepared) state() (*preparedState, error) {
	s := p.sys
	p.mu.RLock()
	st := p.st
	p.mu.RUnlock()
	if st != nil && st.fresh(s) {
		return st, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Re-read under the write lock: another goroutine may have rebuilt.
	if p.st != nil && p.st.fresh(s) {
		return p.st, nil
	}
	v := s.db.eng.Version()
	mv := s.metricsVersionNow()
	store := s.Metrics()
	me := store.Epoch()
	start := time.Now()
	if p.stmt == nil {
		stmt, err := sqlparser.Parse(p.sql)
		if err != nil {
			return nil, err
		}
		p.stmt = stmt
	}
	analysis, err := s.analyzeStmt(p.sql, p.stmt, start)
	if err != nil {
		return nil, err
	}
	pq, err := s.db.eng.PrepareStmt(p.sql, analysis.stmt)
	if err != nil {
		return nil, err
	}
	p.st = &preparedState{
		version:        v,
		metricsVersion: mv,
		store:          store,
		metricsEpoch:   me,
		analysis:       analysis,
		an:             s.analyzer(),
		pq:             pq,
		n:              s.db.TotalRows(),
		bounds:         make(map[smooth.PrivacyParams][]smooth.Smoothed),
	}
	return p.st, nil
}

// fresh reports whether the state still matches the system's database
// version and metrics: the same store instance (CollectMetrics swaps in a
// new one) at the same mutation epoch (manual overrides bump it in place).
func (st *preparedState) fresh(s *System) bool {
	cur := s.Metrics()
	return st.version == s.db.eng.Version() &&
		st.metricsVersion == s.metricsVersionNow() &&
		st.store == cur &&
		st.metricsEpoch == cur.Epoch()
}

// maxBoundsEntries caps the per-state (ε, δ) → bounds memo. The parameters
// come from callers (for the HTTP proxy, straight from request bodies), so
// an unbounded map would let a client leak memory by sweeping ε; past the
// cap, bounds are still computed correctly, just not memoized.
const maxBoundsEntries = 64

// boundsFor returns the per-output smooth bounds for the privacy parameters,
// memoized per (ε, δ) pair: a repeat pays nothing, and a new pair pays one
// smoothing sweep over the analyzer.
func (st *preparedState) boundsFor(p smooth.PrivacyParams, mode NoiseMode) ([]smooth.Smoothed, error) {
	st.boundsMu.Lock()
	b, ok := st.bounds[p]
	st.boundsMu.Unlock()
	if ok {
		return b, nil
	}
	b, err := computeBounds(st.an, st.analysis, st.n, p, mode)
	if err != nil {
		return nil, err
	}
	st.boundsMu.Lock()
	if len(st.bounds) < maxBoundsEntries {
		st.bounds[p] = b
	}
	st.boundsMu.Unlock()
	return b, nil
}

// Request is one private answer's parameters: the (ε, δ) it is released
// at, plus per-call choices that the legacy Run methods fix.
type Request struct {
	Epsilon, Delta float64
	// Bins, when non-empty, are analyst-supplied histogram bin labels (see
	// System.RunWithBins).
	Bins []any
	// Profile, when non-nil, receives the engine's per-operator execution
	// trace: true, noise-free cardinalities, so an operator-facing
	// diagnostic only. Profiling does not change the released result.
	Profile *QueryProfile
	// Budget, when non-nil, is charged for this call instead of
	// Options.Budget: a serving layer passes each analyst's own budget.
	Budget *smooth.Budget
}

// QueryProfile re-exports the engine's per-query execution trace so serving
// layers can request one without importing the engine package directly.
type QueryProfile = engine.QueryProfile

// Run answers the prepared query with (ε, δ)-differential privacy, with
// every query-dependent stage served from the prepared caches.
func (p *Prepared) Run(epsilon, delta float64) (*PrivateResult, error) {
	return p.run(context.Background(), Request{Epsilon: epsilon, Delta: delta})
}

// RunWithBins answers the prepared histogram query with analyst-supplied bin
// labels (see System.RunWithBins).
func (p *Prepared) RunWithBins(epsilon, delta float64, bins []any) (*PrivateResult, error) {
	if len(bins) == 0 {
		return nil, errNoBins
	}
	return p.run(context.Background(), Request{Epsilon: epsilon, Delta: delta, Bins: bins})
}

// RunRequest answers the prepared query for req under a cancellation
// context: cancellation or deadline expiry aborts execution within one
// morsel of work per worker and returns the context's error. An aborted run
// releases nothing, so its budget charge is refunded; the prepared caches
// are unaffected and the next run proceeds normally.
func (p *Prepared) RunRequest(ctx context.Context, req Request) (*PrivateResult, error) {
	return p.run(ctx, req)
}

// run is the one release path: every private answer, prepared or one-shot
// (System.Run runs a Prepared built here on the spot), goes through it.
func (p *Prepared) run(ctx context.Context, req Request) (_ *PrivateResult, err error) {
	s := p.sys
	pp := smooth.PrivacyParams{Epsilon: req.Epsilon, Delta: req.Delta}
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	if err := s.refreshIfStale(); err != nil {
		return nil, err
	}
	// For a one-shot run the state build is the parse and the analysis, so
	// AnalysisTime covers them as well as the smoothing.
	t0 := time.Now()
	st, err := p.state()
	if err != nil {
		return nil, err
	}
	// Budget admission and noise-stream forking happen after analysis, so a
	// rejected query neither consumes budget nor burns a call number, and
	// the call numbering (hence the noise) is the same whether or not the
	// query was prepared beforehand. Failures past this point answered
	// nothing, so the charge is refunded: budget tracks released answers,
	// not attempts. (The call number stays burned — the noise stream must
	// not depend on which executions aborted.)
	budget := req.Budget
	if budget == nil {
		budget = s.opts.Budget
	}
	if budget != nil {
		if err := budget.Spend(req.Epsilon, req.Delta); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				budget.Refund(req.Epsilon, req.Delta)
			}
		}()
	}
	sampler := s.mech.Fork(s.calls.Add(1))

	bounds, err := st.boundsFor(pp, s.opts.NoiseMode)
	if err != nil {
		return nil, err
	}
	analysisTime := time.Since(t0)

	t1 := time.Now()
	cfg := s.db.eng.ExecConfig()
	cfg.Profile = req.Profile
	rs, err := st.pq.ExecContextConfig(ctx, cfg)
	if err != nil {
		return nil, err
	}
	execTime := time.Since(t1)

	t2 := time.Now()
	out, err := s.perturb(st.analysis, rs, bounds, req.Epsilon, req.Bins, sampler)
	if err != nil {
		return nil, err
	}
	out.Analysis = st.analysis
	out.AnalysisTime = analysisTime
	out.ExecTime = execTime
	out.PerturbTime = time.Since(t2)
	return out, nil
}
