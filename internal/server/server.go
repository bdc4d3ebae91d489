// Package server exposes a FLEX system over HTTP: a differential-privacy
// proxy that analysts query with plain SQL, matching the paper's deployment
// story — FLEX sits in front of an unmodified database, performing static
// analysis before and output perturbation after normal query execution.
//
// The proxy is built for heavy repeated-query traffic: /query is served
// through an LRU cache of prepared queries keyed by canonical SQL, so a
// repeated query pays the static analysis and plan compilation once, and
// privacy budgets are tracked per analyst (the X-Analyst request header)
// with an unnamed shared pool as the fallback. Query execution itself runs
// on the engine's morsel-driven parallel executor (default: one worker per
// CPU, see flexserver -parallelism); because parallel results are
// bit-identical to serial ones, parallelism changes neither the noisy
// answers for a fixed seed nor any budget accounting.
//
// The service layer is also the resilience boundary: admission control
// (Config.MaxInflight) bounds concurrent query execution with a bounded
// queue wait, shedding overload as 503 + Retry-After; client disconnects
// and the optional Config.QueryTimeout cancel the engine mid-morsel; and
// engine panics are isolated to the offending query's 500 response, never
// the process. Budget is charged at admission, before any engine work, so an
// exhausted analyst is refused without executing anything; every failure
// after admission refunds the charge, so privacy loss is only ever kept for
// a noisy answer that is actually released.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	flex "flexdp"
	"flexdp/internal/engine"
	"flexdp/internal/relalg"
	"flexdp/internal/smooth"
	"flexdp/internal/sqlparser"
	"flexdp/internal/telemetry"
)

// AnalystHeader names the request header that selects a per-analyst budget.
// The proxy trusts this header: in the paper's deployment model FLEX sits
// behind the organization's authenticated query frontend, which is expected
// to set (and enforce) the analyst identity. Exposed directly to untrusted
// clients, a caller could mint fresh budgets by varying the header, so the
// per-analyst feature must only be enabled behind authentication.
const AnalystHeader = "X-Analyst"

// Config tunes the service layer.
type Config struct {
	// DefaultDelta is used when a request omits δ.
	DefaultDelta float64
	// CacheSize bounds the prepared-query LRU cache; 0 means DefaultCacheSize.
	CacheSize int
	// AnalystEpsilon/AnalystDelta, when AnalystEpsilon > 0, give every
	// distinct X-Analyst header value its own (ε, δ) budget; requests
	// without the header draw from the shared pool budget.
	AnalystEpsilon float64
	AnalystDelta   float64
	// MaxInflight bounds the number of /query requests executing at once;
	// 0 means unbounded. Requests beyond the bound wait up to QueueTimeout
	// for a slot and are then shed with 503 + Retry-After — a transient
	// overload signal, deliberately distinct from 429 budget exhaustion,
	// which retrying cannot fix.
	MaxInflight int
	// QueueTimeout is how long an over-admission request may wait for a
	// slot before being shed. Zero sheds immediately when full.
	QueueTimeout time.Duration
	// QueryTimeout caps each /query execution (0 = none). Expiry cancels
	// the engine mid-morsel and answers 504; nothing is charged.
	QueryTimeout time.Duration
	// Logger receives structured operational logs (slow-query warnings).
	// nil discards them.
	Logger *slog.Logger
	// Audit receives the budget audit log: one JSON line per Spend and
	// Refund on every budget the server manages, plus one per released
	// answer carrying the canonical-query hash. Lines never include query
	// text, bins, or result values. nil disables auditing.
	Audit *telemetry.AuditLogger
	// SlowQueryThreshold warn-logs any /query whose admitted wall time
	// (prepare + execute + release decision) exceeds it. 0 disables.
	SlowQueryThreshold time.Duration
}

// DefaultCacheSize is the prepared-query cache capacity when Config leaves
// CacheSize zero.
const DefaultCacheSize = 128

// Server handles the HTTP API. Create with New or NewWithConfig and mount
// via Handler. Safe for concurrent use.
type Server struct {
	sys    *flex.System
	budget *smooth.Budget // shared pool; may be nil (no limit)
	cfg    Config

	prepared     *lruCache
	hits, misses atomic.Uint64

	// sem is the admission semaphore (nil when MaxInflight is 0): a slot
	// is held for the full execution of one /query, bounding concurrent
	// engine work no matter how many connections the HTTP layer accepts.
	sem chan struct{}

	// Query lifecycle counters (see Lifecycle).
	inFlight  atomic.Int64
	completed atomic.Uint64
	cancelled atomic.Uint64
	timedOut  atomic.Uint64
	shed      atomic.Uint64
	panics    atomic.Uint64

	mu       sync.Mutex
	analysts map[string]*smooth.Budget

	// Telemetry (see metrics.go): reg is the /metrics registry; queryDur
	// and outcomes are the only metrics written on the request path — all
	// other families are scrape-time collectors over existing state.
	reg      *telemetry.Registry
	queryDur *telemetry.Histogram
	outcomes *telemetry.CounterVec
	logger   *slog.Logger
	audit    *telemetry.AuditLogger
}

// New returns a server over the system with default cache size and no
// per-analyst budgets. budget is the shared pool (may be nil — no limit
// beyond per-query parameters); defaultDelta is used when requests omit δ.
func New(sys *flex.System, budget *smooth.Budget, defaultDelta float64) *Server {
	return NewWithConfig(sys, budget, Config{DefaultDelta: defaultDelta})
}

// NewWithConfig returns a server with explicit service-layer configuration.
func NewWithConfig(sys *flex.System, budget *smooth.Budget, cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	s := &Server{
		sys:      sys,
		budget:   budget,
		cfg:      cfg,
		prepared: newLRU(cfg.CacheSize),
		analysts: make(map[string]*smooth.Budget),
		logger:   cfg.Logger,
		audit:    cfg.Audit,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	s.initTelemetry()
	if s.audit != nil && s.budget != nil {
		// Shared-pool accounting feeds the audit log; per-analyst budgets
		// attach their observers on creation in budgetFor.
		s.budget.SetObserver(s.budgetObserver(""))
	}
	return s
}

// Lifecycle is a snapshot of the server's query lifecycle counters, exposed
// on /healthz and used by flexserver's shutdown report. Completed counts
// queries whose noisy answer was released; Cancelled counts client
// disconnects (499), TimedOut server-side deadline expiries (504), Shed
// admission-control rejections (503), and Panics recovered engine panics
// answered as 500. InFlight is the instantaneous gauge of admitted /query
// requests still executing.
type Lifecycle struct {
	InFlight  int64  `json:"in_flight"`
	Completed uint64 `json:"completed"`
	Cancelled uint64 `json:"cancelled"`
	TimedOut  uint64 `json:"timed_out"`
	Shed      uint64 `json:"shed"`
	Panics    uint64 `json:"panics"`
}

// Lifecycle returns the current lifecycle counter snapshot.
func (s *Server) Lifecycle() Lifecycle {
	return Lifecycle{
		InFlight:  s.inFlight.Load(),
		Completed: s.completed.Load(),
		Cancelled: s.cancelled.Load(),
		TimedOut:  s.timedOut.Load(),
		Shed:      s.shed.Load(),
		Panics:    s.panics.Load(),
	}
}

// errOverloaded is the body of a 503 shed response.
var errOverloaded = errors.New("server overloaded: too many queries in flight, retry shortly")

// admit acquires an execution slot, waiting up to QueueTimeout. It returns
// false after writing the response itself: 503 + Retry-After when the wait
// expires, nothing when the client has already gone away (there is nobody
// left to answer). With no MaxInflight configured it always admits.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	} else {
		closed := make(chan time.Time)
		close(closed)
		timeout = closed
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-timeout:
		s.shed.Add(1)
		s.outcomes.With("shed").Inc()
		writeError(w, http.StatusServiceUnavailable, errOverloaded)
		return false
	case <-r.Context().Done():
		s.cancelled.Add(1)
		s.outcomes.With("cancelled").Inc()
		return false
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// Handler returns the HTTP handler with all routes mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("GET /budget", s.handleBudget)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Prometheus text exposition. The same registry is available via
	// Registry() for a separate ops listener (see flexserver -ops-addr).
	mux.Handle("GET /metrics", s.reg)
	return mux
}

// preparedFor returns the prepared query for sql (with its cache key), from
// cache or freshly prepared. The key is the parsed query printed back, so
// spellings differing in whitespace or keyword case share one entry while
// string literals survive verbatim; a miss hands that parse to PrepareStmt,
// so it is the query's only one. Staleness is not checked here: a Prepared
// re-validates against the database version on every run.
func (s *Server) preparedFor(sql string) (*flex.Prepared, string, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, "", err
	}
	key := sqlparser.Print(stmt)
	if p, ok := s.prepared.get(key); ok {
		s.hits.Add(1)
		return p, key, nil
	}
	p, err := s.sys.PrepareStmt(sql, stmt)
	if err != nil {
		return nil, "", err
	}
	s.misses.Add(1)
	s.prepared.add(key, p)
	return p, key, nil
}

// budgetFor selects the budget charged for a request: the analyst's own
// when per-analyst budgets are configured and the header is present, else
// the shared pool. A nil result means unlimited. With create=false an
// unknown analyst returns nil without allocating (read-only endpoints must
// not grow the analyst table as a side effect).
func (s *Server) budgetFor(r *http.Request, create bool) *smooth.Budget {
	analyst := r.Header.Get(AnalystHeader)
	if analyst == "" || s.cfg.AnalystEpsilon <= 0 {
		return s.budget
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.analysts[analyst]
	if !ok && create {
		b = smooth.NewBudget(s.cfg.AnalystEpsilon, s.cfg.AnalystDelta)
		if s.audit != nil {
			b.SetObserver(s.budgetObserver(analyst))
		}
		s.analysts[analyst] = b
	}
	return b
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	SQL     string  `json:"sql"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
}

// QueryResponse is the body of a successful POST /query. Profile is present
// only when the request asked for ?profile=1: the operator-facing execution
// trace with true (noise-free) intermediate cardinalities — the same trust
// surface as /metrics and pprof, so deployments serving untrusted analysts
// should strip or deny the parameter at the authenticating frontend.
type QueryResponse struct {
	Columns        []string           `json:"columns"`
	Rows           [][]any            `json:"rows"`
	BinsEnumerated bool               `json:"bins_enumerated"`
	Analysis       AnalysisDTO        `json:"analysis"`
	Profile        *flex.QueryProfile `json:"profile,omitempty"`
}

// AnalysisDTO summarizes the sensitivity analysis for API consumers.
type AnalysisDTO struct {
	Joins       int      `json:"joins"`
	Histogram   bool     `json:"histogram"`
	Polynomials []string `json:"sensitivity_polynomials"`
	Outputs     []string `json:"outputs"`
}

// ErrorResponse is the body of any failed request.
type ErrorResponse struct {
	Error    string `json:"error"`
	Category string `json:"category"`         // Section 5.1 taxonomy
	Reason   string `json:"reason,omitempty"` // fine-grained unsupported reason
}

// maxBodyBytes bounds /query and /analyze request bodies; a longer body is
// answered 413 before anything parses it.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request body into v, writing the error response
// itself (413 past maxBodyBytes, 400 otherwise) and returning false on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("bad request body: %w", err))
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		s.outcomes.With("bad_request").Inc()
		return
	}
	if req.SQL == "" {
		s.outcomes.With("bad_request").Inc()
		writeError(w, http.StatusBadRequest, errors.New("missing sql"))
		return
	}
	delta := req.Delta
	if delta == 0 {
		delta = s.cfg.DefaultDelta
	}
	// Parameters are validated before admission control, so a malformed
	// request never queues behind running queries. (The run validates them
	// again before its budget charge: Budget.Spend only guards the upper
	// limit, so a negative ε would *refund* budget.)
	if err := (smooth.PrivacyParams{Epsilon: req.Epsilon, Delta: delta}).Validate(); err != nil {
		s.outcomes.With("bad_request").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Admission control: hold an execution slot for the whole prepare+run,
	// shedding with 503 when the bounded queue wait expires. Validation
	// above runs un-admitted — rejecting malformed requests must not queue
	// behind running queries.
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// Admitted wall clock: feeds the latency histogram, the slow-query log,
	// and the audit line's elapsed_ms. Starts after queueing so the
	// histogram measures the server's own work, not admission backpressure.
	start := time.Now()
	defer func() { s.queryDur.Observe(time.Since(start)) }()

	prep, key, err := s.preparedFor(req.SQL)
	if err != nil {
		s.outcomes.With(outcomeFor(err)).Inc()
		writeError(w, statusFor(err), err)
		return
	}
	defer s.noteSlowQuery(r, key, req.Epsilon, start)
	// Execution is bounded by the client's connection (disconnect cancels
	// within one morsel per worker) and, when configured, the server-side
	// query timeout.
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	// The run charges the analyst's (or the pool's) budget before any
	// engine work, so an exhausted analyst gets 429 having executed
	// nothing, and refunds it on every later failure.
	run := flex.Request{Epsilon: req.Epsilon, Delta: delta, Budget: s.budgetFor(r, true)}
	// ?profile=1 requests an execution trace alongside the noisy answer.
	// Profiling decorates the run; the released result is bit-identical.
	if r.URL.Query().Get("profile") == "1" {
		run.Profile = new(flex.QueryProfile)
	}
	res, err := prep.RunRequest(ctx, run)
	if err != nil {
		if !s.noteRunError(err) {
			// Entries that can no longer run (e.g. their table was dropped)
			// are evicted so the next request re-prepares instead of
			// replaying the failure.
			s.prepared.remove(key)
		}
		s.outcomes.With(outcomeFor(err)).Inc()
		writeError(w, statusFor(err), err)
		return
	}
	s.completed.Add(1)
	s.outcomes.With("completed").Inc()
	s.audit.Event(telemetry.AuditEvent{
		Analyst:   r.Header.Get(AnalystHeader),
		Op:        "release",
		Epsilon:   req.Epsilon,
		Delta:     delta,
		QueryHash: telemetry.QueryHash(key),
		Outcome:   "released",
		ElapsedMS: telemetry.SinceMS(start),
	})
	resp := QueryResponse{
		Columns:        res.Columns,
		BinsEnumerated: res.BinsEnumerated,
		Analysis:       analysisDTO(res.Analysis),
		Profile:        run.Profile,
	}
	for _, row := range res.Rows {
		out := make([]any, 0, len(row.Bins)+len(row.Values))
		out = append(out, row.Bins...)
		for _, v := range row.Values {
			out = append(out, v)
		}
		resp.Rows = append(resp.Rows, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

// noteSlowQuery warn-logs a /query whose admitted wall time exceeded the
// configured threshold. Like the audit log it identifies the query by
// canonical hash, never text, so the log is safe to ship off-box.
func (s *Server) noteSlowQuery(r *http.Request, key string, epsilon float64, start time.Time) {
	if s.cfg.SlowQueryThreshold <= 0 {
		return
	}
	elapsed := time.Since(start)
	if elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	s.logger.Warn("slow query",
		"query_hash", telemetry.QueryHash(key),
		"analyst", r.Header.Get(AnalystHeader),
		"epsilon", epsilon,
		"elapsed_ms", elapsed.Milliseconds(),
		"threshold_ms", s.cfg.SlowQueryThreshold.Milliseconds())
}

// noteRunError bumps the lifecycle counter matching a run failure and
// reports whether the prepared-cache entry must be kept: the plan did not
// fail when the run was refused for budget, cancelled, or timed out.
func (s *Server) noteRunError(err error) (keep bool) {
	var be *smooth.BudgetExhaustedError
	switch {
	case errors.As(err, &be):
		return true
	case errors.Is(err, context.Canceled):
		s.cancelled.Add(1)
		return true
	case errors.Is(err, context.DeadlineExceeded):
		s.timedOut.Add(1)
		return true
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		s.panics.Add(1)
	}
	return false
}

// AnalyzeRequest is the body of POST /analyze.
type AnalyzeRequest struct {
	SQL string `json:"sql"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	a, err := s.sys.Analyze(req.SQL)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, analysisDTO(a))
}

// BudgetResponse is the body of GET /budget. With an X-Analyst header (and
// per-analyst budgets configured) it reports that analyst's budget,
// otherwise the shared pool.
type BudgetResponse struct {
	Enabled         bool    `json:"enabled"`
	Analyst         string  `json:"analyst,omitempty"`
	SpentEpsilon    float64 `json:"spent_epsilon"`
	SpentDelta      float64 `json:"spent_delta"`
	RemainEpsilon   float64 `json:"remaining_epsilon"`
	RemainDelta     float64 `json:"remaining_delta"`
	QueriesAnswered int     `json:"queries_answered"`
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	b := s.budgetFor(r, false)
	resp := BudgetResponse{Enabled: b != nil}
	if s.cfg.AnalystEpsilon > 0 {
		if analyst := r.Header.Get(AnalystHeader); analyst != "" {
			resp.Analyst = analyst
			if b == nil {
				// Analyst has not queried yet: report the untouched
				// allocation without materializing a budget.
				resp.Enabled = true
				resp.RemainEpsilon = s.cfg.AnalystEpsilon
				resp.RemainDelta = s.cfg.AnalystDelta
			}
		}
	}
	if b != nil {
		resp.SpentEpsilon, resp.SpentDelta = b.Spent()
		resp.RemainEpsilon, resp.RemainDelta = b.Remaining()
		resp.QueriesAnswered = b.Queries()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"prepared_cached": s.prepared.len(),
		"cache_hits":      s.hits.Load(),
		"cache_misses":    s.misses.Load(),
		// Out-of-core execution activity: non-zero join_spills/sort_spills
		// mean queries are exceeding the configured memory budget and
		// running through the spill subsystem (a throughput signal, never a
		// correctness one — spilled results are bit-identical).
		"spill": s.sys.SpillStats(),
		// Query lifecycle: admission, cancellation and fault counters.
		// Rising shed means the -max-inflight bound is turning clients
		// away; rising panics means engine bugs are being isolated rather
		// than crashing the proxy — both are operator signals.
		"lifecycle": s.Lifecycle(),
	})
}

func analysisDTO(a *flex.Analysis) AnalysisDTO {
	return AnalysisDTO{
		Joins:       a.Joins,
		Histogram:   a.Histogram,
		Polynomials: a.Polynomials,
		Outputs:     a.OutputNames,
	}
}

// statusClientClosedRequest is nginx's nonstandard 499 for a client that
// disconnected before the response was written. Nobody receives the body,
// but the status keeps access logs honest about why the query was abandoned.
const statusClientClosedRequest = 499

// statusFor maps failures to HTTP statuses:
//
//   - 422 for unsupported or unparseable queries (Section 5.1 taxonomy) —
//     the request itself is wrong, retrying is pointless;
//   - 429 + Retry-After for privacy-budget exhaustion — the analyst is out
//     of budget, not the server out of capacity;
//   - 499 when the client disconnected mid-query (cancellation);
//   - 503 + Retry-After when admission control sheds under overload — the
//     one failure where an immediate retry is the right move;
//   - 504 when the server-side query timeout expired;
//   - 500 for everything else, including engine panics isolated to the
//     offending query.
func statusFor(err error) int {
	var be *smooth.BudgetExhaustedError
	if errors.As(err, &be) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, context.Canceled) {
		return statusClientClosedRequest
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	switch flex.Classify(err) {
	case flex.CategoryUnsupported, flex.CategoryParseError:
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error(), Category: flex.Classify(err).String()}
	var ue *relalg.UnsupportedError
	if errors.As(err, &ue) {
		resp.Reason = ue.Reason.String()
	}
	// Retry-After separates the two throttles: a shed query (503) should be
	// retried almost immediately — load is transient — while an exhausted
	// budget (429) only recovers if an operator raises it, so the hint is
	// deliberately long.
	switch status {
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "60")
	}
	writeJSON(w, status, resp)
}
