package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexdp/internal/spill"
)

// OpProfile is one operator's slice of a query execution trace: how many
// rows entered and left it, how many morsels it processed, how long its
// apply/flush work took, and how many bytes it spilled to disk.
//
// RowsIn/RowsOut for a scan are the scanned relation's cardinality (a scan
// has no upstream, so RowsIn is 0). Wall time for an operator's flush phase
// includes delivering its emissions through downstream operators, so
// per-operator wall times can overlap and need not sum to the query's.
// SpillBytes is attributed by snapshotting the query's spill manager around
// each operator call: exact under serial execution, best-effort when
// parallel stages spill concurrently (the query-level Spill total is always
// exact).
type OpProfile struct {
	Name       string `json:"name"`
	Detail     string `json:"detail,omitempty"`
	RowsIn     int64  `json:"rows_in"`
	RowsOut    int64  `json:"rows_out"`
	Morsels    int64  `json:"morsels"`
	WallNanos  int64  `json:"wall_nanos"`
	SpillBytes int64  `json:"spill_bytes"`
}

// QueryProfile is the per-query execution trace filled in when
// ExecConfig.Profile points at one. It records the configuration the query
// actually ran under, the per-operator trace in pipeline order, and the
// query's own spill/breaker activity — exactly the delta this execution
// folded into DB.SpillStats, so profiles of concurrent queries never
// double-count each other.
type QueryProfile struct {
	Workers int `json:"workers"`
	// MorselSize is the pinned morsel size, 0 when adaptive sizing is on.
	MorselSize int         `json:"morsel_size"`
	Vectorized bool        `json:"vectorized"`
	WallNanos  int64       `json:"wall_nanos"`
	Operators  []OpProfile `json:"operators"`
	// TruncatedOps counts operator traces dropped past the cap (correlated
	// subqueries can build a pipeline per outer row; the profile keeps the
	// first maxProfileOps and counts the rest).
	TruncatedOps int         `json:"truncated_ops,omitempty"`
	Spill        spill.Stats `json:"spill"`
}

// Render formats the profile as EXPLAIN ANALYZE output lines: one header,
// one line per operator, one line of spill counters.
func (p *QueryProfile) Render() []string {
	morsel := "adaptive"
	if p.MorselSize > 0 {
		morsel = fmt.Sprintf("%d", p.MorselSize)
	}
	lines := []string{fmt.Sprintf("workers=%d morsel_size=%s vectorized=%t wall_ms=%.3f",
		p.Workers, morsel, p.Vectorized, float64(p.WallNanos)/1e6)}
	for _, op := range p.Operators {
		name := op.Name
		if op.Detail != "" {
			name += "(" + op.Detail + ")"
		}
		lines = append(lines, fmt.Sprintf("%s: rows_in=%d rows_out=%d morsels=%d wall_ms=%.3f spill_bytes=%d",
			name, op.RowsIn, op.RowsOut, op.Morsels, float64(op.WallNanos)/1e6, op.SpillBytes))
	}
	if p.TruncatedOps > 0 {
		lines = append(lines, fmt.Sprintf("(%d operator traces truncated)", p.TruncatedOps))
	}
	var sb strings.Builder
	sb.WriteString("spill:")
	for _, f := range p.Spill.Fields() {
		fmt.Fprintf(&sb, " %s=%d", f.Name, f.Value)
	}
	lines = append(lines, sb.String())
	return lines
}

// maxProfileOps caps the operator traces one profile retains.
const maxProfileOps = 64

// opTrace is the mutable accumulator behind one OpProfile. Counters are
// atomics because pure operators apply on parallel workers.
type opTrace struct {
	name, detail string
	rowsIn       atomic.Int64
	rowsOut      atomic.Int64
	morsels      atomic.Int64
	wall         atomic.Int64
	spillBytes   atomic.Int64
}

// setRowsOut overwrites the rows-out tally (sinks know their output only
// after finalization). Nil-safe.
func (t *opTrace) setRowsOut(n int) {
	if t != nil {
		t.rowsOut.Store(int64(n))
	}
}

// setMorsels overwrites the morsel count (scans know theirs from the span
// partition). Nil-safe.
func (t *opTrace) setMorsels(n int) {
	if t != nil {
		t.morsels.Store(int64(n))
	}
}

// queryProfiler collects opTraces for one execution. A nil profiler (the
// common case: profiling off) makes every method a no-op, keeping the hot
// path to a single nil check.
type queryProfiler struct {
	mu        sync.Mutex
	ops       []*opTrace
	truncated int
	start     time.Time
}

func newQueryProfiler() *queryProfiler {
	//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
	return &queryProfiler{start: time.Now()}
}

// op registers a new operator trace in pipeline-construction order. Returns
// nil (and counts the truncation) past the cap, or on a nil profiler.
func (pr *queryProfiler) op(name, detail string) *opTrace {
	if pr == nil {
		return nil
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.ops) >= maxProfileOps {
		pr.truncated++
		return nil
	}
	t := &opTrace{name: name, detail: detail}
	pr.ops = append(pr.ops, t)
	return t
}

// traceOp wraps op with a tracing decorator when profiling is on; otherwise
// returns op unchanged so the untraced pipeline is byte-for-byte the same.
func (ctx *execContext) traceOp(name, detail string, op streamOp) streamOp {
	t := ctx.prof.op(name, detail)
	if t == nil {
		return op
	}
	return &tracedOp{inner: op, t: t}
}

// produceFn is the sink's per-morsel worker stage (see pipeline.run).
type produceFn = func(w int, m morsel) (any, error)

// sink wraps a sink's produce stage with a trace recording rows in, morsels,
// and worker wall time; the sink stores rows-out itself after finalization.
// With profiling off it returns fn unchanged and a nil trace.
func (pr *queryProfiler) sink(name string, fn produceFn) (produceFn, *opTrace) {
	t := pr.op(name, "")
	if t == nil {
		return fn, nil
	}
	wrapped := func(w int, m morsel) (any, error) {
		t.rowsIn.Add(int64(m.n()))
		t.morsels.Add(1)
		//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
		start := time.Now()
		out, err := fn(w, m)
		//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
		t.wall.Add(int64(time.Since(start)))
		return out, err
	}
	return wrapped, t
}

// tracedOp decorates a streamOp with trace accumulation. It forwards purity
// and binding untouched, so scheduling (worker counts, serial pipelines) is
// identical with profiling on — the differential suites verify results are
// too.
type tracedOp struct {
	inner streamOp
	t     *opTrace
}

func (o *tracedOp) bind(workers int) { o.inner.bind(workers) }
func (o *tracedOp) pure() bool       { return o.inner.pure() }
func (o *tracedOp) abort()           { o.inner.abort() }

// spillBase snapshots the query's spilled bytes before an operator call;
// only when spilling is enabled, so budget-free runs never touch the
// manager's lock.
func (o *tracedOp) spillBase(ctx *execContext) (int64, bool) {
	if !ctx.spill.Enabled() {
		return 0, false
	}
	return ctx.spill.Stats().SpilledBytes, true
}

func (o *tracedOp) apply(ctx *execContext, w int, m morsel) (morsel, error) {
	base, track := o.spillBase(ctx)
	//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
	start := time.Now()
	out, err := o.inner.apply(ctx, w, m)
	//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
	o.t.wall.Add(int64(time.Since(start)))
	o.t.morsels.Add(1)
	o.t.rowsIn.Add(int64(m.n()))
	if err != nil {
		return out, err
	}
	o.t.rowsOut.Add(int64(out.n()))
	if track {
		o.t.spillBytes.Add(ctx.spill.Stats().SpilledBytes - base)
	}
	return out, nil
}

func (o *tracedOp) flush(ctx *execContext, emit func(morsel) error) error {
	base, track := o.spillBase(ctx)
	//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
	start := time.Now()
	err := o.inner.flush(ctx, func(m morsel) error {
		o.t.rowsOut.Add(int64(m.n()))
		return emit(m)
	})
	//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
	o.t.wall.Add(int64(time.Since(start)))
	if track {
		o.t.spillBytes.Add(ctx.spill.Stats().SpilledBytes - base)
	}
	return err
}

// fill snapshots the profiler into dst at query end. mgr is the query's own
// spill manager (read before Cleanup) and ps its pipeline gauges, so
// dst.Spill is exactly the delta this execution folds into DB.SpillStats.
func (pr *queryProfiler) fill(dst *QueryProfile, cfg ExecConfig, mgr *spill.Manager, ps *pipeStats) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	dst.Workers = cfg.workers()
	if cfg.morselPinned() {
		dst.MorselSize = cfg.morsel()
	} else {
		dst.MorselSize = 0
	}
	dst.Vectorized = cfg.vectorized()
	//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
	dst.WallNanos = int64(time.Since(pr.start))
	dst.TruncatedOps = pr.truncated
	dst.Operators = dst.Operators[:0]
	for _, t := range pr.ops {
		dst.Operators = append(dst.Operators, OpProfile{
			Name:       t.name,
			Detail:     t.detail,
			RowsIn:     t.rowsIn.Load(),
			RowsOut:    t.rowsOut.Load(),
			Morsels:    t.morsels.Load(),
			WallNanos:  t.wall.Load(),
			SpillBytes: t.spillBytes.Load(),
		})
	}
	st := mgr.Stats()
	if ps != nil {
		st.PeakMorselBytes = ps.peak.Load()
		st.BreakerMaterializations = ps.breakers.Load()
	}
	dst.Spill = st
}

// scanDetail names a scan trace after the relation's leading qualifier
// (the base table or alias), or leaves it anonymous for intermediates.
func scanDetail(rel *relation) string {
	if len(rel.cols) > 0 && rel.cols[0].qual != "" {
		return rel.cols[0].qual
	}
	return ""
}
