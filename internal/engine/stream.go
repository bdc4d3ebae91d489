package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexdp/internal/spill"
	"flexdp/internal/sqlparser"
)

// Streaming morsel dataflow: instead of materializing a full relation between
// every pair of operators, the executor builds a pipeline — a base scan plus a
// chain of streamOps (filters, join probes) — and drives morsels through the
// whole chain producer→consumer. Pipeline breakers (join builds, grouped
// aggregation state, sorts) keep their existing spill-backed state as the
// back-pressure valve, so whole-query peak memory is bounded by the memory
// budget plus a window of in-flight morsels.
//
// Determinism contract (DESIGN.md, "Streaming dataflow"): per-morsel outputs
// are consumed strictly in morsel order by a single ordered consumer, the
// surfaced error is the lowest-numbered failing morsel's (matching runSpans),
// and every operator's per-morsel work is element-wise identical to its
// materialized counterpart — so results, including noisy DP outputs at a
// fixed seed, are bit-identical at any worker count, morsel size, budget, and
// vectorized toggle.

// morsel is one chunk of rows flowing through a pipeline. sel, when non-nil,
// is a selection vector of indices into rows (morsel-relative, ascending);
// nil means every row is selected.
type morsel struct {
	seq  int
	rows [][]Value
	sel  []int
}

// n returns the number of selected rows.
func (m morsel) n() int {
	if m.sel != nil {
		return len(m.sel)
	}
	return len(m.rows)
}

// dense returns the selected rows as a contiguous slice. With no selection it
// aliases rows (no copy); with one it gathers the selected row references.
func (m morsel) dense() [][]Value {
	if m.sel == nil {
		return m.rows
	}
	out := make([][]Value, len(m.sel))
	for i, ri := range m.sel {
		out[i] = m.rows[ri]
	}
	return out
}

// estMorselBytes estimates a morsel's in-flight footprint in O(1): the first
// selected row's estimated size times the selected count. Sampling keeps the
// hot path free of a per-row walk; the peak stat is an observability gauge,
// not an enforcement input.
func estMorselBytes(m morsel) int64 {
	n := m.n()
	if n == 0 {
		return 0
	}
	first := m.rows[0]
	if m.sel != nil {
		first = m.rows[m.sel[0]]
	}
	return estRowBytes(first) * int64(n)
}

// pipeStats gauges one execution's streaming dataflow: bytes held by
// in-flight morsels (with a CAS-maintained high-water mark) and the number of
// pipeline-breaker materializations. All methods are nil-receiver-safe so
// execContexts constructed directly by tests need no stats plumbing.
type pipeStats struct {
	inflight atomic.Int64
	peak     atomic.Int64
	breakers atomic.Int64
}

// add charges n bytes of in-flight state and advances the peak.
func (ps *pipeStats) add(n int64) {
	if ps == nil || n <= 0 {
		return
	}
	v := ps.inflight.Add(n)
	for {
		p := ps.peak.Load()
		if v <= p || ps.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// sub releases n bytes of in-flight state.
func (ps *pipeStats) sub(n int64) {
	if ps == nil || n <= 0 {
		return
	}
	ps.inflight.Add(-n)
}

// breaker records one pipeline-breaker materialization holding ~est bytes
// until the query ends (breaker state is only released wholesale when the
// execution finishes, so there is no matching sub).
func (ps *pipeStats) breaker(est int64) {
	if ps == nil {
		return
	}
	ps.breakers.Add(1)
	ps.add(est)
}

// streamOp is one streaming pipeline stage between the base scan and the
// consuming sink.
type streamOp interface {
	// bind sizes per-worker scratch state before the drive starts.
	bind(workers int)
	// pure reports whether apply may run on parallel workers. Impure ops
	// force the whole pipeline serial (order-dependent state, subqueries,
	// spill writers).
	pure() bool
	// apply transforms one morsel on worker w. It must be element-wise: the
	// output for a row depends only on that row (plus immutable op state), so
	// morsel boundaries never change results.
	apply(ctx *execContext, w int, m morsel) (morsel, error)
	// flush runs serially after every input morsel has been applied and
	// consumed. Emitted morsels flow through the downstream ops and then the
	// sink, in emission order (outer-join padding uses this).
	flush(ctx *execContext, emit func(morsel) error) error
	// abort releases any resources the op still holds (spill writers) after
	// a failed drive. Idempotent; a no-op after a successful flush.
	abort()
}

// pipeline is a base scan plus a chain of streaming operators. rel describes
// the schema of the morsels leaving the last operator (its rows are only
// meaningful when ops is empty, in which case rel == src).
type pipeline struct {
	src *relation
	rel *relation
	ops []streamOp
	// trace, when profiling is on, is the base scan's profile entry; the
	// drive (run / pipelineSource.Open) stores its morsel count there.
	trace *opTrace
	// fanout is the product of the build cardinalities of the pipeline's
	// key-less joins, each of which turns one probe row into that many pairs
	// (1: none), capped at maxFanout.
	fanout int
}

// maxFanout caps pipeline.fanout: beyond any span size, a larger divisor
// cannot shrink a morsel below its floor of one row.
const maxFanout = 1 << 30

// scanPipeline starts a pipeline at a materialized relation.
func (ctx *execContext) scanPipeline(rel *relation) *pipeline {
	p := &pipeline{src: rel, rel: rel, fanout: 1}
	if ctx.prof != nil {
		p.trace = ctx.prof.op("scan", scanDetail(rel))
		if p.trace != nil {
			p.trace.rowsOut.Store(int64(len(rel.rows)))
		}
	}
	return p
}

// push appends op, whose output schema is out.
func (p *pipeline) push(op streamOp, out *relation) {
	p.ops = append(p.ops, op)
	p.rel = out
}

func (p *pipeline) pure() bool {
	for _, op := range p.ops {
		if !op.pure() {
			return false
		}
	}
	return true
}

func (p *pipeline) abort() {
	for _, op := range p.ops {
		op.abort()
	}
}

// spans partitions the base scan into morsels sized for its row width, and
// divided by the fanout of its key-less joins so one morsel's join output
// stays near one span (at least one row per morsel).
func (p *pipeline) spans(ctx *execContext) []span {
	return morselSpans(len(p.src.rows), max(ctx.spanSize(len(p.src.cols))/p.fanout, 1))
}

// planWorkers returns the worker count run will use for this pipeline given
// whether the sink's produce stage is itself pure. Sinks size per-worker
// scratch from it.
func (p *pipeline) planWorkers(ctx *execContext, producePure bool) int {
	workers := spanWorkers(len(p.spans(ctx)), ctx.workers)
	if !producePure || !p.pure() {
		workers = 1
	}
	return workers
}

// streamWindowPerWorker bounds how many morsels may sit between the ordered
// consumer and the fastest producer, per worker: the back-pressure window
// that keeps whole-query in-flight memory proportional to workers, not input.
const streamWindowPerWorker = 4

// run drives every source morsel through the op chain, then produce (on a
// worker), then consume (on the single ordered consumer), strictly in morsel
// order. After the scan is exhausted the op flushes cascade: each op's flush
// emissions flow through the downstream ops and the same produce/consume.
//
// Error determinism matches runSpans: workers claim morsels from a monotonic
// cursor and stop claiming once any morsel fails, and the ordered consumer
// returns at the first failed slot it reaches — which, because claims are
// monotonic, is exactly the lowest-numbered failing morsel. Panics inside the
// chain are recovered into the claiming morsel's slot as *PanicError.
// Cancellation is polled before every claim. On any error the pipeline's ops
// are aborted before returning.
func (p *pipeline) run(ctx *execContext, producePure bool,
	produce func(w int, m morsel) (any, error), consume func(any) error) (err error) {
	defer func() {
		if err != nil {
			p.abort()
		}
	}()
	spans := p.spans(ctx)
	p.trace.setMorsels(len(spans))
	workers := spanWorkers(len(spans), ctx.workers)
	if !producePure || !p.pure() {
		workers = 1
	}
	for _, op := range p.ops {
		op.bind(workers)
	}

	// chain applies the op suffix starting at opIdx, then produce, charging
	// the produced morsel's footprint to the in-flight gauge.
	chain := func(w, opIdx int, m morsel) (any, int64, error) {
		var err error
		for _, op := range p.ops[opIdx:] {
			m, err = op.apply(ctx, w, m)
			if err != nil {
				return nil, 0, err
			}
		}
		est := estMorselBytes(m)
		ctx.pstats.add(est)
		payload, err := produce(w, m)
		if err != nil {
			ctx.pstats.sub(est)
			return nil, 0, err
		}
		return payload, est, nil
	}
	deliver := func(payload any, est int64) error {
		err := consume(payload)
		ctx.pstats.sub(est)
		return err
	}
	// Flush-emitted morsels continue the sequence numbering after the scan.
	seq := len(spans)
	flushCascade := func() error {
		for i, op := range p.ops {
			opIdx := i + 1
			err := op.flush(ctx, func(m morsel) error {
				if err := ctx.err(); err != nil {
					return err
				}
				m.seq = seq
				seq++
				payload, est, err := chain(0, opIdx, m)
				if err != nil {
					return err
				}
				return deliver(payload, est)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	if workers <= 1 {
		for mi, s := range spans {
			if err := ctx.err(); err != nil {
				return err
			}
			payload, est, err := chain(0, 0, morsel{seq: mi, rows: p.src.rows[s.lo:s.hi]})
			if err != nil {
				return err
			}
			if err := deliver(payload, est); err != nil {
				return err
			}
		}
		return flushCascade()
	}

	// Parallel ordered drive: workers claim morsels from next, bounded to a
	// window ahead of the consumer cursor base; the consumer drains slots in
	// seq order. Invariant: the claimed set is always [0, next), so a failing
	// morsel m implies every slot <= m was claimed and will complete — the
	// consumer always reaches the lowest failed slot without deadlock.
	type slot struct {
		payload any
		est     int64
		err     error
		done    bool
	}
	slots := make([]slot, len(spans))
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		next   int
		base   int
		failed bool
	)
	window := workers * streamWindowPerWorker
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				for !failed && next < len(spans) && next >= base+window {
					cond.Wait()
				}
				if failed || next >= len(spans) {
					mu.Unlock()
					return
				}
				mi := next
				next++
				mu.Unlock()

				var payload any
				var est int64
				err := ctx.err()
				if err == nil {
					func() {
						defer func() {
							if r := recover(); r != nil {
								err = toPanicError(r)
							}
						}()
						s := spans[mi]
						payload, est, err = chain(w, 0, morsel{seq: mi, rows: p.src.rows[s.lo:s.hi]})
					}()
				}
				mu.Lock()
				slots[mi] = slot{payload: payload, est: est, err: err, done: true}
				if err != nil {
					failed = true
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}(w)
	}

	var driveErr error
	mu.Lock()
	for base < len(spans) {
		for !slots[base].done {
			cond.Wait()
		}
		s := slots[base]
		slots[base] = slot{}
		base++
		cond.Broadcast()
		if s.err != nil {
			driveErr = s.err
			failed = true
			cond.Broadcast()
			break
		}
		mu.Unlock()
		err := deliver(s.payload, s.est)
		mu.Lock()
		if err != nil {
			driveErr = err
			failed = true
			cond.Broadcast()
			break
		}
	}
	mu.Unlock()
	wg.Wait()
	// Release in-flight charges of slots produced but never consumed.
	for i := range slots {
		if slots[i].done && slots[i].err == nil {
			ctx.pstats.sub(slots[i].est)
		}
	}
	if driveErr != nil {
		return driveErr
	}
	if err := ctx.err(); err != nil {
		return err
	}
	return flushCascade()
}

// morselSource is the pull face of the streaming dataflow: the operator
// interface later subsystems (optimizer, paged storage) plug into. Open
// snapshots the execution configuration, Next returns morsels until ok=false,
// Close releases whatever the source still holds.
type morselSource interface {
	Open(goctx context.Context, cfg ExecConfig) error
	Next() (morsel, bool, error)
	Close() error
}

// pipelineSource adapts a pipeline to morselSource, driving it serially on
// the caller's goroutine: spans pull through the op chain in order, then the
// op flushes cascade through their downstream ops into a pending queue.
type pipelineSource struct {
	ctx     *execContext
	p       *pipeline
	spans   []span
	next    int // next span to pull
	seq     int // next sequence number for flush-emitted morsels
	flushed int // ops whose flush has run
	queue   []morsel
	done    bool
}

func (p *pipeline) source(ctx *execContext) *pipelineSource {
	return &pipelineSource{ctx: ctx, p: p}
}

func (s *pipelineSource) Open(goctx context.Context, cfg ExecConfig) error {
	sub := *s.ctx
	sub.goctx = goctx
	sub.cfg = cfg
	sub.workers = 1
	sub.morsel = cfg.morsel()
	sub.pinned = cfg.morselPinned()
	sub.vector = cfg.vectorized()
	s.ctx = &sub
	s.spans = s.p.spans(s.ctx)
	s.p.trace.setMorsels(len(s.spans))
	s.seq = len(s.spans)
	for _, op := range s.p.ops {
		op.bind(1)
	}
	return nil
}

func (s *pipelineSource) Next() (morsel, bool, error) {
	fail := func(err error) (morsel, bool, error) {
		s.p.abort()
		s.done = true
		return morsel{}, false, err
	}
	for {
		if len(s.queue) > 0 {
			m := s.queue[0]
			s.queue = s.queue[1:]
			return m, true, nil
		}
		if s.done {
			return morsel{}, false, nil
		}
		if err := s.ctx.err(); err != nil {
			return fail(err)
		}
		if s.next < len(s.spans) {
			sp := s.spans[s.next]
			m := morsel{seq: s.next, rows: s.p.src.rows[sp.lo:sp.hi]}
			s.next++
			var err error
			for _, op := range s.p.ops {
				m, err = op.apply(s.ctx, 0, m)
				if err != nil {
					return fail(err)
				}
			}
			return m, true, nil
		}
		if s.flushed < len(s.p.ops) {
			i := s.flushed
			s.flushed++
			err := s.p.ops[i].flush(s.ctx, func(m morsel) error {
				m.seq = s.seq
				s.seq++
				out := m
				var err error
				for _, op := range s.p.ops[i+1:] {
					out, err = op.apply(s.ctx, 0, out)
					if err != nil {
						return err
					}
				}
				s.queue = append(s.queue, out)
				return nil
			})
			if err != nil {
				return fail(err)
			}
			continue
		}
		s.done = true
		return morsel{}, false, nil
	}
}

func (s *pipelineSource) Close() error {
	// Abort covers early close: ops that already flushed make it a no-op.
	s.p.abort()
	s.done = true
	return nil
}

// materializeStream runs the pipeline to completion and materializes its full
// output relation — a pipeline breaker, counted as such. It drains a join's
// parenthesised build side and serves the sinks that cannot stream; with no
// ops the base relation is returned as-is (a scan is already materialized).
func (ctx *execContext) materializeStream(p *pipeline) (*relation, error) {
	if len(p.ops) == 0 {
		return p.src, nil
	}
	st := ctx.prof.op("materialize", "")
	var stStart time.Time
	if st != nil {
		//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
		stStart = time.Now()
	}
	rows := make([][]Value, 0, len(p.src.rows))
	if p.pure() && ctx.workers > 1 {
		err := p.run(ctx, true,
			func(_ int, m morsel) (any, error) { return m, nil },
			func(payload any) error {
				rows = append(rows, payload.(morsel).dense()...)
				return nil
			})
		if err != nil {
			return nil, err
		}
	} else {
		src := p.source(ctx)
		if err := src.Open(ctx.goctx, ctx.cfg); err != nil {
			return nil, err
		}
		for {
			m, ok, err := src.Next()
			if err != nil {
				src.Close()
				return nil, err
			}
			if !ok {
				break
			}
			rows = append(rows, m.dense()...)
		}
		src.Close()
	}
	ctx.pstats.breaker(estRowsBytes(rows))
	if st != nil {
		st.rowsIn.Store(int64(len(p.src.rows)))
		st.rowsOut.Store(int64(len(rows)))
		//flexlint:ignore nondet profiling wall-clock; trace timings never influence execution results
		st.wall.Add(int64(time.Since(stStart)))
	}
	return &relation{cols: p.rel.cols, rows: rows}, nil
}

// ---- Filter operator ----

// filterOp applies the WHERE predicate per morsel, emitting a selection
// vector over the input rows (no row copying). The batch path runs the
// compiled kernel over each morsel; the scalar path evaluates row by row.
// Both stop a morsel at its first failing row, so with ordered consumption
// the surfaced error matches the serial loop.
type filterOp struct {
	scalar evalFn
	batch  batchExpr
	isPure bool
	bcs    []*batchCtx
	outs   []*vector
	ids    [][]int
}

// newFilterOp compiles where against rel, choosing the batch kernel in
// vectorized mode for a pure predicate and the row closure otherwise.
func (ctx *execContext) newFilterOp(rel *relation, where sqlparser.Expr) (*filterOp, error) {
	f := &filterOp{isPure: exprPure(where)}
	if ctx.vector && f.isPure {
		f.batch = compileBatchExpr(rel, ctx, where)
		return f, nil
	}
	fn, err := compileExpr(rel, ctx, where)
	if err != nil {
		return nil, err
	}
	f.scalar = fn
	return f, nil
}

func (f *filterOp) bind(n int) {
	f.bcs = make([]*batchCtx, n)
	f.outs = make([]*vector, n)
	f.ids = make([][]int, n)
}

func (f *filterOp) pure() bool                                   { return f.isPure }
func (f *filterOp) abort()                                       {}
func (f *filterOp) flush(*execContext, func(morsel) error) error { return nil }

func (f *filterOp) apply(ctx *execContext, w int, m morsel) (morsel, error) {
	if f.batch != nil {
		bc := f.bcs[w]
		if bc == nil {
			bc = &batchCtx{}
			f.bcs[w] = bc
			f.outs[w] = &vector{}
		}
		bc.rows = m.rows
		msel := m.sel
		if msel == nil {
			if len(f.ids[w]) < len(m.rows) {
				f.ids[w] = identitySel(len(m.rows))
			}
			msel = f.ids[w][:len(m.rows)]
		}
		out := f.outs[w]
		if _, err := f.batch(bc, msel, out); err != nil {
			return morsel{}, err
		}
		kept := make([]int, 0, len(msel))
		for i := range msel {
			if out.isTrue(i) {
				kept = append(kept, msel[i])
			}
		}
		return morsel{seq: m.seq, rows: m.rows, sel: kept}, nil
	}
	keep := func(ri int, row []Value, kept []int) ([]int, error) {
		v, err := f.scalar(row)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			kept = append(kept, ri)
		}
		return kept, nil
	}
	kept := make([]int, 0, m.n())
	var err error
	if m.sel != nil {
		for _, ri := range m.sel {
			if kept, err = keep(ri, m.rows[ri], kept); err != nil {
				return morsel{}, err
			}
		}
	} else {
		for ri, row := range m.rows {
			if kept, err = keep(ri, row, kept); err != nil {
				return morsel{}, err
			}
		}
	}
	return morsel{seq: m.seq, rows: m.rows, sel: kept}, nil
}

// ---- Join operators ----

// hashJoinOp streams the probe side of an in-memory hash join: the build
// index over the (materialized) right side is constructed up front — the
// join's pipeline breaker — and each left morsel probes it, emitting combined
// rows. A join without an equality key is the same operator on the empty
// key: every build row sits under "" in ascending order, so each probe row
// meets the whole build side in build order — the nested loop's pair order.
// Outer-join padding is deferred to flush: unmatched left rows buffer per
// morsel and emit in morsel order, then unmatched right rows, so the output
// is [matches..., left pads..., right pads...].
type hashJoinOp struct {
	probe      joinProbe
	rightRows  [][]Value
	resPure    bool
	padL, padR bool // the outer sides: which matched flags exist at all

	scratch []probeScratch // per worker
	padMu   sync.Mutex
	padBufs map[int][][]Value
}

func (o *hashJoinOp) bind(n int) {
	o.scratch = make([]probeScratch, n)
	o.padBufs = make(map[int][][]Value)
}

// pure gates the parallel probe: residuals may embed subquery state that is
// not worker-safe.
func (o *hashJoinOp) pure() bool { return o.resPure }
func (o *hashJoinOp) abort()     {}

func (o *hashJoinOp) apply(ctx *execContext, w int, m morsel) (morsel, error) {
	rows := m.dense()
	sc := &o.scratch[w]
	var ml []bool
	if o.padL {
		if cap(sc.ml) < len(rows) {
			sc.ml = make([]bool, len(rows))
		}
		ml = sc.ml[:len(rows)]
		clear(ml)
	}
	if o.padR && sc.mr == nil {
		sc.mr = make([]bool, len(o.rightRows))
	}
	out, err := o.probe.scan(rows, 0, len(rows), ml, sc.mr, sc)
	if err != nil {
		return morsel{}, err
	}
	var unmatched [][]Value
	for i, hit := range ml {
		if !hit {
			unmatched = append(unmatched, rows[i])
		}
	}
	if len(unmatched) > 0 {
		o.padMu.Lock()
		o.padBufs[m.seq] = unmatched
		o.padMu.Unlock()
	}
	return morsel{seq: m.seq, rows: out}, nil
}

func (o *hashJoinOp) flush(ctx *execContext, emit func(morsel) error) error {
	if o.padL {
		seqs := make([]int, 0, len(o.padBufs))
		for s := range o.padBufs {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		for _, s := range seqs {
			// One pad buffer holds at most one morsel's unmatched rows, so
			// polling per buffer is polling at morsel boundaries.
			if err := ctx.err(); err != nil {
				return err
			}
			src := o.padBufs[s]
			rows := make([][]Value, 0, len(src))
			for _, lr := range src {
				rows = append(rows, o.probe.pad(lr, true))
			}
			if err := emit(morsel{rows: rows}); err != nil {
				return err
			}
		}
	}
	if o.padR {
		matchedRight := make([]bool, len(o.rightRows))
		for i := range o.scratch {
			for ri, hit := range o.scratch[i].mr {
				if hit {
					matchedRight[ri] = true
				}
			}
		}
		var rows [][]Value
		for ri, hit := range matchedRight {
			if !hit {
				rows = append(rows, o.probe.pad(o.rightRows[ri], false))
			}
		}
		if len(rows) > 0 {
			if err := emit(morsel{rows: rows}); err != nil {
				return err
			}
		}
	}
	return nil
}

// graceJoinOp streams the probe side of an out-of-core Grace join. The build
// side is partitioned to disk at construction (level 0); apply streams probe
// rows straight into the probe partition writer, so the probe side never
// materializes in memory — the spill budget is the back-pressure valve.
// flush drains the partition pairs through the join's partitioner
// (gracePartition) and emits matches (merged back into serial probe order)
// then outer pads.
type graceJoinOp struct {
	kind      sqlparser.JoinKind
	st        *graceState // keys, kept columns and residuals as the spilled records see them
	rightRows [][]Value
	out       joinLayout // the output row over full input rows (outer padding)

	buildRuns []*spill.Run
	probe     *partWriter[idxRow]
	finished  bool

	keepLeft bool      // Left/Full: retain probe rows for padding
	padRows  [][]Value // retained probe rows (keepLeft only)
}

// graceRecordCols lists the columns one side's Grace records carry under a
// keep-list — the join keys first, then the kept columns — and returns the
// keep-list as positions in such a record. Without a keep-list (nil, nil)
// records carry the whole row.
func graceRecordCols(keyCol func(int) int, nKeys int, keep []int) (cols, recKeep []int) {
	for i := 0; i < nKeys; i++ {
		cols = append(cols, keyCol(i))
	}
	recKeep = make([]int, len(keep))
	for i, c := range keep {
		cols, recKeep[i] = append(cols, c), nKeys+i
	}
	return cols, recKeep
}

// newGraceJoinOp partitions the build side and opens the probe partition
// writer: the join's level-0 work and stats. It needs at least one key.
// With keep-lists the records of both sides are narrowed to key + kept
// columns, and the partition joins below level 0 run over those records.
func (ctx *execContext) newGraceJoinOp(kind sqlparser.JoinKind, probe joinProbe, right *relation) (*graceJoinOp, error) {
	keys := probe.keys
	leftCol := func(i int) int { return keys[i].leftIdx }
	rightCol := func(i int) int { return keys[i].rightIdx }
	st := &graceState{keys: keys, resFns: probe.resFns, width: probe.nLeft + probe.nRight}
	var leftCols, rightCols []int
	if probe.keepL != nil {
		recKeys := make([]equiKey, len(keys))
		for i := range recKeys {
			recKeys[i] = equiKey{leftIdx: i, rightIdx: i}
		}
		st.keys = recKeys
		leftCols, st.keepL = graceRecordCols(leftCol, len(keys), probe.keepL)
		rightCols, st.keepR = graceRecordCols(rightCol, len(keys), probe.keepR)
	}
	if err := ctx.err(); err != nil {
		return nil, err
	}
	rows := right.rows
	// estIdxRowsBytes of the position-tagged build rows.
	fanout := graceFanout(estRowsBytes(rows)+8*int64(len(rows)), ctx.spill.Budget())
	ctx.spill.NoteJoinSpill(fanout)
	ctx.pstats.breaker(0) // partitioned build state lives on disk
	buildRuns, err := spillSide(ctx, newIdxCodec(rightCol, len(keys), rightCols), 0, fanout, len(rows),
		func(i int) idxRow { return idxRow{idx: i, row: rows[i]} })
	if err != nil {
		return nil, err
	}
	probeW, err := newPartWriter[idxRow](ctx, newIdxCodec(leftCol, len(keys), leftCols), 0, fanout)
	if err != nil {
		releaseRuns(buildRuns)
		return nil, err
	}
	return &graceJoinOp{kind: kind, st: st, rightRows: rows, out: probe.joinLayout,
		buildRuns: buildRuns, probe: probeW,
		keepLeft: kind == sqlparser.JoinLeft || kind == sqlparser.JoinFull}, nil
}

func (o *graceJoinOp) bind(int) {}

// pure is false: apply appends to shared partition writers in left-row order.
func (o *graceJoinOp) pure() bool { return false }

func (o *graceJoinOp) abort() {
	if o.finished {
		return
	}
	o.finished = true
	o.probe.abort()
	releaseRuns(o.buildRuns)
}

func (o *graceJoinOp) apply(ctx *execContext, _ int, m morsel) (morsel, error) {
	for _, lr := range m.dense() {
		if o.keepLeft {
			o.padRows = append(o.padRows, lr)
		}
		// probe.n counts the probe rows routed so far: this row's index.
		if err := o.probe.write(idxRow{idx: o.probe.n, row: lr}); err != nil {
			return morsel{}, err
		}
	}
	// Matches are emitted at flush; mid-stream this op produces nothing.
	return morsel{seq: m.seq}, nil
}

func (o *graceJoinOp) flush(ctx *execContext, emit func(morsel) error) error {
	o.finished = true
	probeRuns, err := o.probe.finish()
	if err != nil {
		releaseRuns(o.buildRuns)
		return err
	}
	st := o.st
	st.matchedLeft = make([]bool, o.probe.n)
	st.matchedRight = make([]bool, len(o.rightRows))
	runs := [][]*spill.Run{o.buildRuns, probeRuns}
	if err := ctx.gracePartition(st).drain(ctx, 1, runs, len(o.rightRows)); err != nil {
		return err
	}
	if st.resErr != nil {
		return st.resErr
	}
	ctx.pstats.breaker(0) // match buffer materialized before emission
	chunk := ctx.spanSize(st.width)
	if err := st.emitMatches(ctx, chunk, emit); err != nil {
		return err
	}
	if o.keepLeft {
		var rows [][]Value
		for li, lr := range o.padRows {
			// padRows holds the whole left side; poll at morsel boundaries.
			if li%chunk == 0 {
				if err := ctx.err(); err != nil {
					return err
				}
			}
			if st.matchedLeft[li] {
				continue
			}
			rows = append(rows, o.out.pad(lr, true))
		}
		if len(rows) > 0 {
			if err := emit(morsel{rows: rows}); err != nil {
				return err
			}
		}
	}
	if o.kind == sqlparser.JoinRight || o.kind == sqlparser.JoinFull {
		var rows [][]Value
		for ri, hit := range st.matchedRight {
			if hit {
				continue
			}
			rows = append(rows, o.out.pad(o.rightRows[ri], false))
		}
		if len(rows) > 0 {
			if err := emit(morsel{rows: rows}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- FROM-clause pipeline construction ----

// buildFromPipeline evaluates the FROM clause, folded into one join tree
// (foldFrom), into a streaming pipeline under the SELECT body's plan. An
// empty FROM yields one empty row so that `SELECT 1` works.
func (ctx *execContext) buildFromPipeline(from sqlparser.TableExpr, plan *selectPlan) (*pipeline, error) {
	if from == nil {
		return ctx.scanPipeline(&relation{rows: [][]Value{{}}}), nil
	}
	return ctx.buildTablePipeline(from, plan)
}

// buildTablePipeline turns one table expression into a pipeline: joins become
// streaming probe operators over the left side's pipeline, everything else is
// a materialized scan (tables already are; CTEs and subqueries evaluate
// eagerly). The right side — the build side — materializes, as the hash join
// requires: a join there runs as its own pipeline and is drained. Conjuncts
// the plan pushed below a join run as an ordinary filter on the probe
// pipeline and as a row-reference selection of the build relation, before
// the join sees either input.
func (ctx *execContext) buildTablePipeline(te sqlparser.TableExpr, plan *selectPlan) (*pipeline, error) {
	t, ok := te.(*sqlparser.JoinExpr)
	if !ok {
		rel, err := ctx.buildTableExpr(te)
		if err != nil {
			return nil, err
		}
		return ctx.scanPipeline(rel), nil
	}
	p, err := ctx.buildTablePipeline(t.Left, plan)
	if err != nil {
		return nil, err
	}
	var right *relation
	if rt, ok := t.Right.(*sqlparser.JoinExpr); ok {
		rp, err := ctx.buildTablePipeline(rt, plan)
		if err != nil {
			return nil, err
		}
		right, err = ctx.materializeStream(rp)
		if err != nil {
			return nil, err
		}
	} else if right, err = ctx.buildTableExpr(t.Right); err != nil {
		return nil, err
	}
	jp := plan.join(t)
	buildRows := len(right.rows)
	if jp.pushLeft != nil {
		if err := ctx.pushFilter(p, jp.pushLeft, "pushed="+scanDetail(p.rel)); err != nil {
			return nil, err
		}
	}
	if jp.pushRight != nil {
		if right, err = ctx.filterRelation(right, jp.pushRight); err != nil {
			return nil, err
		}
	}
	return ctx.pushJoin(p, t, right, jp, buildRows)
}

// pushFilter appends the filter operator for pred to the pipeline.
func (ctx *execContext) pushFilter(p *pipeline, pred sqlparser.Expr, detail string) error {
	f, err := ctx.newFilterOp(p.rel, pred)
	if err != nil {
		return err
	}
	p.push(ctx.traceOp("filter", detail, f), p.rel)
	return nil
}

// filterRelation selects rel's rows passing the pure predicate pred, by
// reference and in input order.
func (ctx *execContext) filterRelation(rel *relation, pred sqlparser.Expr) (*relation, error) {
	var rows [][]Value
	if ctx.vector {
		sel, err := ctx.filterSel(rel, compileBatchExpr(rel, ctx, pred))
		if err != nil {
			return nil, err
		}
		rows = make([][]Value, len(sel))
		for i, ri := range sel {
			rows[i] = rel.rows[ri]
		}
	} else {
		fn, err := compileExpr(rel, ctx, pred)
		if err != nil {
			return nil, err
		}
		if rows, err = ctx.filterRows(rel.rows, fn); err != nil {
			return nil, err
		}
	}
	return &relation{cols: rel.cols, rows: rows, idx: rel.idx, sig: rel.sig}, nil
}

// pushJoin appends the streaming operator for one join. Its hash key is the
// ON or USING equalities, or a CROSS join's planned link; a join with none
// is keyed on the empty key. jp.keep narrows the join's output to the
// columns still read above it; buildRows is the build side's cardinality
// before jp.pushRight filtered it.
func (ctx *execContext) pushJoin(p *pipeline, t *sqlparser.JoinExpr, right *relation, jp joinPlan, buildRows int) (*pipeline, error) {
	left := p.rel
	var keys []equiKey
	var residual []sqlparser.Expr
	switch {
	case len(t.Using) > 0:
		for _, name := range t.Using {
			li, err := left.findCol("", name)
			if err != nil {
				return nil, fmt.Errorf("engine: USING column %q: %w", name, err)
			}
			ri, err := right.findCol("", name)
			if err != nil {
				return nil, fmt.Errorf("engine: USING column %q: %w", name, err)
			}
			keys = append(keys, equiKey{leftIdx: li, rightIdx: ri})
		}
	case t.On != nil:
		keys, residual = splitJoinCondition(t.On, left, right)
	case t.Kind == sqlparser.JoinCross:
		if jp.link != nil {
			keys, _ = splitJoinCondition(jp.link, left, right)
		}
	default:
		return nil, fmt.Errorf("engine: join without condition")
	}
	// ON conjuncts the plan moved below the join no longer need re-checking.
	residual = slices.DeleteFunc(residual, func(e sqlparser.Expr) bool { return slices.Contains(jp.onPushed, e) })

	// Output layout: the kept columns of each side, in order.
	probe := joinProbe{joinLayout: joinLayout{nLeft: len(left.cols), nRight: len(right.cols)},
		keys: keys, right: right.rows, vector: ctx.vector}
	cols := append(append([]relCol{}, left.cols...), right.cols...)
	if jp.keep != nil {
		lay := joinLayout{keepL: []int{}, keepR: []int{}}
		kept := make([]relCol, len(jp.keep))
		for i, pos := range jp.keep {
			kept[i] = cols[pos]
			if pos < len(left.cols) {
				lay.keepL = append(lay.keepL, pos)
			} else {
				lay.keepR = append(lay.keepR, pos-len(left.cols))
			}
		}
		lay.nLeft, lay.nRight = len(lay.keepL), len(lay.keepR)
		probe.joinLayout, cols = lay, kept
	}
	combined := &relation{cols: cols}
	probe.resFns = make([]evalFn, len(residual))
	for i, res := range residual {
		fn, err := compileExpr(combined, ctx, res)
		if err != nil {
			return nil, err
		}
		probe.resFns[i] = fn
	}
	var detail string
	if ctx.prof != nil {
		detail = fmt.Sprintf("build_rows=%d/%d keep=%d/%d", len(right.rows), buildRows,
			len(cols), len(left.cols)+len(right.cols))
	}

	// One empty key cannot be partitioned: a key-less join builds in memory
	// whatever the budget.
	if len(keys) > 0 && ctx.spill.Enabled() && ctx.spill.ShouldSpill(estRowsBytes(right.rows)) {
		op, err := ctx.newGraceJoinOp(t.Kind, probe, right)
		if err != nil {
			return nil, err
		}
		p.push(ctx.traceOp("grace_join", detail, op), combined)
		return p, nil
	}

	index, err := ctx.buildJoinIndex(keys, right.rows)
	if err != nil {
		return nil, err
	}
	probe.index = index
	ctx.pstats.breaker(estRowsBytes(right.rows))
	if len(keys) == 0 {
		p.fanout = min(p.fanout*max(len(right.rows), 1), maxFanout)
	}
	op := &hashJoinOp{probe: probe, rightRows: right.rows, resPure: exprsPure(residual),
		padL: t.Kind == sqlparser.JoinLeft || t.Kind == sqlparser.JoinFull,
		padR: t.Kind == sqlparser.JoinRight || t.Kind == sqlparser.JoinFull}
	p.push(ctx.traceOp("hash_join", detail, op), combined)
	return p, nil
}

// ---- Projection sinks ----

// projOut is one morsel's projected output rows and, when the statement has
// an ORDER BY, their sort keys.
type projOut struct {
	rows [][]Value
	keys [][]Value
}

// concatProjOuts joins the per-morsel outputs of a projection sink in morsel
// order into one exactly-sized slice of rows (and of sort keys when needSort).
func concatProjOuts(bufs []projOut, needSort bool) (rows, keys [][]Value) {
	total := 0
	for _, b := range bufs {
		total += len(b.rows)
	}
	rows = make([][]Value, 0, total)
	if needSort {
		keys = make([][]Value, 0, total)
	}
	for _, b := range bufs {
		rows = append(rows, b.rows...)
		if needSort {
			keys = append(keys, b.keys...)
		}
	}
	return rows, keys
}

// executeProjectionStream is the non-aggregated sink: each morsel leaving the
// pipeline projects to output rows (and ORDER BY keys) on a worker, and the
// ordered consumer collects them in morsel order, so output order is the
// scan's.
func (ctx *execContext) executeProjectionStream(stmt *sqlparser.SelectStmt, p *pipeline) (*ResultSet, [][]Value, error) {
	if ctx.vector && projectionPure(stmt) && projectionBatchWorthwhile(stmt) {
		return ctx.executeProjectionBatchStream(stmt, p)
	}
	rel := p.rel
	names, pspecs, err := buildProjSpecs(stmt, rel)
	if err != nil {
		return nil, nil, err
	}
	type colSpec struct {
		eval evalFn
		star bool
		from int
		upto int
	}
	specs := make([]colSpec, len(pspecs))
	for i, ps := range pspecs {
		if ps.star {
			specs[i] = colSpec{star: true, from: ps.from, upto: ps.upto}
			continue
		}
		fn, err := compileExpr(rel, ctx, ps.expr)
		if err != nil {
			return nil, nil, err
		}
		specs[i] = colSpec{eval: fn}
	}
	needSort := len(stmt.OrderBy) > 0
	var keyFns []sortKeyFn
	if needSort {
		fns, err := compileSortKeys(rel, ctx, stmt.OrderBy, names)
		if err != nil {
			return nil, nil, err
		}
		keyFns = fns
	}

	produce := func(_ int, m morsel) (any, error) {
		in := m.dense()
		rows := make([][]Value, 0, len(in))
		var keys [][]Value
		if needSort {
			keys = make([][]Value, 0, len(in))
		}
		for i, row := range in {
			if i%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return nil, err
				}
			}
			outRow := make([]Value, 0, len(names))
			for _, spec := range specs {
				if spec.star {
					outRow = append(outRow, row[spec.from:spec.upto]...)
					continue
				}
				v, err := spec.eval(row)
				if err != nil {
					return nil, err
				}
				outRow = append(outRow, v)
			}
			rows = append(rows, outRow)
			if needSort {
				key := make([]Value, len(keyFns))
				for k, fn := range keyFns {
					v, err := fn(row, outRow)
					if err != nil {
						return nil, err
					}
					key[k] = v
				}
				keys = append(keys, key)
			}
		}
		return projOut{rows: rows, keys: keys}, nil
	}
	var bufs []projOut
	produce, ptrace := ctx.prof.sink("project", produce)
	err = p.run(ctx, projectionPure(stmt), produce, func(payload any) error {
		bufs = append(bufs, payload.(projOut))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows, sortKeys := concatProjOuts(bufs, needSort)
	ptrace.setRowsOut(len(rows))
	return &ResultSet{Columns: names, Rows: rows}, sortKeys, nil
}

// executeProjectionBatchStream is the vectorized projection sink: per worker,
// every select-list expression and computed ORDER BY key evaluates as a batch
// kernel over the morsel's selection, and output rows materialize from the
// result vectors into one slab per morsel.
//
// Error determinism: within one morsel, each expression evaluates over the
// prefix the previous expressions completed (the batchExpr contract), so the
// surviving (row, expression) error is the first one the scalar row loop —
// which evaluates select items then sort keys left to right for each row —
// would hit; across morsels, the ordered consumer keeps the lowest failing
// morsel. Positional ORDER BY references out of range fail at the first row
// of the current prefix, matching the row path's error-on-first-evaluated-row.
func (ctx *execContext) executeProjectionBatchStream(stmt *sqlparser.SelectStmt, p *pipeline) (*ResultSet, [][]Value, error) {
	rel := p.rel
	names, specs, err := buildProjSpecs(stmt, rel)
	if err != nil {
		return nil, nil, err
	}
	vecSlot := make([]int, len(specs))
	nEval := 0
	for i, ps := range specs {
		vecSlot[i] = nEval
		if !ps.star {
			nEval++
		}
	}
	evals := make([]batchExpr, 0, nEval)
	for _, ps := range specs {
		if !ps.star {
			evals = append(evals, compileBatchExpr(rel, ctx, ps.expr))
		}
	}
	needSort := len(stmt.OrderBy) > 0
	var keySpecs []batchSortKey
	if needSort {
		keySpecs = compileBatchSortKeys(rel, ctx, stmt.OrderBy, names)
	}

	type projWorker struct {
		bc      *batchCtx
		vecs    []*vector
		keyVecs []*vector
		ids     []int
	}
	var pws []*projWorker
	width := len(names)
	produce := func(w int, m morsel) (any, error) {
		pw := pws[w]
		if pw == nil {
			pw = &projWorker{bc: &batchCtx{}}
			pw.vecs = make([]*vector, nEval)
			for i := range pw.vecs {
				pw.vecs[i] = &vector{}
			}
			pw.keyVecs = make([]*vector, len(keySpecs))
			for i := range pw.keyVecs {
				pw.keyVecs[i] = &vector{}
			}
			pws[w] = pw
		}
		pw.bc.rows = m.rows
		msel := m.sel
		if msel == nil {
			if len(pw.ids) < len(m.rows) {
				pw.ids = identitySel(len(m.rows))
			}
			msel = pw.ids[:len(m.rows)]
		}

		nOK := len(msel)
		var evalErr error
		for vi, fn := range evals {
			n, err := fn(pw.bc, msel[:nOK], pw.vecs[vi])
			if err != nil {
				nOK, evalErr = n, err
			}
		}
		for ki, ks := range keySpecs {
			if ks.eval != nil {
				n, err := ks.eval(pw.bc, msel[:nOK], pw.keyVecs[ki])
				if err != nil {
					nOK, evalErr = n, err
				}
				continue
			}
			if ks.check && (ks.pos < 0 || ks.pos >= width) && nOK > 0 {
				nOK, evalErr = 0, fmt.Errorf("engine: ORDER BY position %d out of range", ks.want)
			}
		}

		slab := make([]Value, 0, nOK*width)
		rows := make([][]Value, 0, nOK)
		for i := 0; i < nOK; i++ {
			off := len(slab)
			for si, ps := range specs {
				if ps.star {
					slab = append(slab, m.rows[msel[i]][ps.from:ps.upto]...)
					continue
				}
				slab = append(slab, pw.vecs[vecSlot[si]].value(i))
			}
			rows = append(rows, slab[off:len(slab):len(slab)])
		}
		po := projOut{rows: rows}
		if needSort {
			keys := make([][]Value, nOK)
			keySlab := make([]Value, nOK*len(keySpecs))
			for i := 0; i < nOK; i++ {
				key := keySlab[i*len(keySpecs) : (i+1)*len(keySpecs) : (i+1)*len(keySpecs)]
				for ki, ks := range keySpecs {
					if ks.eval != nil {
						key[ki] = pw.keyVecs[ki].value(i)
					} else {
						key[ki] = rows[i][ks.pos]
					}
				}
				keys[i] = key
			}
			po.keys = keys
		}
		if evalErr != nil {
			return nil, evalErr
		}
		return po, nil
	}
	pws = make([]*projWorker, p.planWorkers(ctx, true))
	var bufs []projOut
	produce, ptrace := ctx.prof.sink("project_vec", produce)
	err = p.run(ctx, true, produce, func(payload any) error {
		bufs = append(bufs, payload.(projOut))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows, sortKeys := concatProjOuts(bufs, needSort)
	ptrace.setRowsOut(len(rows))
	return &ResultSet{Columns: names, Rows: rows}, sortKeys, nil
}
