package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"flexdp/internal/core"
	"flexdp/internal/engine"
	"flexdp/internal/relalg"
	"flexdp/internal/server"
	"flexdp/internal/smooth"
	"flexdp/internal/sqlparser"
)

// Tracing here is done entirely from the benchmark's side: spans are
// recorded around calls into each layer's public functions, never inside the
// program. A traced run first repeats the workload with a handler-wrapping
// middleware (HTTP workloads), then replays the pipeline layer by layer on
// the same SQL, one span per call. Spans live in memory and are written out
// when the run ends. End-to-end metrics are never taken from a traced run.

const noParent = -1

// Span names. The layer prefix is the module name.
const (
	spanRequest      = "request"        // caller-observed (from due time on the open loop)
	spanHandler      = "server.handler" // middleware around Handler().ServeHTTP
	spanReplay       = "replay"         // envelope of the layers on this op's path
	spanProbe        = "probe"          // envelope of layers measured off the op's path
	spanDecode       = "server.decode"
	spanCanonical    = "server.canonical"
	spanEncode       = "server.encode"
	spanParse        = "sqlparser.parse"
	spanPrint        = "sqlparser.print"
	spanBuild        = "relalg.build"
	spanPoly         = "core.poly"
	spanSensAt       = "core.sens_at" // aggregated: Calls evaluations, End−Start their summed time
	spanSmooth       = "smooth.smooth"
	spanRelease      = "smooth.release" // aggregated over the op's released values
	spanBudget       = "smooth.budget_spend"
	spanAnalyze      = "flex.analyze"
	spanPrepare      = "flex.prepare"
	spanEnginePrep   = "engine.prepare"
	spanEngineExec   = "engine.exec"
	replaySampleSize = 300 // ops replayed per workload, evenly strided over the list
)

// span is one timed call. Spans of one operation share Req, its index in the
// op list. Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
	Self   int64  `json:"self_ns"` // filled when the trace is written
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// open starts an envelope span whose end is set by closeSpan.
func (t *tracer) open(name string, req, parent int) int {
	return t.add(span{Name: name, Req: req, Parent: parent, Start: t.at(time.Now())})
}

func (t *tracer) closeSpan(id int) {
	end := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, req, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(span{Name: name, Req: req, Parent: parent, Start: t.at(start), End: t.at(end)})
	return end.Sub(start)
}

// middleware records a handler span for every request that carries the op
// header (warm-up and untraced passes do not).
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		t.timed(spanHandler, req, noParent, func() { next.ServeHTTP(w, r) })
	})
}

// link parents every handler span under the request span of the same op.
// The request span is only complete once the response is read, so the
// middleware cannot know its id when the handler span is recorded.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	request := make(map[int]int)
	for _, s := range t.spans {
		if s.Name == spanRequest {
			request[s.Req] = s.ID
		}
	}
	for i := range t.spans {
		if t.spans[i].Name == spanHandler {
			if id, ok := request[t.spans[i].Req]; ok {
				t.spans[i].Parent = id
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// write stores the spans, each with its self time, as trace_<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	path := fmt.Sprintf("%s/trace_%s.json", dir, workload)
	for id, self := range selfTimes(t.spans) {
		t.spans[id].Self = self
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// engineCatalog is the harness-side relalg.Catalog over the engine schema.
type engineCatalog struct{ eng *engine.DB }

func (c engineCatalog) TableColumns(table string) ([]string, bool) {
	t := c.eng.Table(table)
	if t == nil {
		return nil, false
	}
	return t.Schema.Names(), true
}

// layers accumulates what the replay measured: per-op samples by metric
// name (for the _p50 figures) and run totals.
type layers struct {
	samples map[string][]float64
	totals  map[string]float64

	// Over the replayed ops: Σ request spans; Σ on-path layer spans plus
	// observed transport (coverage); and the on-path time of the engine,
	// the analysis front end and the perturbation (shares).
	requestNS, coveredNS, engineNS, frontendNS, perturbNS int64
}

func newLayers() *layers {
	return &layers{samples: make(map[string][]float64), totals: make(map[string]float64)}
}

func (l *layers) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// engineOps are the operator names QueryProfile emits today; wall time under
// any other name stays inside engine.untraced_ms_sum.
var engineOps = []string{"scan", "filter", "hash_join", "grace_join", "aggregate",
	"aggregate_spill", "project", "project_vec", "materialize"}

// replay re-runs op i's pipeline layer by layer on the same SQL, outside
// any measured phase and on one goroutine. Layers on the op's real path go
// under a "replay" envelope and count towards coverage:
//
//	cold (System.Run):  analyze, smooth, engine prepare, exec, release
//	HTTP cache miss:    decode, canonical, prepare, smooth, exec, release, budget, encode
//	HTTP cache hit:     the same without prepare and smooth
//	prepared (library): exec, release
//
// Layers the path skips, and those hidden inside a public call (parse,
// relalg and poly inside Analyze), go under a "probe" envelope, so every
// layer has a figure on every workload.
func (e *env) replay(tr *tracer, l *layers, i int, o *op, out *outcome, miss bool, requestNS, handlerNS int64) error {
	overHTTP := e.srv != nil
	cold := e.plan.spec.kind == kindCold
	swept := cold || (overHTTP && miss) // the Ŝ(k) sweep runs; otherwise bounds are memoized
	onPath := map[string]bool{
		spanDecode: overHTTP, spanCanonical: overHTTP, spanBudget: overHTTP, spanEncode: overHTTP,
		spanAnalyze: cold, spanEnginePrep: cold,
		spanPrepare:    overHTTP && miss,
		spanSmooth:     swept,
		spanEngineExec: true, spanRelease: true,
	}
	replayID := tr.open(spanReplay, i, noParent)
	probeID := tr.open(spanProbe, i, noParent)
	parentOf := func(name string) int {
		if onPath[name] {
			return replayID
		}
		return probeID
	}
	path := make(map[string]time.Duration) // on-path time by span name
	note := func(name string, d time.Duration) time.Duration {
		if onPath[name] {
			path[name] += d
		}
		return d
	}
	var err error
	measure := func(name string, fn func() error) time.Duration {
		return note(name, tr.timed(name, i, parentOf(name), func() {
			if e := fn(); e != nil && err == nil {
				err = fmt.Errorf("replay %s: %w", name, e)
			}
		}))
	}

	if overHTTP {
		var req server.QueryRequest
		l.sample("server.decode_us_p50", us(measure(spanDecode, func() error {
			return json.NewDecoder(bytes.NewReader(o.Body)).Decode(&req)
		})))
	}

	// canonicalSQL as the server does it: parse, then print.
	var stmt *sqlparser.SelectStmt
	canonID := tr.open(spanCanonical, i, parentOf(spanCanonical))
	canonStart := time.Now()
	parse := tr.timed(spanParse, i, canonID, func() { stmt, err = sqlparser.Parse(o.SQL) })
	if err != nil {
		return fmt.Errorf("replay parse: %w", err)
	}
	print := tr.timed(spanPrint, i, canonID, func() { _ = sqlparser.Print(stmt) })
	tr.closeSpan(canonID)
	canon := note(spanCanonical, time.Since(canonStart))
	l.sample("sqlparser.parse_us_p50", us(parse))
	l.sample("sqlparser.print_us_p50", us(print))
	l.sample("sqlparser.sql_bytes_per_op", float64(len(o.SQL)))
	if overHTTP {
		l.sample("server.canonical_us_p50", us(canon))
	}

	var q *relalg.Query
	l.sample("relalg.build_us_p50", us(measure(spanBuild, func() (e2 error) {
		q, e2 = relalg.Build(stmt, engineCatalog{e.eng})
		return e2
	})))
	if err != nil {
		return err
	}
	l.sample("relalg.joins_per_query", float64(relalg.JoinCount(q.Rel)))
	an := e.sys.Analyzer()
	l.sample("core.poly_us_p50", us(measure(spanPoly, func() error {
		_, e2 := an.SensitivityPoly(q)
		return e2
	})))

	// The public analysis surfaces: Analyze is on the cold path, Prepare
	// (Analyze plus the engine's plan compile) on the miss path.
	var degree int
	l.sample("flex.analyze_us_p50", us(measure(spanAnalyze, func() error {
		a, e2 := e.sys.Analyze(o.SQL)
		if e2 == nil {
			degree = a.Degree
		}
		return e2
	})))
	l.sample("flex.prepare_us_p50", us(measure(spanPrepare, func() error {
		_, e2 := e.sys.Prepare(o.SQL)
		return e2
	})))
	if err != nil {
		return err
	}

	// Definition 7 smoothing: Ŝ(k) for every k up to the Theorem 3 cutoff,
	// per output. System.Run walks the analyzer directly; a Prepared query
	// goes through a SensitivityCache, which is what a cache miss pays.
	p := smooth.PrivacyParams{Epsilon: epsilon, Delta: e.delta}
	n := e.eng.TotalRows()
	newSensAt := func() func(int) ([]float64, error) {
		if cold {
			return func(k int) ([]float64, error) { return an.SensitivityAt(q, k) }
		}
		return core.NewSensitivityCache(an, q).At
	}
	bounds := make([]smooth.Smoothed, len(q.Outputs))
	sensCalls := 0
	sensAt := newSensAt()
	smoothID := tr.open(spanSmooth, i, parentOf(spanSmooth))
	smoothStart := time.Now()
	for idx := range bounds {
		bounds[idx], err = smooth.SmoothWithCutoff(func(k int) (float64, error) {
			sensCalls++
			ss, err := sensAt(k)
			if err != nil {
				return 0, err
			}
			return ss[idx], nil
		}, degree, n, p)
		if err != nil {
			return fmt.Errorf("replay smooth: %w", err)
		}
	}
	tr.closeSpan(smoothID)
	l.sample("smooth.smooth_us_p50", us(note(spanSmooth, time.Since(smoothStart))))
	// The same evaluations once more without the maximisation around them:
	// their time, laid over the start of the sweep, is its aggregated child
	// span (a clock read per evaluation would cost a tenth of it).
	cutoff := smooth.CutoffK(degree, smooth.Beta(p), n)
	sensAt = newSensAt()
	sensStart := time.Now()
	for range bounds {
		for k := 0; k <= cutoff; k++ {
			if _, err := sensAt(k); err != nil {
				return fmt.Errorf("replay sensitivity at %d: %w", k, err)
			}
		}
	}
	sensBusy := time.Since(sensStart)
	tr.add(span{Name: spanSensAt, Req: i, Parent: smoothID, Calls: sensCalls,
		Start: tr.at(smoothStart), End: tr.at(smoothStart.Add(sensBusy))})
	l.sample("smooth.cutoff_k_p50", float64(cutoff))
	l.sample("core.sens_calls_per_query", float64(sensCalls))
	l.sample("core.sens_at_us_p50", us(sensBusy)/float64(sensCalls))

	var pq *engine.PreparedQuery
	l.sample("engine.prepare_us_p50", us(measure(spanEnginePrep, func() (e2 error) {
		pq, e2 = e.eng.Prepare(o.SQL)
		return e2
	})))
	if err != nil {
		return err
	}
	// The first execution of a prepared query compiles its plans. System.Run
	// and a cache miss pay that inside the execution; a cache hit and a
	// Prepared.Run do not, so for them the plan cache is filled first.
	cfg := e.eng.ExecConfig()
	if !swept {
		if _, err := pq.ExecContextConfig(context.Background(), cfg); err != nil {
			return fmt.Errorf("replay engine warm exec: %w", err)
		}
	}
	exec := measure(spanEngineExec, func() error {
		_, e2 := pq.ExecContextConfig(context.Background(), cfg)
		return e2
	})
	l.sample("engine.exec_ms_p50", ms(exec))
	// Operator figures come from one more, profiled execution outside every
	// span: the profile decorates each operator, which a real request does
	// not pay.
	prof := new(engine.QueryProfile)
	cfg.Profile = prof
	profStart := time.Now()
	if _, e2 := pq.ExecContextConfig(context.Background(), cfg); e2 != nil && err == nil {
		err = fmt.Errorf("replay profiled exec: %w", e2)
	}
	profiled := time.Since(profStart)
	if err != nil {
		return err
	}
	opWall := int64(0)
	for _, op := range prof.Operators {
		for _, known := range engineOps {
			if op.Name == known {
				l.totals["engine.op."+known+".wall_ms_sum"] += float64(op.WallNanos) / 1e6
				l.totals["engine.op."+known+".rows_in_sum"] += float64(op.RowsIn)
				l.totals["engine.op."+known+".rows_out_sum"] += float64(op.RowsOut)
				opWall += op.WallNanos
			}
		}
		l.totals["engine.morsels_sum"] += float64(op.Morsels)
	}
	l.totals["engine.untraced_ms_sum"] += float64(profiled.Nanoseconds()-opWall) / 1e6
	l.totals["engine.breaker_materializations"] += float64(prof.Spill.BreakerMaterializations)
	if b := float64(prof.Spill.PeakMorselBytes); b > l.totals["engine.peak_morsel_bytes"] {
		l.totals["engine.peak_morsel_bytes"] = b
	}

	// Perturbation: one Sampler.Release per value the real answer released.
	// The first output's bound stands for all; the cost does not depend on it.
	values := 0
	var resp server.QueryResponse
	if overHTTP {
		if e2 := json.Unmarshal(out.bodies[i], &resp); e2 != nil {
			return fmt.Errorf("replay decode response: %w", e2)
		}
		for _, row := range resp.Rows {
			values += len(row) - (len(resp.Columns) - len(q.Outputs))
		}
	} else {
		for _, row := range out.results[i].Rows {
			values += len(row.Values)
		}
	}
	sampler := smooth.NewMechanism(derive(e.plan.seed, streamNoise)).Fork(uint64(i))
	release := measure(spanRelease, func() error {
		for v := 0; v < values; v++ {
			_ = sampler.Release(float64(v), bounds[0], epsilon)
		}
		return nil
	})
	if values > 0 {
		l.sample("smooth.release_ns_p50", float64(release.Nanoseconds())/float64(values))
	}

	if overHTTP {
		budget := smooth.NewBudget(1e12, 0.5)
		l.sample("smooth.budget_spend_ns_p50", float64(measure(spanBudget, func() error {
			return budget.Spend(epsilon, e.delta)
		}).Nanoseconds()))
		l.sample("server.encode_us_p50", us(measure(spanEncode, func() error {
			return json.NewEncoder(io.Discard).Encode(resp)
		})))
		l.sample("server.response_bytes_per_op", float64(len(out.bodies[i])))
	}
	tr.closeSpan(replayID)
	tr.closeSpan(probeID)
	if err != nil {
		return err
	}

	// Shares of the caller-observed request span. Transport (request −
	// handler) was observed, not replayed, so it counts as covered. Prepare
	// contains the engine's plan compile; the front-end share counts it, as
	// the issue does ("sqlparser + relalg + core + smooth + prepare").
	covered := int64(0)
	for _, d := range path {
		covered += d.Nanoseconds()
	}
	if overHTTP {
		covered += requestNS - handlerNS
	}
	l.requestNS += requestNS
	l.coveredNS += covered
	l.engineNS += (path[spanEngineExec] + path[spanEnginePrep]).Nanoseconds()
	l.frontendNS += (path[spanAnalyze] + path[spanPrepare] + path[spanSmooth]).Nanoseconds()
	l.perturbNS += path[spanRelease].Nanoseconds()
	return nil
}

// health is the part of GET /healthz the per-layer metrics read.
type health struct {
	Cached    int    `json:"prepared_cached"`
	Hits      uint64 `json:"cache_hits"`
	Misses    uint64 `json:"cache_misses"`
	Lifecycle struct {
		Shed     uint64 `json:"shed"`
		TimedOut uint64 `json:"timed_out"`
	} `json:"lifecycle"`
}

func (e *env) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (e *env) health() (health, error) {
	var h health
	body, err := e.get("/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}
