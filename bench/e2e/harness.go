package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	flex "flexdp"
	"flexdp/internal/engine"
	"flexdp/internal/server"
	"flexdp/internal/smooth"
	"flexdp/internal/workload"
)

// spillBudget is tpch_spill's per-query operator-state budget: small enough
// that every join build and grouped aggregation over the 86 k-row TPC-H
// tables goes through the spill files.
const spillBudget = 2 << 20

// opHeader carries the op's list index to the tracing middleware, so a
// handler span can be tied to the caller's request span.
const opHeader = "X-Bench-Op"

// env is one set-up instance of a workload: database, system, and — for the
// HTTP workloads — the in-process server and its keep-alive client.
type env struct {
	plan  *plan
	eng   *engine.DB
	sys   *flex.System
	delta float64
	conns int // client goroutines = keep-alive connections

	prepared []*flex.Prepared // kindPrepared: one per plan query

	svc    *server.Server
	srv    *httptest.Server
	client *http.Client

	spillDir string // private temp dir of this instance ("" if none)

	generateMS, collectMS float64
}

// setUp builds a workload instance — data generation, metrics collection,
// server start, warm-up — and returns it with the seconds that took. tr is
// the span recorder of a traced run, or nil.
func setUp(p *plan, workDir string, tr *tracer) (*env, float64, error) {
	start := time.Now()
	e := &env{plan: p, conns: maxProcs()}

	t := time.Now()
	e.eng = p.generateData()
	e.generateMS = msSince(t)

	opts := flex.Options{Seed: derive(p.seed, streamNoise)}
	if p.tpch {
		dir, err := os.MkdirTemp(workDir, "spill-")
		if err != nil {
			return nil, 0, fmt.Errorf("spill temp dir: %w", err)
		}
		e.spillDir = dir
		opts.MemoryBudget = spillBudget
		opts.TempDir = dir
	}
	e.sys = flex.NewSystem(flex.WrapEngine(e.eng), opts)
	if p.tpch {
		e.sys.MarkPublic(workload.TPCHPublicTables()...)
	} else {
		e.sys.MarkPublic(workload.RidesharePublicTables()...)
		for _, c := range [][2]string{{"trips", "city_id"}, {"drivers", "home_city"}, {"analytics", "city_id"}} {
			e.sys.SetBinDomain(c[0], c[1], cityDomain())
		}
	}
	t = time.Now()
	e.sys.CollectMetrics()
	e.collectMS = msSince(t)
	e.delta = smooth.DeltaForSize(e.eng.TotalRows())

	switch p.spec.kind {
	case kindPrepared:
		for _, q := range p.queries {
			prep, err := e.sys.Prepare(q.SQL)
			if err != nil {
				e.close()
				return nil, 0, fmt.Errorf("prepare %s: %w", q.Class, err)
			}
			e.prepared = append(e.prepared, prep)
		}
	case kindClosed, kindOpen:
		// Budgets are tracked per analyst but never bind: the benchmark
		// measures accounting cost, not refusals.
		e.svc = server.NewWithConfig(e.sys, nil, server.Config{
			DefaultDelta:   e.delta,
			AnalystEpsilon: 1e12,
			AnalystDelta:   0.5,
		})
		h := e.svc.Handler()
		if tr != nil {
			h = tr.middleware(h)
		}
		e.srv = httptest.NewServer(h)
		e.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        e.conns,
			MaxIdleConnsPerHost: e.conns,
		}}
	}

	// Warm-up: run and discard. It is closed-loop on every workload (an open
	// schedule has nothing to say about a cache fill), and untraced.
	warm := e.run(p.warm, false, time.Minute, nil)
	for i, f := range warm.fail {
		if f != "" {
			e.close()
			return nil, 0, fmt.Errorf("warm-up op %d (%s): %s", i, p.queries[p.warm[i].Query].Class, f)
		}
	}
	return e, time.Since(start).Seconds(), nil
}

// close stops the server, drops idle connections and removes the spill
// directory, reporting how many files were left in it.
func (e *env) close() (leakedFiles int) {
	if e.srv != nil {
		e.client.CloseIdleConnections()
		e.srv.Close()
		e.srv = nil
	}
	if e.spillDir != "" {
		if entries, err := os.ReadDir(e.spillDir); err == nil {
			leakedFiles = len(entries)
		}
		_ = os.RemoveAll(e.spillDir) // best effort; the caller removes the work dir too
		e.spillDir = ""
	}
	return leakedFiles
}

// maxProcs is both GOMAXPROCS and the load generator's width (one goroutine
// and keep-alive connection per CPU): at most four, because server and
// generator share the process and a large host must not turn the closed
// loops into a different workload.
func maxProcs() int { return min(runtime.NumCPU(), 4) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// outcome is what one pass over an op list produced, index-aligned with it.
type outcome struct {
	done    []bool                // op was issued (all true unless the limit cut the pass short)
	latMS   []float64             // caller-observed; from due time on the open loop
	fail    []string              // "" or why the op failed
	results []*flex.PrivateResult // library workloads
	bodies  [][]byte              // HTTP workloads: 200 response bodies
	lagMS   []float64             // open loop: how late the generator fired, for ops it was waiting on

	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes an op list once against the instance and returns the
// outcome with wall, CPU and allocation deltas around it. open selects the
// arrival schedule (ops' Due offsets) over closed-loop pacing. limit stops
// issuing ops once the pass has run that long — a guard for a machine far
// slower than the reference, so a run always ends; ops never issued are not
// attempted. tr, when non-nil, receives one request span per op.
func (e *env) run(ops []op, open bool, limit time.Duration, tr *tracer) *outcome {
	out := &outcome{
		done:  make([]bool, len(ops)),
		latMS: make([]float64, len(ops)),
		fail:  make([]string, len(ops)),
	}
	library := e.srv == nil
	if library {
		out.results = make([]*flex.PrivateResult, len(ops))
	} else {
		out.bodies = make([][]byte, len(ops))
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()

	var next atomic.Int64
	var lagMu sync.Mutex
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ops) || time.Since(start) > limit {
				return
			}
			out.done[i] = true
			o := &ops[i]
			began := time.Now()
			if open {
				due := start.Add(o.Due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					lag := msSince(due)
					lagMu.Lock()
					out.lagMS = append(out.lagMS, lag)
					lagMu.Unlock()
				}
				began = due
			}
			var err error
			if library {
				out.results[i], err = e.runLibrary(o)
			} else {
				out.bodies[i], err = e.post(i, o, tr != nil)
			}
			end := time.Now()
			out.latMS[i] = ms(end.Sub(began))
			if err != nil {
				out.fail[i] = err.Error()
			}
			if tr != nil {
				tr.add(span{Name: spanRequest, Req: i, Parent: noParent, Start: tr.at(began), End: tr.at(end)})
			}
		}
	}
	workers := e.conns
	if library {
		workers = 1 // one caller
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()

	out.wall = time.Since(start)
	out.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	out.mallocs = after.Mallocs - before.Mallocs
	out.gcCycles = after.NumGC - before.NumGC
	out.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	return out
}

func (e *env) runLibrary(o *op) (*flex.PrivateResult, error) {
	if e.prepared != nil {
		return e.prepared[o.Query].Run(epsilon, e.delta)
	}
	return e.sys.Run(o.SQL, epsilon, e.delta)
}

// post sends one POST /query and returns the body of a 200 answer.
func (e *env) post(i int, o *op, traced bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.srv.URL+"/query", bytes.NewReader(o.Body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.AnalystHeader, o.Analyst)
	if traced {
		req.Header.Set(opHeader, strconv.Itoa(i))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// noiseTolerance is how many Laplace scales a noisy HTTP answer may sit from
// the true one: P(|Lap(b)| > 40b) = e⁻⁴⁰, so a correct server never trips it.
const noiseTolerance = 40

// attempted counts the ops the pass issued.
func (o *outcome) attempted() int {
	n := 0
	for _, d := range o.done {
		if d {
			n++
		}
	}
	return n
}

// failed counts the issued ops that errored or failed verification.
func (o *outcome) failed() int {
	n := 0
	for i, f := range o.fail {
		if o.done[i] && f != "" {
			n++
		}
	}
	return n
}

// verify checks every attempted op's answer against the oracle and marks
// mismatches in out.fail. It runs after the measured phase, outside every
// timer and counter. Library answers must reproduce the oracle's rows in
// TrueRows exactly; HTTP answers must have the right shape and bins, and
// noisy values within noiseTolerance Laplace scales of the truth.
func (e *env) verify(ops []op, out *outcome) {
	t := tables{db: e.eng}
	answers := make(map[int]answer)       // by query index
	tolerance := make(map[string]float64) // HTTP: by class
	for i := range ops {
		if !out.done[i] || out.fail[i] != "" {
			continue
		}
		q := e.plan.queries[ops[i].Query]
		want, ok := answers[ops[i].Query]
		if !ok {
			want = q.Want(t)
			answers[ops[i].Query] = want
		}
		var got released
		tol := 0.0
		if out.results != nil {
			got = fromLibrary(out.results[i])
		} else {
			var err error
			if got, err = fromHTTP(out.bodies[i], len(want.cols)-1); err != nil {
				out.fail[i] = err.Error()
				continue
			}
			if tol, ok = tolerance[q.Class]; !ok {
				var err error
				if tol, err = e.noiseBound(q.SQL); err != nil {
					out.fail[i] = err.Error()
					continue
				}
				tolerance[q.Class] = tol
			}
		}
		if err := want.check(got, tol); err != nil {
			out.fail[i] = fmt.Sprintf("%s: %v", q.Class, err)
		}
	}
}

// noiseBound returns noiseTolerance Laplace scales for a query, from the
// public analysis surface. Elastic sensitivity ignores filter literals, so
// one instance stands for its whole class.
func (e *env) noiseBound(sql string) (float64, error) {
	a, err := e.sys.Analyze(sql)
	if err != nil {
		return 0, fmt.Errorf("analyze for noise bound: %w", err)
	}
	sm, err := e.sys.SmoothBound(a, 0, smooth.PrivacyParams{Epsilon: epsilon, Delta: e.delta})
	if err != nil {
		return 0, fmt.Errorf("smooth bound: %w", err)
	}
	return noiseTolerance * sm.NoiseScale(epsilon), nil
}

func fromLibrary(res *flex.PrivateResult) released {
	got := released{cols: res.Columns, vals: res.TrueRows, enumerated: res.BinsEnumerated}
	for _, r := range res.Rows {
		got.bins = append(got.bins, r.Bins)
	}
	return got
}

// fromHTTP decodes a /query answer; the first nBins cells of each row are
// bin labels, the rest noisy values.
func fromHTTP(body []byte, nBins int) (released, error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return released{}, fmt.Errorf("decode response: %w", err)
	}
	got := released{cols: resp.Columns, enumerated: resp.BinsEnumerated}
	for _, row := range resp.Rows {
		if len(row) < nBins {
			return released{}, fmt.Errorf("row has %d cells, want at least %d bins", len(row), nBins)
		}
		vals := make([]float64, 0, len(row)-nBins)
		for _, cell := range row[nBins:] {
			v, ok := cell.(float64)
			if !ok {
				return released{}, fmt.Errorf("value cell %v is not a number", cell)
			}
			vals = append(vals, v)
		}
		got.bins = append(got.bins, row[:nBins])
		got.vals = append(got.vals, vals)
	}
	return got, nil
}
