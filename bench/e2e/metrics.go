package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"flexdp/internal/spill"
)

// metricDef names a metric and its unit. BENCHMARK.json repeats the names
// with direction and bound; a test keeps the two lists equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, reported per
// workload from the untraced run. The issue's failed_ratio is reported as
// its complement verified_ratio (a gated metric may never be 0); the raw
// counts are the result's attempted and failed.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // data generation + CollectMetrics + server start + warm-up; median of setupRepeats
	{"throughput_qps", "1/s"},   // verified-correct ops per second of measured wall time
	{"latency_ms_p50", "ms"},    // caller-observed; from due time on server_open
	{"latency_ms_p90", "ms"},    //
	{"latency_ms_p99", "ms"},    // steps down to the highest rank with ten samples beyond it
	{"cpu_ms_per_op", "ms"},     // process user+sys CPU (getrusage) ÷ ops, harness included
	{"alloc_kb_per_op", "KiB"},  // runtime.MemStats TotalAlloc delta ÷ ops, harness included
	{"allocs_per_op", "count"},  // runtime.MemStats Mallocs delta ÷ ops, harness included
	{"verified_ratio", "ratio"}, // ops answered and verified ÷ ops attempted = 1 − failed_ratio
}

// perLayer are the traced run's metrics. _p50 is over replayed ops, _sum over
// the replayed ops of the run; the README says which end-to-end metric each
// should move and on which workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.handler_ms_p50", "ms"}, {"server.transport_ms_p50", "ms"},
		{"server.decode_us_p50", "us"}, {"server.canonical_us_p50", "us"}, {"server.encode_us_p50", "us"},
		{"server.response_bytes_per_op", "B"}, {"server.cache_hit_ratio", "ratio"},
		{"server.cache_entries", "count"}, {"server.shed_total", "count"}, {"server.timedout_total", "count"},
		{"sqlparser.parse_us_p50", "us"}, {"sqlparser.print_us_p50", "us"}, {"sqlparser.sql_bytes_per_op", "B"},
		{"relalg.build_us_p50", "us"}, {"relalg.joins_per_query", "count"},
		{"core.poly_us_p50", "us"}, {"core.sens_at_us_p50", "us"}, {"core.sens_calls_per_query", "count"},
		{"smooth.smooth_us_p50", "us"}, {"smooth.cutoff_k_p50", "count"},
		{"smooth.release_ns_p50", "ns"}, {"smooth.budget_spend_ns_p50", "ns"},
		{"flex.analyze_us_p50", "us"}, {"flex.prepare_us_p50", "us"},
		{"flex.analysis_ms_sum", "ms"}, {"flex.exec_ms_sum", "ms"}, {"flex.perturb_ms_sum", "ms"},
		{"flex.overhead_pct", "%"}, {"flex.self_us_p50", "us"},
		{"engine.prepare_us_p50", "us"}, {"engine.exec_ms_p50", "ms"},
	}
	for _, op := range engineOps {
		defs = append(defs,
			metricDef{"engine.op." + op + ".wall_ms_sum", "ms"},
			metricDef{"engine.op." + op + ".rows_in_sum", "count"},
			metricDef{"engine.op." + op + ".rows_out_sum", "count"})
	}
	return append(defs, []metricDef{
		{"engine.morsels_sum", "count"}, {"engine.untraced_ms_sum", "ms"},
		{"engine.breaker_materializations", "count"}, {"engine.peak_morsel_bytes", "B"},
		{"spill.bytes_written", "B"}, {"spill.records", "count"}, {"spill.files", "count"},
		{"spill.join_spills", "count"}, {"spill.join_partitions", "count"}, {"spill.join_recursions", "count"},
		{"spill.agg_spills", "count"}, {"spill.agg_partitions", "count"},
		{"spill.over_budget_builds", "count"}, {"spill.leaked_files", "count"},
		{"workload.generate_ms", "ms"}, {"metrics.collect_ms", "ms"}, {"telemetry.scrape_ms", "ms"},
		{"process.peak_rss_mb", "MiB"}, {"process.gc_cycles", "count"}, {"process.gc_pause_ms_sum", "ms"},
		{"loadgen.sched_lag_ms_p99", "ms"}, {"loadgen.utilisation_pct", "%"},
		{"loadgen.ladder.r30.latency_ms_p99", "ms"}, {"loadgen.ladder.r60.latency_ms_p99", "ms"},
		{"loadgen.ladder.r120.latency_ms_p99", "ms"}, {"loadgen.max_rate_ok_qps", "1/s"},
		{"trace.coverage_pct", "%"}, {"trace.overhead_pct", "%"},
		{"trace.share.engine_pct", "%"}, {"trace.share.frontend_pct", "%"}, {"trace.share.server_pct", "%"},
	}...)
}()

// setupRepeats is how many times the command's untraced run sets the workload
// up: setup_s is the median, the last instance is the one measured.
const setupRepeats = 3

// passLimit bounds one pass over an op list: generous against the sizing
// calibration, so it only ever cuts a pass on a machine several times slower
// than the reference.
func passLimit(seconds float64) time.Duration {
	return time.Duration((3*seconds + 10) * float64(time.Second))
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench/e2e: undeclared metric " + name)
}

// latencies returns the ascending caller-observed latencies of a pass. A
// failed op counts as missing every latency figure: it is entered at the
// pass's whole wall time, above any real sample.
func latencies(out *outcome) []float64 {
	var lat []float64
	for i, d := range out.done {
		switch {
		case !d:
		case out.fail[i] != "":
			lat = append(lat, ms(out.wall))
		default:
			lat = append(lat, out.latMS[i])
		}
	}
	return sortedCopy(lat)
}

// classStats summarises a pass per query class: how many ops and their
// median latency. Informative — it shows which class each gated percentile
// reads — and not part of any metric.
func classStats(p *plan, out *outcome) []classStat {
	by := make(map[string][]float64)
	for i, o := range p.ops {
		if out.done[i] && out.fail[i] == "" {
			c := p.queries[o.Query].Class
			by[c] = append(by[c], out.latMS[i])
		}
	}
	var stats []classStat
	for _, c := range sortedClasses(p.queries) {
		if xs := by[c]; len(xs) > 0 {
			stats = append(stats, classStat{Class: c, Ops: len(xs), LatencyMSP50: median(xs)})
		}
	}
	return stats
}

// sortedClasses returns the distinct classes of a query list, sorted.
func sortedClasses(qs []query) []string {
	seen := make(map[string]bool)
	var out []string
	for _, q := range qs {
		if !seen[q.Class] {
			seen[q.Class] = true
			out = append(out, q.Class)
		}
	}
	sort.Strings(out)
	return out
}

// runUntraced sets the workload up setups times (setup_s is their median),
// measures one pass over the fixed list on the last instance, verifies every
// answer, and fills rec with the end-to-end metrics.
func runUntraced(rec *record, p *plan, seconds float64, setups int, workDir string) error {
	s := p.spec
	var e *env
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		var secs float64
		var err error
		if e, secs, err = setUp(p, workDir, nil); err != nil {
			return err
		}
		setupSecs = append(setupSecs, secs)
	}
	out := e.run(p.ops, s.kind == kindOpen, passLimit(seconds), nil)
	e.verify(p.ops, out)
	leaked := e.close()

	rec.Attempted, rec.Failed = out.attempted(), out.failed()
	rec.Errors = firstErrors(out, 5)
	rec.Classes = classStats(p, out)
	if leaked > 0 {
		rec.Errors = append(rec.Errors, fmt.Sprintf("%d spill files left in the temp dir", leaked))
	}
	rec.Correct = rec.Failed == 0 && leaked == 0 && rec.Attempted == len(p.ops)
	if rec.Attempted < len(p.ops) {
		rec.Errors = append(rec.Errors, fmt.Sprintf("pass limit reached: %d of %d ops issued", rec.Attempted, len(p.ops)))
	}

	ops := float64(rec.Attempted)
	lat := latencies(out)
	rec.Samples = make(map[string]int)
	rec.Metrics = make(map[string]metricValue)
	set := func(name string, v float64) { rec.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
	set("setup_s", median(setupSecs))
	set("throughput_qps", float64(rec.Attempted-rec.Failed)/out.wall.Seconds())
	for name, q := range map[string]float64{"latency_ms_p50": 0.50, "latency_ms_p90": 0.90, "latency_ms_p99": 0.99} {
		v, _, n := percentile(lat, q)
		set(name, v)
		rec.Samples[name] = n
	}
	set("cpu_ms_per_op", ms(out.cpu)/ops)
	set("alloc_kb_per_op", float64(out.allocBytes)/1024/ops)
	set("allocs_per_op", float64(out.mallocs)/ops)
	set("verified_ratio", float64(rec.Attempted-rec.Failed)/ops)
	return nil
}

// traceShare is the traced run's length relative to the untraced one.
const traceShare = 0.25

// ladderRates are the open-loop rates (req/s) the traced server_open run
// steps through — half, once and twice openRate — each for ladderSeconds;
// ladderLimitMS is the p99 limit from due time that a rate must meet.
var ladderRates = []float64{openRate / 2, openRate, 2 * openRate}

const (
	ladderSeconds = 2.0
	ladderLimitMS = 100.0
	backlogLagMS  = 10.0 // mean lateness of the last tenth of requests above which the backlog is growing
)

// runTraced runs a plan built at traceShare of the untraced length three
// times — untraced, with the handler middleware and request spans, untraced
// again — replays a strided sample of the ops layer by layer, and fills rec
// with the per-layer metrics. seconds is the length the plan was sized for.
// It writes trace_<workload>.json into workDir.
func runTraced(rec *record, p *plan, seconds float64, workDir string) error {
	s := p.spec
	tr := newTracer()
	e, _, err := setUp(p, workDir, tr)
	if err != nil {
		return err
	}
	defer e.close()
	if s.kind == kindClosed {
		// One request in flight: a second connection on the same two CPUs
		// stretches every span by the other request's work (measured: ×1.9
		// on server_churn), and the point of this run is attribution. The
		// untraced run measures the contended figure.
		e.conns = 1
	}
	open := s.kind == kindOpen
	overHTTP := e.srv != nil
	limit := passLimit(seconds)

	// Untraced passes on either side of the traced one: their mean is the
	// base of trace.overhead_pct, so drift across the run cancels.
	plainBefore := e.run(p.ops, open, limit, nil)

	var h0, h1 health
	if overHTTP {
		if h0, err = e.health(); err != nil {
			return err
		}
	}
	spill0 := e.sys.SpillStats()
	out := e.run(p.ops, open, limit, tr)
	spilled := e.sys.SpillStats().Delta(spill0)
	if overHTTP {
		if h1, err = e.health(); err != nil {
			return err
		}
	}
	plainAfter := e.run(p.ops, open, limit, nil)
	tr.link()
	e.verify(p.ops, out)
	rec.Attempted, rec.Failed = out.attempted(), out.failed()
	rec.Errors = firstErrors(out, 5)

	// Index the traced pass's spans by op.
	requestNS := make(map[int]int64)
	handlerNS := make(map[int]int64)
	for _, sp := range tr.spans {
		switch sp.Name {
		case spanRequest:
			requestNS[sp.Req] = sp.dur()
		case spanHandler:
			handlerNS[sp.Req] = sp.dur()
		}
	}

	// Replay a strided sample. An HTTP op is a miss the first time its query
	// is seen by this server (warm-up included): the hot sets fit the LRU
	// and server_churn never repeats a query, so first-seen is exact; the
	// server's own hit counters are reported beside it.
	l := newLayers()
	seen := make(map[int]bool)
	for _, o := range p.warm {
		seen[o.Query] = true
	}
	stride := (len(p.ops) + replaySampleSize - 1) / replaySampleSize
	for i := range p.ops {
		o := &p.ops[i]
		miss := !seen[o.Query]
		seen[o.Query] = true
		if i%stride != 0 || !out.done[i] || out.fail[i] != "" {
			continue
		}
		if err := e.replay(tr, l, i, o, out, miss, requestNS[i], handlerNS[i]); err != nil {
			return err
		}
		if overHTTP {
			l.sample("server.handler_ms_p50", float64(handlerNS[i])/1e6)
			l.sample("server.transport_ms_p50", float64(requestNS[i]-handlerNS[i])/1e6)
		}
	}

	rec.Samples = make(map[string]int)
	rec.Metrics = make(map[string]metricValue)
	for _, d := range perLayer {
		rec.Metrics[d.name] = metricValue{0, d.unit} // a layer the workload does not touch reads 0
	}
	set := func(name string, v float64) { rec.Metrics[name] = metricValue{v, unitOf(perLayer, name)} }
	for name, xs := range l.samples {
		set(name, median(xs))
		rec.Samples[name] = len(xs)
	}
	for name, v := range l.totals {
		set(name, v)
	}

	if overHTTP {
		hits, misses := float64(h1.Hits-h0.Hits), float64(h1.Misses-h0.Misses)
		if hits+misses > 0 {
			set("server.cache_hit_ratio", hits/(hits+misses))
		}
		set("server.cache_entries", float64(h1.Cached))
		set("server.shed_total", float64(h1.Lifecycle.Shed))
		set("server.timedout_total", float64(h1.Lifecycle.TimedOut))
		t := time.Now()
		if _, err := e.get("/metrics"); err != nil {
			return err
		}
		set("telemetry.scrape_ms", msSince(t))
	} else {
		// The public PrivateResult durations, over the whole traced pass.
		var analysis, exec, perturb time.Duration
		var self []float64
		for i, res := range out.results {
			if res == nil || out.fail[i] != "" {
				continue
			}
			analysis += res.AnalysisTime
			exec += res.ExecTime
			perturb += res.PerturbTime
			self = append(self, out.latMS[i]*1e3-us(res.AnalysisTime+res.ExecTime+res.PerturbTime))
		}
		set("flex.analysis_ms_sum", ms(analysis))
		set("flex.exec_ms_sum", ms(exec))
		set("flex.perturb_ms_sum", ms(perturb))
		if exec > 0 {
			set("flex.overhead_pct", float64(analysis+perturb)/float64(exec)*100)
		}
		set("flex.self_us_p50", median(self))
		rec.Samples["flex.self_us_p50"] = len(self)
	}
	setSpill(set, spilled)

	set("workload.generate_ms", e.generateMS)
	set("metrics.collect_ms", e.collectMS)
	set("process.gc_cycles", float64(out.gcCycles))
	set("process.gc_pause_ms_sum", float64(out.gcPauseNS)/1e6)
	set("loadgen.utilisation_pct", out.cpu.Seconds()/(out.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))*100)
	if len(out.lagMS) > 0 {
		v, _, n := percentile(sortedCopy(out.lagMS), 0.99)
		set("loadgen.sched_lag_ms_p99", v)
		rec.Samples["loadgen.sched_lag_ms_p99"] = n
	}
	if l.requestNS > 0 {
		req := float64(l.requestNS)
		set("trace.coverage_pct", float64(l.coveredNS)/req*100)
		set("trace.share.engine_pct", float64(l.engineNS)/req*100)
		set("trace.share.frontend_pct", float64(l.frontendNS)/req*100)
		if overHTTP {
			// Everything of the request that is not the engine, the
			// analysis front end or the perturbation: the server's own
			// work (decode, canonicalise, LRU, budget, encode) + transport.
			set("trace.share.server_pct", float64(l.requestNS-l.engineNS-l.frontendNS-l.perturbNS)/req*100)
		}
	}
	qps := func(o *outcome) float64 { return float64(o.attempted()-o.failed()) / o.wall.Seconds() }
	if base := (qps(plainBefore) + qps(plainAfter)) / 2; base > 0 {
		set("trace.overhead_pct", (base-qps(out))/base*100)
	}

	if open {
		if err := e.ladder(p, rec, set); err != nil {
			return err
		}
	}
	set("process.peak_rss_mb", peakRSSMB())

	leaked := e.close()
	set("spill.leaked_files", float64(leaked))
	rec.Correct = rec.Failed == 0 && leaked == 0 && rec.Attempted == len(p.ops)
	path, err := tr.write(workDir, s.name)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# %s: %d spans in %s\n", s.name, len(tr.spans), path)
	return nil
}

func setSpill(set func(string, float64), d spill.Stats) {
	set("spill.bytes_written", float64(d.SpilledBytes))
	set("spill.records", float64(d.SpilledRecords))
	set("spill.files", float64(d.Files))
	set("spill.join_spills", float64(d.JoinSpills))
	set("spill.join_partitions", float64(d.JoinPartitions))
	set("spill.join_recursions", float64(d.JoinRecursions))
	set("spill.agg_spills", float64(d.AggSpills))
	set("spill.agg_partitions", float64(d.AggPartitions))
	set("spill.over_budget_builds", float64(d.OverBudgetBuilds))
}

// ladder steps the open loop through ladderRates on the warmed instance and
// reports each rate's tail latency from due time, and the highest rate that
// met ladderLimitMS without a growing backlog. Informative, not gated: the
// step function flips on a shared machine.
func (e *env) ladder(p *plan, rec *record, set func(string, float64)) error {
	best := 0.0
	for _, rate := range ladderRates {
		n := int(rate * ladderSeconds)
		if n > len(p.ops) {
			n = len(p.ops)
		}
		ops := append([]op(nil), p.ops[:n]...)
		for i, due := range poissonSchedule(derive(p.seed, streamArrivals)+int64(rate), n, rate) {
			ops[i].Due = due
		}
		out := e.run(ops, true, passLimit(ladderSeconds), nil)
		if f := out.failed(); f > 0 {
			return fmt.Errorf("ladder at %g req/s: %d requests failed: %v", rate, f, firstErrors(out, 3))
		}
		name := fmt.Sprintf("loadgen.ladder.r%d.latency_ms_p99", int(rate))
		v, _, cnt := percentile(latencies(out), 0.99)
		set(name, v)
		rec.Samples[name] = cnt
		// Backlog: how late the last tenth of the requests finished relative
		// to an unloaded answer — approximated by their mean latency from
		// due time against the whole pass's median.
		tail := out.latMS[n-n/10:]
		growing := len(tail) > 0 && sum(tail)/float64(len(tail))-median(out.latMS) > backlogLagMS
		if v <= ladderLimitMS && !growing && rate > best {
			best = rate
		}
	}
	set("loadgen.max_rate_ok_qps", best)
	return nil
}
