package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexdp/internal/server"
	"flexdp/internal/sqlparser"
)

func TestPercentileOrderStatistics(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		p        float64
		wantRank int
	}{
		{2000, 0.50, 1000},
		{2000, 0.99, 1980}, // 20 samples beyond: as asked
		{1000, 0.99, 990},  // exactly ten beyond
		{999, 0.99, 989},   // ⌈0.99·999⌉ = 990 leaves nine beyond: step down to n−10
		{140, 0.99, 130},   // tpch_spill-sized list: the highest rank with ten beyond
		{140, 0.90, 126},
		{75, 0.90, 65},
		{20, 0.50, 10},
		{20, 0.99, 10}, // never below the median rank
		{5, 0.99, 3},
		{1, 0.50, 1},
	} {
		v, rank, n := percentile(asc(c.n), c.p)
		if rank != c.wantRank || n != c.n || v != float64(c.wantRank) {
			t.Errorf("percentile(n=%d, p=%g) = value %g rank %d n %d, want rank %d", c.n, c.p, v, rank, n, c.wantRank)
		}
	}
	if v, rank, n := percentile(nil, 0.5); v != 0 || rank != 0 || n != 0 {
		t.Errorf("empty sample: got %g %d %d", v, rank, n)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g, want 1, 4", q1, q3)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(7, 500, 200)
	if !reflect.DeepEqual(a, poissonSchedule(7, 500, 200)) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 500, 200)) {
		t.Error("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if want := 2500 * time.Millisecond; a[len(a)-1] != want {
		t.Errorf("last arrival at %v, want n/rate = %v", a[len(a)-1], want)
	}
	// Exponential gaps: about e⁻¹ of them exceed the mean gap.
	long := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > 5*time.Millisecond {
			long++
		}
	}
	if long < 140 || long > 230 {
		t.Errorf("%d of 499 gaps exceed the mean, want about 184", long)
	}
}

func sqlOf(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.Analyst + "|" + o.SQL
	}
	return out
}

func TestWorkloadsSeeded(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		a, b, c := buildPlan(s, 3, 10, 0.02), buildPlan(s, 3, 10, 0.02), buildPlan(s, 4, 10, 0.02)
		if !reflect.DeepEqual(sqlOf(a.ops), sqlOf(b.ops)) || !reflect.DeepEqual(sqlOf(a.warm), sqlOf(b.warm)) {
			t.Errorf("%s: same seed gave different op lists", s.name)
		}
		// tpch_spill's five queries are fixed text; its seed only moves the data.
		if s.name != "tpch_spill" && reflect.DeepEqual(sqlOf(a.ops), sqlOf(c.ops)) {
			t.Errorf("%s: different seeds gave the same op list", s.name)
		}
		if len(a.ops) < minOps || len(a.warm) == 0 {
			t.Errorf("%s: %d ops, %d warm-up ops", s.name, len(a.ops), len(a.warm))
		}
		if len(s.why) > 200 {
			t.Errorf("%s: reason is %d characters, BENCHMARK.json allows 200", s.name, len(s.why))
		}
	}
	if derive(1, streamData) == derive(1, streamCorpus) || derive(1, streamData) == derive(2, streamData) {
		t.Error("derive does not separate streams and seeds")
	}
}

func canonical(t *testing.T, sql string) string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sqlparser.Print(stmt)
}

func TestChurnExceedsCacheAndHotSetFits(t *testing.T) {
	churn := buildPlan(specByName("server_churn"), 1, 10, 0.1)
	seen := make(map[string]bool)
	for _, o := range append(append([]op(nil), churn.warm...), churn.ops...) {
		seen[canonical(t, o.SQL)] = true
	}
	if want := len(churn.warm) + len(churn.ops); len(seen) != want {
		t.Errorf("server_churn: %d distinct canonical queries over %d requests; every request must miss", len(seen), want)
	}
	if len(churn.warm) <= server.DefaultCacheSize || len(churn.ops) <= server.DefaultCacheSize {
		t.Errorf("server_churn: %d warm-up and %d measured queries, both must exceed the %d-entry cache",
			len(churn.warm), len(churn.ops), server.DefaultCacheSize)
	}

	for _, name := range []string{"server_hot", "server_open"} {
		p := buildPlan(specByName(name), 1, 10, 0.25)
		keys := make(map[string]bool)
		for _, o := range p.ops {
			key := canonical(t, o.SQL)
			keys[key] = true
			if want := canonical(t, p.queries[o.Query].SQL); key != want {
				t.Fatalf("%s: spelling %q canonicalises to %q, want %q", name, o.SQL, key, want)
			}
		}
		if len(keys) != len(p.queries) || len(keys) >= server.DefaultCacheSize {
			t.Errorf("%s: %d canonical queries from %d, must all be used and fit the %d-entry cache",
				name, len(keys), len(p.queries), server.DefaultCacheSize)
		}
		primed := make(map[int]bool)
		for _, o := range p.warm {
			primed[o.Query] = true
		}
		if len(primed) != len(p.queries) {
			t.Errorf("%s: warm-up touches %d of %d queries; the measured list must be all hits", name, len(primed), len(p.queries))
		}
	}
	if n := len(buildPlan(specByName("server_hot"), 1, 10, 0.01).queries); n != 24 {
		t.Errorf("hot set has %d queries, want 24", n)
	}
	for v := 0; v < spellings; v++ {
		for w := v + 1; w < spellings; w++ {
			if q := "SELECT city_id, COUNT(*) FROM analytics GROUP BY city_id"; spell(q, v) == spell(q, w) {
				t.Errorf("spellings %d and %d are the same text", v, w)
			}
		}
	}
}

func TestMixOpsExactShares(t *testing.T) {
	p := buildPlan(specByName("table2_cold"), 5, 10, 1)
	counts := make(map[string]int)
	for _, o := range p.ops {
		counts[p.queries[o.Query].Class]++
	}
	total := 0
	for i, s := range table2Mix {
		total += counts[s.class]
		if i == len(table2Mix)-1 {
			break // the last class absorbs the rounding
		}
		if want := int(math.Round(s.pct / 100 * float64(len(p.ops)))); counts[s.class] != want {
			t.Errorf("class %q has %d ops, want %d", s.class, counts[s.class], want)
		}
	}
	if total != len(p.ops) {
		t.Errorf("mix classes cover %d of %d ops", total, len(p.ops))
	}
	// Stratified order: the many-to-many joins never clump.
	last := -1
	for i, o := range p.ops {
		if p.queries[o.Query].Class == "tag activity coinciding with trips" {
			if last >= 0 && i-last < 2 {
				t.Errorf("many-to-many joins at %d and %d: the mix must spread a class over the list", last, i)
			}
			last = i
		}
	}
}

// server_open's tail percentiles rely on no two trips-scale joins arriving
// within a join's length of each other: a join is due every 100 ms, moved by
// at most an eighth of that, and joins are a sixth of the list.
func TestServerOpenJoinsEvenlySpaced(t *testing.T) {
	p := buildPlan(specByName("server_open"), 9, 20, 1)
	var joins []time.Duration
	for i, o := range p.ops {
		if i > 0 && o.Due < p.ops[i-1].Due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		if p.queries[o.Query].Class == classTripsRegion {
			joins = append(joins, o.Due)
		}
	}
	if len(p.ops) != 1200 || len(joins) != 200 {
		t.Fatalf("%d ops, %d joins; want 1200 and 200", len(p.ops), len(joins))
	}
	for i := 1; i < len(joins); i++ {
		if gap := joins[i] - joins[i-1]; gap < 75*time.Millisecond || gap > 125*time.Millisecond {
			t.Errorf("joins %d and %d are %v apart, want 100 ms ± 25", i-1, i, gap)
		}
	}
	if last := p.ops[len(p.ops)-1].Due; last > 20*time.Second {
		t.Errorf("last request due at %v, past the 20 s the list is sized for", last)
	}
}

// A handler that stalls once must delay every request that was due during
// the stall: the open loop times from the due time, so the backlog shows up
// as latency instead of being omitted.
func TestOpenLoopCountsQueueingFromDueTime(t *testing.T) {
	const stall = 120 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	e := &env{srv: srv, client: srv.Client(), conns: 1}
	ops := make([]op, 8)
	for i := range ops {
		ops[i] = op{Due: time.Duration(i+1) * 10 * time.Millisecond, Body: []byte("{}")}
	}
	out := e.run(ops, true, time.Minute, nil)
	if out.attempted() != len(ops) || out.failed() != 0 {
		t.Fatalf("attempted %d failed %d: %v", out.attempted(), out.failed(), firstErrors(out, 3))
	}
	for i, lat := range out.latMS {
		// Request i was due at 10·(i+1) ms; the first one holds the only
		// connection until 10 + 120 ms.
		if want := float64(stall.Milliseconds()) - float64(10*i); lat < want {
			t.Errorf("request %d: latency %.1f ms from due time, want at least %.0f (it queued behind the stall)", i, lat, want)
		}
	}
	// Only the first request found the generator waiting for its due time.
	if len(out.lagMS) != 1 {
		t.Errorf("%d generator-lag samples, want 1: later requests were late because of backlog, not the generator", len(out.lagMS))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: the overlap counts once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 2, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 50, 1: 20, 2: 20, 3: 30, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerLinksHandlerToRequest(t *testing.T) {
	tr := newTracer()
	h := tr.add(span{Name: spanHandler, Req: 7, Parent: noParent, Start: 5, End: 9})
	r := tr.add(span{Name: spanRequest, Req: 7, Parent: noParent, Start: 1, End: 12})
	other := tr.add(span{Name: spanHandler, Req: 8, Parent: noParent, Start: 5, End: 9})
	tr.link()
	if tr.spans[h].Parent != r || tr.spans[other].Parent != noParent {
		t.Errorf("handler parents = %d, %d; want %d, %d", tr.spans[h].Parent, tr.spans[other].Parent, r, noParent)
	}
}

// smokePlan is a workload at 1% of its length over 5% of its data.
func smokePlan(s *spec, seconds float64) *plan {
	p := buildPlan(s, 2, seconds, 0.01)
	p.dataScale = 0.05
	return p
}

// Every workload end to end at smoke scale with verification on: the
// untraced run through set-up, one pass, the oracle and the end-to-end
// metrics; the traced run through the middleware, the replay and the
// per-layer metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		t.Run(s.name, func(t *testing.T) {
			t.Parallel() // the open loop mostly sleeps; the others fill the gap
			smoke(t, s)
		})
	}
}

func smoke(t *testing.T, s *spec) {
	dir := t.TempDir()
	var rec record
	if err := runUntraced(&rec, smokePlan(s, 10), 10, 1, dir); err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Attempted < minOps {
		t.Errorf("untraced: correct=%t attempted=%d: %v", rec.Correct, rec.Attempted, rec.Errors)
	}
	for _, d := range endToEnd {
		if v, ok := rec.Metrics[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
			t.Errorf("%s = %v; every end-to-end metric must be reported and never 0", d.name, v)
		}
	}

	rec = record{}
	if err := runTraced(&rec, smokePlan(s, 10*traceShare), 10*traceShare, dir); err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("traced run incorrect: %v", rec.Errors)
	}
	if len(rec.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(rec.Metrics), len(perLayer))
	}
	if _, err := os.Stat(filepath.Join(dir, "trace_"+s.name+".json")); err != nil {
		t.Error(err)
	}
}

// The oracle must catch a wrong answer: a correct one perturbed by one.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	want := answer{cols: []string{"city_id", countStar}, enumerated: true, rows: []answerRow{
		{bins: []any{int64(1)}, vals: []float64{4}}, {bins: []any{int64(2)}, vals: []float64{0}}}}
	good := released{cols: []string{"city_id", "count"}, enumerated: true,
		bins: [][]any{{int64(1)}, {int64(2)}}, vals: [][]float64{{4}, {0}}}
	if err := want.check(good, 0); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *released){
		"value":       func(r *released) { r.vals = [][]float64{{5}, {0}} },
		"bin order":   func(r *released) { r.bins = [][]any{{int64(2)}, {int64(1)}} },
		"missing bin": func(r *released) { r.bins, r.vals = r.bins[:1], r.vals[:1] },
		"column":      func(r *released) { r.cols = []string{"city", "count"} },
		"enumeration": func(r *released) { r.enumerated = false },
		"NaN":         func(r *released) { r.vals = [][]float64{{math.NaN()}, {0}} },
	} {
		bad := good
		mutate(&bad)
		if err := want.check(bad, 0); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
	// HTTP answers carry noise and JSON-decoded bins.
	noisy := released{cols: good.cols, enumerated: true,
		bins: [][]any{{float64(1)}, {float64(2)}}, vals: [][]float64{{9.5}, {-3}}}
	if err := want.check(noisy, 6); err != nil {
		t.Errorf("noisy answer within tolerance rejected: %v", err)
	}
	if err := want.check(noisy, 5); err == nil {
		t.Error("noisy answer outside tolerance accepted")
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, program has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: declared %s [%s], program reports %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: declared %s [%s], program reports %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if strings.Join(b.Command, " ") != "go run ./bench/e2e" || len(b.Paths) != 1 || b.Paths[0] != "bench/e2e" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"throughput_qps","unit":"1/s","better":"higher","bound":0.1},
		{"name":"latency_ms_p50","unit":"ms","better":"lower","bound":0.1},
		{"name":"latency_ms_p99","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ledger := func(name string, qps, p50, p99 []float64) string {
		path := filepath.Join(dir, name)
		for i := range qps {
			rec := record{Workload: "w", result: result{Metrics: map[string]metricValue{
				"throughput_qps": {qps[i], "1/s"}, "latency_ms_p50": {p50[i], "ms"}, "latency_ms_p99": {p99[i], "ms"}}}}
			if err := appendRecord(path, &rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := ledger("base", []float64{100, 101, 99, 100}, []float64{2, 2.02, 1.98, 2}, []float64{9, 10, 11, 30})
	same := ledger("same", []float64{97, 98, 96, 97}, []float64{2.1, 2.12, 2.08, 2.1}, []float64{10, 9, 30, 11})
	slow := ledger("slow", []float64{80, 81, 79, 80}, []float64{2, 2.02, 1.98, 2}, []float64{9, 10, 11, 30})

	var buf bytes.Buffer
	ok, err := compareFiles(&buf, bench, base, same)
	if err != nil || !ok {
		t.Errorf("within bounds: ok=%t err=%v\n%s", ok, err, buf.String())
	}
	if got := buf.String(); strings.Count(got, "unresolved") != 1 || strings.Contains(got, "REGRESSION") {
		t.Errorf("want the noisy p99 unresolved and nothing else flagged:\n%s", got)
	}
	buf.Reset()
	ok, err = compareFiles(&buf, bench, base, slow)
	if err != nil || ok {
		t.Errorf("20%% throughput loss: ok=%t err=%v", ok, err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("no REGRESSION row:\n%s", buf.String())
	}
}

var update = flag.Bool("update", false, "rewrite testdata/tpch_digests.json from the oracle")

// digest is a canonical fingerprint of an answer: its rows sorted by bin.
func (a answer) digest() string {
	lines := make([]string, len(a.rows))
	for i, r := range a.rows {
		lines[i] = fmt.Sprintf("%q=%v", binKey(r.bins), r.vals)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(a.cols, ",") + "\n" + strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// The TPC-H true answers for two seeds are pinned by committed digests, so a
// drift in the data generator or in the oracle itself is noticed: the
// benchmark's verification compares the engine with the oracle on every
// seed, and this compares the oracle with a fixed record.
func TestTPCHDigests(t *testing.T) {
	got := make(map[string]map[string]string)
	for _, seed := range []int64{1, 2} {
		p := buildPlan(specByName("tpch_spill"), seed, 10, 0.01)
		tabs := tables{db: p.generateData()}
		got[fmt.Sprint(seed)] = make(map[string]string)
		for _, q := range p.queries {
			got[fmt.Sprint(seed)][q.Class] = q.Want(tabs).digest()
		}
	}
	path := filepath.Join("testdata", "tpch_digests.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TPC-H oracle digests changed (go test ./bench/e2e -run TestTPCHDigests -update rewrites them):\n got %v\nwant %v", got, want)
	}
}
