package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	flex "flexdp"
	"flexdp/internal/smooth"
	"flexdp/internal/spill"
)

// Lifecycle tests: admission control, client disconnects, query timeouts,
// and panic isolation, each pinned against the budget ledger (aborted
// queries are never charged), the spill directory (nothing leaks), and the
// lifecycle counters on /healthz.

// spillJoinSQL self-joins the 1000-row trips table; its build side exceeds
// the 512-byte budget lifecycleServer configures, so execution runs through
// the spill subsystem — where the test filesystems below can block, fail,
// or panic at a controlled point.
const spillJoinSQL = `SELECT COUNT(*) FROM trips a JOIN trips b ON a.id = b.id`

// lifecycleServer is testServer plus a spill-capable System (512-byte memory
// budget, private temp dir) and explicit service config. It returns the
// Server itself for Lifecycle() access and the Database for fault-FS wiring.
func lifecycleServer(t *testing.T, budget *smooth.Budget, cfg Config) (*Server, *httptest.Server, *flex.Database, string) {
	t.Helper()
	db := flex.NewDatabase()
	if err := db.CreateTable("trips",
		flex.Col{Name: "id", Type: flex.TypeInt},
		flex.Col{Name: "city", Type: flex.TypeString}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		city := "sf"
		if i%3 == 0 {
			city = "nyc"
		}
		if err := db.Insert("trips", i, city); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	db.SetTempDir(dir)
	db.Engine().SetMorselSize(16)
	sys := flex.NewSystem(db, flex.Options{Seed: 1, MemoryBudget: 512})
	sys.CollectMetrics()
	if cfg.DefaultDelta == 0 {
		cfg.DefaultDelta = 1e-8
	}
	s := NewWithConfig(sys, budget, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, db, dir
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// gateFS blocks every spill write until release is closed, signalling
// entered on the first one — the knob that holds a query mid-execution.
type gateFS struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateFS() *gateFS {
	return &gateFS{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) CreateTemp(dir, pattern string) (spill.File, error) {
	f, err := spill.OSFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g}, nil
}
func (g *gateFS) Open(name string) (spill.File, error) { return spill.OSFS.Open(name) }
func (g *gateFS) Remove(name string) error             { return spill.OSFS.Remove(name) }

type gateFile struct {
	spill.File
	g *gateFS
}

func (f gateFile) Write(p []byte) (int, error) {
	f.g.once.Do(func() { close(f.g.entered) })
	<-f.g.release
	return f.File.Write(p)
}

// serverPanicFS makes every spill write panic — the server-side stand-in for
// an engine bug on a worker goroutine.
type serverPanicFS struct{}

func (serverPanicFS) CreateTemp(dir, pattern string) (spill.File, error) {
	f, err := spill.OSFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return serverPanicFile{f}, nil
}
func (serverPanicFS) Open(name string) (spill.File, error) { return spill.OSFS.Open(name) }
func (serverPanicFS) Remove(name string) error             { return spill.OSFS.Remove(name) }

type serverPanicFile struct{ spill.File }

func (serverPanicFile) Write([]byte) (int, error) { panic("injected server panic") }

// TestAdmissionControlSheds pins the 503 path: with one slot held by a
// blocked query, an over-admission request waits QueueTimeout and is shed
// with 503 + Retry-After, counted in Lifecycle; once the slot frees, the
// same request succeeds.
func TestAdmissionControlSheds(t *testing.T) {
	s, ts, db, _ := lifecycleServer(t, nil, Config{
		MaxInflight:  1,
		QueueTimeout: 25 * time.Millisecond,
	})
	gate := newGateFS()
	db.Engine().SetSpillFS(gate)

	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{SQL: spillJoinSQL, Epsilon: 0.5})
		done <- resp.StatusCode
	}()
	<-gate.entered
	if got := s.Lifecycle().InFlight; got != 1 {
		t.Fatalf("in_flight = %d, want 1", got)
	}

	// The slot is held: a second query waits out QueueTimeout and is shed.
	resp, body := postJSON(t, ts.URL+"/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM trips", Epsilon: 0.5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("503 Retry-After = %q, want \"1\"", ra)
	}
	if got := s.Lifecycle().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	// Release the gate: the blocked query completes and frees its slot.
	close(gate.release)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("blocked query finished with %d, want 200", status)
	}
	db.Engine().SetSpillFS(nil)
	resp, body = postJSON(t, ts.URL+"/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM trips", Epsilon: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed status = %d (%s), want 200", resp.StatusCode, body)
	}
	lc := s.Lifecycle()
	if lc.InFlight != 0 || lc.Completed != 2 {
		t.Fatalf("lifecycle after drain = %+v", lc)
	}
}

// TestClientDisconnectCancelsQuery pins satellite (c): a client that
// disconnects mid-query cancels the engine, is counted as cancelled, is
// never charged, leaks no spill files, and frees its admission slot.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	budget := smooth.NewBudget(10, 1e-3)
	s, ts, db, dir := lifecycleServer(t, budget, Config{
		MaxInflight:  1,
		QueueTimeout: time.Second,
	})
	gate := newGateFS()
	db.Engine().SetSpillFS(gate)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"sql": "`+spillJoinSQL+`", "epsilon": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-gate.entered

	// Drop the client. The engine is parked inside a gated write, so free
	// the gate and let it run into its next cancellation check.
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client saw a response despite disconnecting")
	}
	close(gate.release)
	waitFor(t, "cancellation accounting", func() bool { return s.Lifecycle().Cancelled >= 1 })
	waitFor(t, "slot release", func() bool { return s.Lifecycle().InFlight == 0 })

	if eps, delta := budget.Spent(); eps != 0 || delta != 0 {
		t.Fatalf("disconnected query charged (ε=%g, δ=%g)", eps, delta)
	}
	waitFor(t, "spill cleanup", func() bool {
		entries, err := os.ReadDir(dir)
		return err == nil && len(entries) == 0
	})

	// The slot is free and the server keeps answering — and only answered
	// queries are charged.
	db.Engine().SetSpillFS(nil)
	resp, body := postJSON(t, ts.URL+"/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM trips", Epsilon: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect status = %d (%s)", resp.StatusCode, body)
	}
	if eps, _ := budget.Spent(); eps != 0.5 {
		t.Fatalf("charged ε=%g after one answered query, want 0.5", eps)
	}
}

// TestQueryTimeoutAnswers504 pins the server-side deadline: a query slowed
// past QueryTimeout is cancelled by the server, answered 504, counted as
// timed out, and never charged.
func TestQueryTimeoutAnswers504(t *testing.T) {
	budget := smooth.NewBudget(10, 1e-3)
	s, ts, db, dir := lifecycleServer(t, budget, Config{
		QueryTimeout: 30 * time.Millisecond,
	})
	// Every spill operation dawdles 10ms, so the spilling join blows the
	// 30ms deadline within a few operations and the next morsel-boundary
	// check aborts it.
	db.Engine().SetSpillFS(&spill.FaultFS{OnOp: func(string) {
		time.Sleep(10 * time.Millisecond)
	}})
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: spillJoinSQL, Epsilon: 0.5})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if got := s.Lifecycle().TimedOut; got != 1 {
		t.Fatalf("timed_out = %d, want 1", got)
	}
	if eps, delta := budget.Spent(); eps != 0 || delta != 0 {
		t.Fatalf("timed-out query charged (ε=%g, δ=%g)", eps, delta)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("timed-out query leaked spill files: %v, %v", entries, err)
	}

	// Queries that fit the deadline keep being answered.
	db.Engine().SetSpillFS(nil)
	resp, body = postJSON(t, ts.URL+"/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM trips", Epsilon: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout status = %d (%s)", resp.StatusCode, body)
	}
}

// TestPanicIsolatedToQuery pins panic isolation end to end: a query whose
// worker panics answers 500 to its analyst while concurrently running
// queries complete normally, the panic is counted, nothing is charged for
// the panicked query, and the process (this test) survives.
func TestPanicIsolatedToQuery(t *testing.T) {
	budget := smooth.NewBudget(10, 1e-3)
	s, ts, db, dir := lifecycleServer(t, budget, Config{})
	db.Engine().SetSpillFS(serverPanicFS{})

	const siblings = 4
	type result struct {
		status int
		body   string
	}
	results := make(chan result, siblings)
	for i := 0; i < siblings; i++ {
		go func() {
			// COUNT(*) without a join stays under the budget: no spill, no
			// injected panic — these must be untouched by the sibling's
			// crash.
			resp, body := postJSON(t, ts.URL+"/query",
				QueryRequest{SQL: "SELECT COUNT(*) FROM trips", Epsilon: 0.1})
			results <- result{resp.StatusCode, string(body)}
		}()
	}
	resp, body := postJSON(t, ts.URL+"/query", QueryRequest{SQL: spillJoinSQL, Epsilon: 0.5})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked query status = %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Fatalf("500 body hides the panic: %s", body)
	}
	for i := 0; i < siblings; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("sibling query got %d (%s) while another panicked", r.status, r.body)
		}
	}
	if got := s.Lifecycle().Panics; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	// The panicked query was charged at admission and refunded; with the
	// siblings' spends interleaved, the float total may round by an ulp, so
	// compare within Budget.Spend's own tolerance.
	if eps, _ := budget.Spent(); math.Abs(eps-float64(siblings)*0.1) > 1e-12 {
		t.Fatalf("spent ε=%g, want only the %d answered siblings' 0.1 each", eps, siblings)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("panicked query leaked spill files: %v, %v", entries, err)
	}

	// Service continues: clearing the fault restores the same query.
	db.Engine().SetSpillFS(nil)
	resp, body = postJSON(t, ts.URL+"/query", QueryRequest{SQL: spillJoinSQL, Epsilon: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d (%s)", resp.StatusCode, body)
	}
}

// TestBudgetExhaustionRetryAfter pins the 429 side of the throttle split:
// budget exhaustion carries the long Retry-After hint and is never confused
// with a 503 shed.
func TestBudgetExhaustionRetryAfter(t *testing.T) {
	s, ts, _, _ := lifecycleServer(t, smooth.NewBudget(0.1, 1e-3), Config{})
	resp, body := postJSON(t, ts.URL+"/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM trips", Epsilon: 0.5})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "60" {
		t.Fatalf("429 Retry-After = %q, want \"60\"", ra)
	}
	lc := s.Lifecycle()
	if lc.Shed != 0 || lc.Completed != 0 {
		t.Fatalf("budget refusal miscounted: %+v", lc)
	}
}

// TestHealthzReportsLifecycle checks the counters surface on /healthz.
func TestHealthzReportsLifecycle(t *testing.T) {
	_, ts, _, _ := lifecycleServer(t, nil, Config{})
	if resp, _ := postJSON(t, ts.URL+"/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM trips", Epsilon: 0.5}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Lifecycle Lifecycle `json:"lifecycle"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Lifecycle.Completed != 1 || health.Lifecycle.InFlight != 0 {
		t.Fatalf("healthz lifecycle = %+v", health.Lifecycle)
	}
}
