package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flexdp/internal/spill"
)

// TestExhaustedAnalystDoesNoEngineWork pins the admission-time charge: a
// request from an analyst whose budget cannot cover it is refused before
// the engine runs. The engine spills every join under a 1-byte memory
// budget, so its spill FS observes any execution: it records operations for
// a funded analyst's request and none for the refused one.
func TestExhaustedAnalystDoesNoEngineWork(t *testing.T) {
	sys := spillTestSystem(t, 1, t.TempDir())
	fs := &spill.FaultFS{}
	sys.Database().Engine().SetSpillFS(fs)
	srv := httptest.NewServer(NewWithConfig(sys, nil, Config{
		DefaultDelta: 1e-8, AnalystEpsilon: 0.5, AnalystDelta: 1e-5,
	}).Handler())
	t.Cleanup(srv.Close)
	ops := func() int64 {
		c, o, w := fs.Counts()
		return c + o + w
	}
	q := QueryRequest{SQL: `SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id`, Epsilon: 0.5}

	if resp, body := postQuery(t, srv.URL, "alice", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice's funded query: %d %s", resp.StatusCode, body)
	}
	if ops() == 0 {
		t.Fatal("a funded join under a 1-byte budget did no spill work; the probe sees nothing")
	}
	before := ops()
	if resp, body := postQuery(t, srv.URL, "alice", q); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice's exhausted query: %d %s, want 429", resp.StatusCode, body)
	}
	if got := ops(); got != before {
		t.Fatalf("refused query did %d spill operations; it must reach no engine code", got-before)
	}
	if resp, body := postQuery(t, srv.URL, "bob", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's funded query: %d %s", resp.StatusCode, body)
	}
	if ops() == before {
		t.Fatal("bob's identical funded query did no spill work")
	}
}

// TestRefusedRequestBurnsNoCallNumber: the noise stream is forked per
// admitted call, so a refused request must not shift the seeded noise of
// the requests after it.
func TestRefusedRequestBurnsNoCallNumber(t *testing.T) {
	q := QueryRequest{SQL: "SELECT COUNT(*) FROM trips WHERE city = 'sf'", Epsilon: 0.5}
	bobsAnswer := func(refuseFirst bool) string {
		sys, _ := testSystem(t)
		srv := httptest.NewServer(NewWithConfig(sys, nil, Config{
			DefaultDelta: 1e-8, AnalystEpsilon: 0.5, AnalystDelta: 1e-5,
		}).Handler())
		defer srv.Close()
		if resp, body := postQuery(t, srv.URL, "alice", q); resp.StatusCode != http.StatusOK {
			t.Fatalf("alice: %d %s", resp.StatusCode, body)
		}
		if refuseFirst {
			if resp, body := postQuery(t, srv.URL, "alice", q); resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("alice over budget: %d %s, want 429", resp.StatusCode, body)
			}
		}
		resp, body := postQuery(t, srv.URL, "bob", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bob: %d %s", resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		rows, _ := json.Marshal(out.Rows)
		return string(rows)
	}
	if with, without := bobsAnswer(true), bobsAnswer(false); with != without {
		t.Fatalf("a refused request shifted the next answer's noise: %s, want %s", with, without)
	}
}

// TestOversizeBodyIs413: bodies past maxBodyBytes are answered 413 (counted
// as a bad request) before anything parses the SQL.
func TestOversizeBodyIs413(t *testing.T) {
	sys, _ := testSystem(t)
	srv := httptest.NewServer(New(sys, nil, 1e-8).Handler())
	t.Cleanup(srv.Close)
	body, err := json.Marshal(QueryRequest{
		SQL:     "SELECT COUNT(*) FROM trips WHERE city = '" + strings.Repeat("x", maxBodyBytes) + "'",
		Epsilon: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/query", "/analyze"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
	metrics := scrape(t, srv.URL)
	if got := metricValue(metrics, `flex_queries_total{outcome="bad_request"}`); got != 1 {
		t.Errorf("bad_request outcomes = %g, want 1", got)
	}
	if got := metricValue(metrics, "flex_prepared_cache_misses_total"); got != 0 {
		t.Errorf("oversize /query reached the prepared cache (%g misses)", got)
	}
}
