// Command flexserver runs the FLEX differential-privacy proxy over HTTP.
// Tables are loaded from CSV files; analysts POST SQL to /query and receive
// noisy answers. Repeated queries are served through a prepared-query cache,
// and privacy budgets are enforced per analyst (the X-Analyst header) with a
// shared pool for anonymous requests.
//
//	flexserver -addr :8080 -table trips=trips.csv -public cities \
//	           -max-eps 5 -max-delta 1e-5 -cache-size 256 \
//	           -analyst-budget 1.0 -analyst-delta 1e-6 \
//	           -ops-addr 127.0.0.1:6060 -slow-query-ms 500 -audit-log audit.jsonl
//
// Endpoints:
//
//	POST /query    {"sql": "...", "epsilon": 0.1}        → noisy rows
//	POST /query?profile=1                                → + execution trace
//	POST /analyze  {"sql": "..."}                        → sensitivity info
//	GET  /budget                                         → budget status
//	GET  /healthz                                        → liveness + cache stats
//	GET  /metrics                                        → Prometheus text format
//
// -ops-addr starts a second listener for operators only, serving /metrics
// and net/http/pprof. Profiles, metrics, and execution traces expose true
// (noise-free) execution detail, so the ops listener must never be reachable
// by analysts; bind it to localhost or an internal interface.
//
// Logs are structured JSON on stderr (log/slog). -audit-log appends one JSON
// line per budget spend/refund and per released answer ("-" = stderr); audit
// lines identify queries by canonical hash and never contain SQL text or
// result values.
//
// With -demo (no -table flags) the server loads the synthetic rideshare
// dataset so the API can be exercised immediately. The server shuts down
// gracefully on SIGINT/SIGTERM, draining in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	flex "flexdp"
	"flexdp/internal/server"
	"flexdp/internal/smooth"
	"flexdp/internal/spill"
	"flexdp/internal/telemetry"
	"flexdp/internal/workload"
)

type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, ",") }
func (t *tableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// fatal logs the error and exits without skipping deferred cleanup in main —
// callers run any cleanup themselves before calling it.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// lifecycleArgs renders a lifecycle snapshot (or delta) as slog attributes,
// one per counter, enumerated from the same Fields() the /metrics collectors
// use — the drain and lifetime reports cannot drift from the scrape surface.
func lifecycleArgs(lc server.Lifecycle) []any {
	fields := lc.Fields()
	args := make([]any, 0, 2*len(fields))
	for _, f := range fields {
		args = append(args, f.Name, f.Value)
	}
	return args
}

func main() {
	var tables tableFlags
	flag.Var(&tables, "table", "name=file.csv (repeatable)")
	addr := flag.String("addr", ":8080", "listen address")
	public := flag.String("public", "", "comma-separated public tables")
	maxEps := flag.Float64("max-eps", 10, "shared-pool privacy budget ε")
	maxDelta := flag.Float64("max-delta", 1e-4, "shared-pool privacy budget δ")
	cacheSize := flag.Int("cache-size", server.DefaultCacheSize, "prepared-query LRU cache capacity")
	analystEps := flag.Float64("analyst-budget", 0, "per-analyst privacy budget ε (0 = all analysts share the pool)")
	analystDelta := flag.Float64("analyst-delta", 0, "per-analyst privacy budget δ (default: -max-delta)")
	demo := flag.Bool("demo", false, "serve the synthetic rideshare dataset")
	seed := flag.Int64("seed", 0, "noise seed (0 = nondeterministic per restart)")
	parallelism := flag.Int("parallelism", 0, "engine worker goroutines per query (0 = one per CPU, 1 = serial)")
	memoryBudget := flag.String("memory-budget", "0", `per-query engine memory budget (e.g. "256MiB"; joins/sorts over it spill to disk, 0 = unbounded)`)
	tempDir := flag.String("temp-dir", "", "parent directory for spill files (default: OS temp dir)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "drain window for graceful shutdown")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing queries (0 = unbounded); excess requests queue then shed with 503")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "how long an over-admission query may wait for a slot before a 503 shed")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query execution deadline (0 = none); expiry cancels the engine and answers 504")
	opsAddr := flag.String("ops-addr", "", "operator listener for /metrics and /debug/pprof (empty = disabled); bind to an internal interface, never analyst-reachable")
	slowQueryMS := flag.Int("slow-query-ms", 0, "warn-log queries slower than this many milliseconds (0 = disabled)")
	auditLog := flag.String("audit-log", "", `budget audit log file, appended as JSON lines ("-" = stderr, empty = disabled)`)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	var db *flex.Database
	switch {
	case *demo || len(tables) == 0:
		logger.Info("loading demo rideshare dataset")
		db = flex.WrapEngine(workload.GenerateRideshare(workload.DefaultRideshare()))
		if *public == "" {
			*public = "cities"
		}
	default:
		db = flex.NewDatabase()
		for _, spec := range tables {
			name, file, ok := strings.Cut(spec, "=")
			if !ok {
				fatal(logger, "bad -table flag: want name=file.csv", "flag", spec)
			}
			if err := flex.LoadCSV(db, name, file); err != nil {
				fatal(logger, "loading table", "file", file, "error", err)
			}
			logger.Info("loaded table", "table", name, "file", file)
		}
	}

	// A positive -memory-budget bounds each query's operator state: one
	// analyst's pathological join or sort spills to disk instead of taking
	// the whole proxy down with it. Spill files live in a private
	// per-process directory so the shutdown path can sweep away anything a
	// crashed or draining query left behind.
	budgetBytes, err := spill.ParseBytes(*memoryBudget)
	if err != nil {
		fatal(logger, "bad -memory-budget", "error", err)
	}
	var spillDir string
	if budgetBytes > 0 {
		spillDir, err = os.MkdirTemp(*tempDir, "flexserver-spill-")
		if err != nil {
			fatal(logger, "creating spill dir", "error", err)
		}
		defer os.RemoveAll(spillDir)
		logger.Info("per-query memory budget active", "bytes", budgetBytes, "spill_dir", spillDir)
	}

	var audit *telemetry.AuditLogger
	switch *auditLog {
	case "":
	case "-":
		audit = telemetry.NewAuditLogger(os.Stderr)
	default:
		f, err := os.OpenFile(*auditLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			if spillDir != "" {
				os.RemoveAll(spillDir)
			}
			fatal(logger, "opening audit log", "file", *auditLog, "error", err)
		}
		defer f.Close()
		audit = telemetry.NewAuditLogger(f)
	}

	// The server passes each request's budget (shared pool or per-analyst)
	// into the run, so the System needs no Options.Budget.
	// Queries execute morsel-parallel by default (one worker per CPU);
	// results are bit-identical at any -parallelism and -memory-budget, so
	// the flags only trade per-query latency against cross-query throughput
	// and memory headroom under load.
	budget := smooth.NewBudget(*maxEps, *maxDelta)
	sys := flex.NewSystem(db, flex.Options{Seed: *seed, Parallelism: *parallelism,
		MemoryBudget: budgetBytes, TempDir: spillDir})
	if *public != "" {
		sys.MarkPublic(strings.Split(*public, ",")...)
	}
	sys.CollectMetrics()

	if *analystDelta == 0 {
		*analystDelta = *maxDelta
	}
	srv := server.NewWithConfig(sys, budget, server.Config{
		DefaultDelta:       smooth.DeltaForSize(db.TotalRows()),
		CacheSize:          *cacheSize,
		AnalystEpsilon:     *analystEps,
		AnalystDelta:       *analystDelta,
		MaxInflight:        *maxInflight,
		QueueTimeout:       *queueTimeout,
		QueryTimeout:       *queryTimeout,
		Logger:             logger,
		Audit:              audit,
		SlowQueryThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	// The ops listener carries the operator-only surface: Prometheus metrics
	// and pprof. It shares the metric registry with the public /metrics
	// route, so both render identical snapshots.
	var opsSrv *http.Server
	if *opsAddr != "" {
		opsMux := http.NewServeMux()
		opsMux.Handle("GET /metrics", srv.Registry())
		opsMux.HandleFunc("/debug/pprof/", pprof.Index)
		opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		opsSrv = &http.Server{Addr: *opsAddr, Handler: opsMux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "addr", *opsAddr, "error", err)
			}
		}()
		logger.Info("ops listener started", "addr", *opsAddr)
	}

	logger.Info("FLEX proxy listening",
		"addr", *addr, "rows", db.TotalRows(), "tables", db.TableNames(),
		"pool_epsilon", *maxEps, "pool_delta", *maxDelta,
		"analyst_epsilon", *analystEps, "cache_size", *cacheSize)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			// os.Exit would skip the deferred spill-dir sweep; clean up first.
			if spillDir != "" {
				os.RemoveAll(spillDir)
			}
			fatal(logger, "listen failed", "error", err)
		}
	case <-ctx.Done():
		stop()
		// Both shutdown reports derive from Lifecycle snapshots — the same
		// source /healthz and the flex_lifecycle_* collectors read — so logs,
		// health checks, and metrics can never disagree about the counters.
		atSignal := srv.Lifecycle()
		logger.Info("signal received; draining",
			"in_flight", atSignal.InFlight, "grace", shutdownGrace.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown incomplete", "error", err)
		}
		logger.Info("drain report", lifecycleArgs(srv.Lifecycle().Delta(atSignal))...)
	}
	if opsSrv != nil {
		opsCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = opsSrv.Shutdown(opsCtx)
		cancel()
	}
	logger.Info("lifetime totals", lifecycleArgs(srv.Lifecycle())...)
	if budgetBytes > 0 {
		st := sys.SpillStats()
		args := make([]any, 0, 2*len(st.Fields()))
		for _, f := range st.Fields() {
			args = append(args, f.Name, f.Value)
		}
		logger.Info("spill totals", args...)
	}
	logger.Info("bye")
}
