package engine

import "flexdp/internal/spill"

// ExecConfig is the complete set of execution knobs for one query: worker
// count, morsel granularity, vectorization, the operator-state memory
// budget, and where/how spill files are written. A DB holds one ExecConfig
// as its defaults; every execution snapshots it once at entry (ExecuteContext,
// PreparedQuery.ExecContext) and runs against the immutable copy, so a knob
// changed mid-query never tears an execution — it applies to the next one.
//
// The zero value means "all defaults": one worker per CPU, width-adaptive
// morsels, vectorized kernels on, unbounded memory, os.TempDir() spills.
// None of these knobs may change query results — the differential suites pin
// every combination bit-identical to recorded reference answers and to each
// other, including noisy DP outputs at a fixed seed — so an ExecConfig is
// purely a resource/debugging surface. There is one executor: no knob
// selects a different one.
type ExecConfig struct {
	// Parallelism bounds the per-query worker count of the morsel-driven
	// executor; <= 0 means one worker per CPU (GOMAXPROCS).
	Parallelism int
	// MorselSize pins the executor's chunk size in rows; <= 0 selects the
	// width-adaptive size (adaptiveMorselSize). Tests shrink it to exercise
	// multi-morsel merges on small tables.
	MorselSize int
	// DisableVectorized forces every operator onto the row-at-a-time closure
	// path, the reference the batch kernels are tested against. Zero value =
	// vectorized batch kernels on.
	DisableVectorized bool
	// MemoryBudget bounds per-query operator state (hash-join build tables,
	// ORDER BY buffers, grouped-aggregation state, DISTINCT and set-operation
	// key sets) in bytes; operators exceeding it go out-of-core through the
	// spill subsystem, which also serves as the back-pressure valve bounding
	// whole-query memory in the streaming executor. <= 0 means unbounded.
	MemoryBudget int64
	// TempDir is where spill files are created; "" means os.TempDir().
	TempDir string
	// SpillFS, when non-nil, replaces the real filesystem for spill files
	// (fault-injection tests install a spill.FaultFS here).
	SpillFS spill.FS
	// Profile, when non-nil, receives this execution's per-operator trace
	// and spill attribution (see QueryProfile). nil — the default — keeps
	// profiling entirely off the hot path: no traces are allocated and the
	// pipeline runs undecorated. Profiling never changes results; the
	// differential suites run with it on.
	Profile *QueryProfile
}

// workers returns the effective worker count.
func (c ExecConfig) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return defaultParallelism()
}

// morselPinned reports whether MorselSize pins an explicit chunk size,
// which disables adaptive per-operator sizing.
func (c ExecConfig) morselPinned() bool { return c.MorselSize > 0 }

// morsel returns the pinned morsel size, or DefaultMorselSize when adaptive
// sizing is in effect (callers that know the input width use morselFor).
func (c ExecConfig) morsel() int {
	if c.MorselSize > 0 {
		return c.MorselSize
	}
	return DefaultMorselSize
}

// morselFor returns the morsel size for inputs of the given column width:
// the pinned size if set, the width-adaptive size otherwise.
func (c ExecConfig) morselFor(width int) int {
	if c.MorselSize > 0 {
		return c.MorselSize
	}
	return adaptiveMorselSize(width)
}

// vectorized reports whether the batch kernels are enabled.
func (c ExecConfig) vectorized() bool { return !c.DisableVectorized }

// newSpillManager creates the per-query spill manager for one execution
// under this config (nil when no budget is configured — the nil manager
// disables spilling).
func (c ExecConfig) newSpillManager() *spill.Manager {
	return spill.New(spill.Config{Budget: c.MemoryBudget, Dir: c.TempDir, FS: c.SpillFS})
}

// ExecConfig returns a snapshot of the database's current execution
// defaults.
func (db *DB) ExecConfig() ExecConfig {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg
}

// SetExecConfig replaces the database's execution defaults wholesale.
// Executions already in flight keep the snapshot they started with.
// The Profile destination is per-execution state, not a default: it is
// dropped here so concurrent queries can never race on one profile struct.
// Pass a config with Profile set to ExecuteContextConfig (or
// PreparedQuery.ExecContextConfig) instead.
func (db *DB) SetExecConfig(cfg ExecConfig) {
	if cfg.MemoryBudget < 0 {
		cfg.MemoryBudget = 0
	}
	cfg.Profile = nil
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cfg = cfg
}
