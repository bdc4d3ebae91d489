// Package spill is the engine's out-of-core execution substrate: a
// bounded-memory manager that hands operators temporary on-disk "runs"
// (sequences of length-prefixed records) when their working state would
// exceed a per-query byte budget.
//
// A Manager is created per query execution and owns the lifecycle of every
// temp file the query spills: runs are removed eagerly when released by the
// operator that consumed them, and Cleanup removes whatever is left —
// success, error, or abandonment all converge on an empty temp directory.
// The Manager also accumulates spill metrics (bytes, files, join partitions,
// sort runs, merge passes) that the owning database folds into its
// process-wide totals, making out-of-core activity observable from
// benchmarks and the serving layer.
//
// All methods are safe on a nil *Manager, which behaves as "unbounded": a
// nil manager never asks an operator to spill. This keeps the engine's hot
// paths free of budget plumbing when no budget is configured.
package spill

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
)

// Config configures a Manager.
type Config struct {
	// Budget is the per-query operator-state budget in bytes. Operators
	// compare their estimated in-memory state against it and go out-of-core
	// when they would exceed it. A non-positive budget disables spilling.
	Budget int64
	// Dir is the directory for spill files; empty means os.TempDir().
	Dir string
	// FS is the filesystem implementation; nil means OSFS. Tests substitute
	// fault-injecting implementations (see FaultFS).
	FS FS
}

// Stats are cumulative spill metrics. Counters are additive so per-query
// manager stats can be folded into process-wide totals.
type Stats struct {
	// SpilledBytes / SpilledRecords count run-file traffic, Files the run
	// files created (a run that receives no record creates none).
	SpilledBytes   int64 `json:"spilled_bytes"`
	SpilledRecords int64 `json:"spilled_records"`
	Files          int64 `json:"files"`
	// JoinSpills counts hash joins that went out-of-core; JoinPartitions the
	// partition files fanned out across all of them; JoinRecursions the
	// skewed partitions that required another partitioning level.
	JoinSpills     int64 `json:"join_spills"`
	JoinPartitions int64 `json:"join_partitions"`
	JoinRecursions int64 `json:"join_recursions"`
	// OverBudgetBuilds counts hash-table builds that proceeded in memory
	// despite exceeding the budget (irreducibly skewed partitions at max
	// recursion depth — every row sharing one join key cannot be split).
	OverBudgetBuilds int64 `json:"over_budget_builds"`
	// SortSpills counts ORDER BY executions routed through the external
	// merge sort; SortRuns the initial sorted runs they wrote; MergePasses
	// the intermediate merge passes beyond the final one.
	SortSpills  int64 `json:"sort_spills"`
	SortRuns    int64 `json:"sort_runs"`
	MergePasses int64 `json:"merge_passes"`
	// AggSpills counts grouped aggregations that went out-of-core;
	// AggPartitions the partition files fanned out across all of them;
	// AggRecursions the skewed partitions that required another
	// partitioning level. OverBudgetAggs counts partitions aggregated in
	// memory despite exceeding the budget (irreducible skew: every row in
	// one group cannot be split by any group-key hash).
	AggSpills      int64 `json:"agg_spills"`
	AggPartitions  int64 `json:"agg_partitions"`
	AggRecursions  int64 `json:"agg_recursions"`
	OverBudgetAggs int64 `json:"over_budget_aggs"`
	// DistinctSpills / SetOpSpills count DISTINCT dedups and
	// INTERSECT/EXCEPT evaluations whose key-set state went out-of-core;
	// DedupePartitions the partition files fanned out across both, and
	// DedupeRecursions the skewed key partitions that required another
	// partitioning level.
	DistinctSpills   int64 `json:"distinct_spills"`
	SetOpSpills      int64 `json:"setop_spills"`
	DedupePartitions int64 `json:"dedupe_partitions"`
	DedupeRecursions int64 `json:"dedupe_recursions"`
	// PeakMorselBytes is the high-water mark of bytes held in in-flight
	// morsels by the streaming executor — the whole-query transient memory
	// the dataflow keeps live between producers and the ordered consumer.
	// Unlike the other counters it folds by maximum, not by sum: the
	// process-wide value is the worst single query seen.
	PeakMorselBytes int64 `json:"peak_morsel_bytes"`
	// BreakerMaterializations counts pipeline breakers: points where the
	// executor buffered a full intermediate relation instead of streaming
	// through it (hash-join builds, grouped-aggregation state, sort buffers,
	// DISTINCT/set-operation key state, and fallback materializations for
	// shapes the streaming dataflow does not cover).
	BreakerMaterializations int64 `json:"breaker_materializations"`
}

// Add folds other into s.
func (s *Stats) Add(other Stats) {
	s.SpilledBytes += other.SpilledBytes
	s.SpilledRecords += other.SpilledRecords
	s.Files += other.Files
	s.JoinSpills += other.JoinSpills
	s.JoinPartitions += other.JoinPartitions
	s.JoinRecursions += other.JoinRecursions
	s.OverBudgetBuilds += other.OverBudgetBuilds
	s.SortSpills += other.SortSpills
	s.SortRuns += other.SortRuns
	s.MergePasses += other.MergePasses
	s.AggSpills += other.AggSpills
	s.AggPartitions += other.AggPartitions
	s.AggRecursions += other.AggRecursions
	s.OverBudgetAggs += other.OverBudgetAggs
	s.DistinctSpills += other.DistinctSpills
	s.SetOpSpills += other.SetOpSpills
	s.DedupePartitions += other.DedupePartitions
	s.DedupeRecursions += other.DedupeRecursions
	if other.PeakMorselBytes > s.PeakMorselBytes {
		s.PeakMorselBytes = other.PeakMorselBytes
	}
	s.BreakerMaterializations += other.BreakerMaterializations
}

// Delta returns the change from prev to s, for attributing a window of
// activity (one query, one scrape interval) without double-counting what
// concurrent queries folded into the same totals. Additive counters
// subtract field-by-field. PeakMorselBytes is a high-water mark, not a
// counter: the delta carries s.PeakMorselBytes when the window raised the
// high water (s > prev) and 0 otherwise.
func (s Stats) Delta(prev Stats) Stats {
	var d Stats
	dv := reflect.ValueOf(&d).Elem()
	sv := reflect.ValueOf(s)
	pv := reflect.ValueOf(prev)
	for i := 0; i < sv.NumField(); i++ {
		dv.Field(i).SetInt(sv.Field(i).Int() - pv.Field(i).Int())
	}
	if s.PeakMorselBytes > prev.PeakMorselBytes {
		d.PeakMorselBytes = s.PeakMorselBytes
	} else {
		d.PeakMorselBytes = 0
	}
	return d
}

// StatField is one named counter from a Stats snapshot.
type StatField struct {
	Name  string
	Value int64
}

// Fields enumerates the stats as (json tag, value) pairs in declaration
// order. Telemetry consumers (the /metrics exporter, profile rendering,
// operational logs) iterate this instead of hand-listing fields, so a new
// counter added here shows up everywhere automatically.
func (s Stats) Fields() []StatField {
	sv := reflect.ValueOf(s)
	st := sv.Type()
	out := make([]StatField, 0, st.NumField())
	for i := 0; i < st.NumField(); i++ {
		tag := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		out = append(out, StatField{Name: tag, Value: sv.Field(i).Int()})
	}
	return out
}

// Manager owns one query's spill budget, temp files, and metrics. Methods
// are safe for concurrent use (parallel sort workers write runs
// concurrently) and safe on a nil receiver, which disables spilling.
type Manager struct {
	budget int64
	dir    string
	fs     FS

	mu    sync.Mutex
	live  map[string]struct{} // paths of run files not yet released
	stats Stats
}

// New returns a Manager enforcing cfg. A non-positive budget yields a nil
// Manager (spilling disabled), so callers can unconditionally thread the
// result through execution state.
func New(cfg Config) *Manager {
	if cfg.Budget <= 0 {
		return nil
	}
	dir := cfg.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	fs := cfg.FS
	if fs == nil {
		fs = OSFS
	}
	return &Manager{budget: cfg.Budget, dir: dir, fs: fs, live: make(map[string]struct{})}
}

// Enabled reports whether spilling is configured.
func (m *Manager) Enabled() bool { return m != nil && m.budget > 0 }

// Budget returns the byte budget, or 0 when disabled.
func (m *Manager) Budget() int64 {
	if m == nil {
		return 0
	}
	return m.budget
}

// ShouldSpill reports whether an operator holding estBytes of state must go
// out-of-core.
func (m *Manager) ShouldSpill(estBytes int64) bool {
	return m.Enabled() && estBytes > m.budget
}

// NewRun returns a writer for a fresh run. Its file is created on its first
// record and tracked by the manager until the run is released or Cleanup
// removes it.
func (m *Manager) NewRun() (*RunWriter, error) {
	if m == nil {
		return nil, fmt.Errorf("spill: no manager (budget disabled)")
	}
	return &RunWriter{m: m}, nil
}

// create makes a run file and registers it for cleanup.
func (m *Manager) create() (File, error) {
	f, err := m.fs.CreateTemp(m.dir, "flexspill-*.run")
	if err != nil {
		return nil, fmt.Errorf("spill: create run: %w", err)
	}
	m.mu.Lock()
	m.live[f.Name()] = struct{}{}
	m.stats.Files++
	m.mu.Unlock()
	return f, nil
}

// release forgets and removes a run file; idempotent.
func (m *Manager) release(path string) {
	if m == nil || path == "" {
		return
	}
	m.mu.Lock()
	_, ok := m.live[path]
	delete(m.live, path)
	m.mu.Unlock()
	if ok {
		_ = m.fs.Remove(path)
	}
}

// Cleanup removes every run file still alive. It is called when the owning
// query finishes — on success and on error alike — and is idempotent.
func (m *Manager) Cleanup() {
	if m == nil {
		return
	}
	m.mu.Lock()
	paths := make([]string, 0, len(m.live))
	for p := range m.live {
		paths = append(paths, p)
	}
	m.live = make(map[string]struct{})
	m.mu.Unlock()
	for _, p := range paths {
		_ = m.fs.Remove(p)
	}
}

// LiveFiles reports how many spill files have not been released yet
// (leak-detection hook for tests).
func (m *Manager) LiveFiles() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// Stats returns a snapshot of the manager's metrics.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// note applies a counter update under the stats lock; nil-safe.
func (m *Manager) note(f func(*Stats)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	f(&m.stats)
	m.mu.Unlock()
}

// NoteJoinSpill records one hash join going out-of-core with the given
// partition fan-out.
func (m *Manager) NoteJoinSpill(partitions int) {
	m.note(func(s *Stats) { s.JoinSpills++; s.JoinPartitions += int64(partitions) })
}

// NoteJoinRecursion records a skewed partition being re-partitioned, adding
// its new fan-out to the partition count.
func (m *Manager) NoteJoinRecursion(partitions int) {
	m.note(func(s *Stats) { s.JoinRecursions++; s.JoinPartitions += int64(partitions) })
}

// NoteOverBudgetBuild records a hash-table build that proceeded in memory
// despite exceeding the budget (irreducible skew).
func (m *Manager) NoteOverBudgetBuild() {
	m.note(func(s *Stats) { s.OverBudgetBuilds++ })
}

// NoteSortSpill records one ORDER BY routed through the external merge sort
// with the given number of initial runs.
func (m *Manager) NoteSortSpill(runs int) {
	m.note(func(s *Stats) { s.SortSpills++; s.SortRuns += int64(runs) })
}

// NoteMergePass records one intermediate merge pass of the external sort.
func (m *Manager) NoteMergePass() {
	m.note(func(s *Stats) { s.MergePasses++ })
}

// NoteAggSpill records one grouped aggregation going out-of-core with the
// given partition fan-out.
func (m *Manager) NoteAggSpill(partitions int) {
	m.note(func(s *Stats) { s.AggSpills++; s.AggPartitions += int64(partitions) })
}

// NoteAggRecursion records a skewed aggregation partition being
// re-partitioned, adding its new fan-out to the partition count.
func (m *Manager) NoteAggRecursion(partitions int) {
	m.note(func(s *Stats) { s.AggRecursions++; s.AggPartitions += int64(partitions) })
}

// NoteOverBudgetAgg records a partition aggregated in memory despite
// exceeding the budget (irreducible skew).
func (m *Manager) NoteOverBudgetAgg() {
	m.note(func(s *Stats) { s.OverBudgetAggs++ })
}

// NoteDistinctSpill records one DISTINCT dedup going out-of-core with the
// given partition fan-out.
func (m *Manager) NoteDistinctSpill(partitions int) {
	m.note(func(s *Stats) { s.DistinctSpills++; s.DedupePartitions += int64(partitions) })
}

// NoteSetOpSpill records one INTERSECT/EXCEPT evaluation going out-of-core
// with the given partition fan-out (per side).
func (m *Manager) NoteSetOpSpill(partitions int) {
	m.note(func(s *Stats) { s.SetOpSpills++; s.DedupePartitions += int64(partitions) })
}

// NoteDedupeRecursion records a skewed dedupe/set-op partition being
// re-partitioned, adding its new fan-out to the partition count.
func (m *Manager) NoteDedupeRecursion(partitions int) {
	m.note(func(s *Stats) { s.DedupeRecursions++; s.DedupePartitions += int64(partitions) })
}
