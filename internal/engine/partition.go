package engine

import (
	"encoding/binary"
	"fmt"
	"io"

	"flexdp/internal/spill"
)

// Recursive hash partitioning: the one out-of-core policy behind the Grace
// join, the spilled grouped aggregation, and spilled DISTINCT and
// INTERSECT/EXCEPT. An operator whose hash state would exceed the memory
// budget routes its input records into level-0 partition runs, one run set
// per side (two for the join and the set operations, one otherwise); records
// with equal partition keys land in the same partition on every side. Each
// partition is read back and handed to the operator's leaf — or, while it
// still exceeds the budget, split again one level deeper under a freshly
// salted hash. A partition that stops shrinking (every record sharing one
// key) or reaches graceMaxDepth goes to the leaf over budget, since no hash
// can split it.
//
// An operator supplies a record codec per side and a leaf; the partitioner
// owns the fan-out, the salted hash, the stop rules, the spill writers, the
// cancellation polls and the release of partitions a leaf need not see.
// Partition files preserve input order, partitions are visited in index
// order (except the aggregation's level 0, which drains in parallel), and a
// key's records share one partition on every side at every level: the
// invariants each leaf's determinism argument rests on.

const (
	// graceFanoutMin/Max bound the partition fan-out per level.
	graceFanoutMin = 4
	graceFanoutMax = 32
	// graceMaxDepth bounds recursive re-partitioning; beyond it a partition
	// goes to the leaf even over budget.
	graceMaxDepth = 6
)

// partCodec is one side's spill record format.
type partCodec[R any] interface {
	// key appends r's partition key to dst; false drops r unwritten (a
	// NULL join key can never match).
	key(dst []byte, r R) ([]byte, bool)
	// encode appends r's record to dst.
	encode(dst []byte, r R) []byte
	// decode reads a record back; rec is only valid until the next read.
	decode(rec []byte) (R, error)
}

// partition is one spilling operator's use of the partitioner.
type partition[R any] struct {
	codecs []partCodec[R] // per side, for the records of every level
	// size estimates the in-memory bytes of one side's records. The first
	// sized sides drive the stop rules (the join sizes its build side only).
	size  func([]R) int64
	sized int
	// need is how many leading sides must be non-empty for a partition to
	// reach the leaf; a partition with an empty one is released unread.
	need int
	// parallel drains the level-0 partitions on ctx.workers (they are
	// disjoint); the leaf and the codecs must then be safe for concurrent
	// use.
	parallel       bool
	noteRecursion  func(fanout int)
	noteOverBudget func() // nil: over-budget leaves go uncounted
	leaf           func(sides [][]R) error
}

// drain hands the partitions runs[side][p] of one split to node at level
// (the split's level + 1), in index order or, for a parallel partitioner's
// level 0, concurrently; parentLen is the sized record count they were split
// from. On failure — cancellation included — it releases the runs of the
// partitions it did not reach, so an abandoned drain holds no files.
func (pt *partition[R]) drain(ctx *execContext, level int, runs [][]*spill.Run, parentLen int) error {
	workers := 1
	if level == 1 && pt.parallel {
		workers = ctx.workers
	}
	err := ctx.runSpans(morselSpans(len(runs[0]), 1), workers, func(_, p int, _ span) error {
		for _, side := range runs[:pt.need] {
			if side[p].Records == 0 {
				for _, s := range runs {
					s[p].Release()
				}
				return nil
			}
		}
		sides := make([][]R, len(runs))
		for s := range runs {
			var err error
			if sides[s], err = readRun(pt.codecs[s], runs[s][p]); err != nil {
				return err
			}
		}
		return pt.node(ctx, level, sides, parentLen)
	})
	if err != nil {
		for _, side := range runs {
			releaseRuns(side)
		}
	}
	return err
}

// node handles one partition: the leaf when it fits the budget, has reached
// graceMaxDepth or stopped shrinking, else a split one level deeper.
func (pt *partition[R]) node(ctx *execContext, level int, sides [][]R, parentLen int) error {
	if err := ctx.err(); err != nil {
		return err
	}
	var est int64
	n := 0
	for _, recs := range sides[:pt.sized] {
		est += pt.size(recs)
		n += len(recs)
	}
	over := ctx.spill.ShouldSpill(est)
	if !over || level >= graceMaxDepth || n >= parentLen {
		if over && pt.noteOverBudget != nil {
			pt.noteOverBudget()
		}
		return pt.leaf(sides)
	}
	fanout := graceFanout(est, ctx.spill.Budget())
	pt.noteRecursion(fanout)
	runs := make([][]*spill.Run, len(sides))
	for s, recs := range sides {
		var err error
		if runs[s], err = spillSide(ctx, pt.codecs[s], level, fanout, len(recs), func(i int) R { return recs[i] }); err != nil {
			return err
		}
	}
	return pt.drain(ctx, level+1, runs, n)
}

// partWriter routes one side's records into partition runs by the
// level-salted hash of their key; a run creates its file on its first
// record, so a partition that receives none costs no file. Level-0
// streaming producers (the Grace probe side, the spilled aggregation's sink)
// push into one directly.
type partWriter[R any] struct {
	codec    partCodec[R]
	level    int
	runs     []*spill.RunWriter
	n        int // records routed so far, dropped ones included
	key, rec []byte
}

func newPartWriter[R any](ctx *execContext, c partCodec[R], level, fanout int) (*partWriter[R], error) {
	w := &partWriter[R]{codec: c, level: level, runs: make([]*spill.RunWriter, fanout)}
	for i := range w.runs {
		rw, err := ctx.spill.NewRun()
		if err != nil {
			w.abort()
			return nil, err
		}
		w.runs[i] = rw
	}
	return w, nil
}

func (w *partWriter[R]) write(r R) error {
	w.n++
	key, ok := w.codec.key(w.key[:0], r)
	w.key = key
	if !ok {
		return nil
	}
	w.rec = w.codec.encode(w.rec[:0], r)
	return w.runs[graceHash(key, w.level)%uint64(len(w.runs))].Write(w.rec)
}

// abort discards every run not yet finished.
func (w *partWriter[R]) abort() {
	for _, rw := range w.runs {
		if rw != nil {
			rw.Abort()
		}
	}
}

// finish completes every run for reading.
func (w *partWriter[R]) finish() ([]*spill.Run, error) {
	runs := make([]*spill.Run, len(w.runs))
	for i, rw := range w.runs {
		var err error
		if runs[i], err = rw.Finish(); err != nil {
			w.abort()
			return nil, err
		}
	}
	return runs, nil
}

// spillSide routes n records, the i-th produced by at(i), into fanout
// partition runs under the level's salt, polling the context per morsel.
func spillSide[R any](ctx *execContext, c partCodec[R], level, fanout, n int, at func(int) R) ([]*spill.Run, error) {
	w, err := newPartWriter(ctx, c, level, fanout)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				w.abort()
				return nil, err
			}
		}
		if err := w.write(at(i)); err != nil {
			w.abort()
			return nil, err
		}
	}
	return w.finish()
}

// readRun loads one partition run back into memory (Open unlinks the file;
// closing the reader frees its disk space).
func readRun[R any](c partCodec[R], run *spill.Run) ([]R, error) {
	rd, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	out := make([]R, 0, run.Records)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		r, err := c.decode(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// releaseRuns removes runs abandoned unread.
func releaseRuns(runs []*spill.Run) {
	for _, r := range runs {
		r.Release()
	}
}

// decodeIdx splits a record into its leading input position and the rest.
func decodeIdx(rec []byte) (int, []byte, error) {
	idx, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0, nil, fmt.Errorf("engine: corrupt spill record index")
	}
	return int(idx), rec[n:], nil
}

// graceHash hashes an encoded partition key with a per-level salt, so a
// skewed partition re-partitions along fresh boundaries instead of
// collapsing into one bucket again. Independent of buildShard's unsalted
// FNV-32.
func graceHash(key []byte, level int) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(level)+1)*1099511628211
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// graceFanout sizes the partition fan-out so each partition's sized state
// lands near half the budget, within [graceFanoutMin, graceFanoutMax].
func graceFanout(est, budget int64) int {
	if budget <= 0 {
		return graceFanoutMin
	}
	f := int(est/(budget/2+1)) + 1
	if f < graceFanoutMin {
		f = graceFanoutMin
	}
	if f > graceFanoutMax {
		f = graceFanoutMax
	}
	return f
}
