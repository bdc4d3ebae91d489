package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"flexdp/internal/spill"
)

// TestSpillOneFilePerSide pins lazy run files: when every record of a spill
// hashes to one partition, the split creates one file per side, not one per
// partition, and the answer is the unbudgeted one.
func TestSpillOneFilePerSide(t *testing.T) {
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.MustCreateTable("l", []Column{{Name: "k", Type: KindInt}, {Name: "v", Type: KindInt}})
	db.MustCreateTable("r", []Column{{Name: "k", Type: KindInt}, {Name: "w", Type: KindInt}})
	lrows := make([][]Value, 40)
	for i := range lrows {
		lrows[i] = []Value{NewInt(7), NewInt(int64(i))}
	}
	rrows := make([][]Value, 60)
	for i := range rrows {
		rrows[i] = []Value{NewInt(7), NewInt(int64(100 + i))}
	}
	if err := db.InsertRows("l", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("r", rrows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql   string
		files int64
		spill func(spill.Stats) int64
	}{
		{`SELECT l.v, r.w FROM l JOIN r ON l.k = r.k`, 2, func(s spill.Stats) int64 { return s.JoinSpills }},
		{`SELECT k, COUNT(*), SUM(v) FROM l GROUP BY k`, 1, func(s spill.Stats) int64 { return s.AggSpills }},
		{`SELECT DISTINCT k FROM r`, 1, func(s spill.Stats) int64 { return s.DistinctSpills }},
	} {
		db.SetMemoryBudget(0)
		want, err := db.Query(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		db.SetMemoryBudget(64)
		before := db.SpillStats()
		got, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if diff := resultsEqualExact(want, got); diff != "" {
			t.Fatalf("%s: %s", c.sql, diff)
		}
		st := db.SpillStats().Delta(before)
		if c.spill(st) != 1 {
			t.Fatalf("%s: did not spill once: %+v", c.sql, st)
		}
		if st.Files != c.files {
			t.Fatalf("%s: %d spill files, want %d (one per side)", c.sql, st.Files, c.files)
		}
	}
	db.SetMemoryBudget(0)
}

// TestCancellationInPartitionDrain cancels the query context from inside a
// partition drain — the spill FS's Open of the k-th run — and requires the
// drain to return context.Canceled before the leaf sees that partition,
// open no later partition, and release the runs it never reached.
func TestCancellationInPartitionDrain(t *testing.T) {
	const k = 3
	goctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var opens atomic.Int64
	fs := &spill.FaultFS{OnOp: func(op string) {
		if op == "open" && opens.Add(1) == k {
			cancel()
		}
	}}
	m := spill.New(spill.Config{Budget: 1 << 20, Dir: t.TempDir(), FS: fs})
	defer m.Cleanup()
	ctx := &execContext{workers: 1, morsel: 8, spill: m, goctx: goctx}

	rows := make([][]Value, 400)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i))}
	}
	codec := keyCodec{withIdx: true}
	const fanout = 16
	runs, err := codec.spill(ctx, rows, fanout)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, r := range runs {
		if r.Records > 0 {
			nonEmpty++
		}
	}
	if nonEmpty <= k {
		t.Fatalf("only %d of %d partitions hold records; the drain cannot stop before the last", nonEmpty, fanout)
	}
	leaves := 0
	pt := &partition[keyRec]{codecs: []partCodec[keyRec]{codec},
		size: estKeyRecsBytes, sized: 1, need: 1, noteRecursion: m.NoteDedupeRecursion,
		leaf: func([][]keyRec) error { leaves++; return nil }}
	err = pt.drain(ctx, 1, [][]*spill.Run{runs}, len(rows))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drain cancelled at open %d: got %v", k, err)
	}
	if leaves != k-1 {
		t.Fatalf("leaf saw %d partitions, want the %d before the cancelling open", leaves, k-1)
	}
	if n := opens.Load(); n != k {
		t.Fatalf("drain opened %d runs after cancelling at open %d", n, k)
	}
	if n := m.LiveFiles(); n != 0 {
		t.Fatalf("cancelled drain left %d live spill files", n)
	}
}
