package spill

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func countFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

func TestNilManagerIsDisabled(t *testing.T) {
	var m *Manager
	if m.Enabled() {
		t.Fatal("nil manager enabled")
	}
	if m.ShouldSpill(1 << 40) {
		t.Fatal("nil manager wants to spill")
	}
	if m.Budget() != 0 || m.LiveFiles() != 0 {
		t.Fatal("nil manager has state")
	}
	m.Cleanup() // must not panic
	m.NoteJoinSpill(4)
	m.NoteSortSpill(2)
	if got := m.Stats(); got != (Stats{}) {
		t.Fatalf("nil manager stats %+v", got)
	}
	if New(Config{Budget: 0}) != nil {
		t.Fatal("zero budget should yield nil manager")
	}
}

func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Budget: 100, Dir: dir})
	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 500; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, string(make([]byte, i%37))))
		want = append(want, append([]byte(nil), rec...))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Records != 500 {
		t.Fatalf("records = %d", run.Records)
	}
	if countFiles(t, dir) != 1 {
		t.Fatalf("expected 1 file after finish, got %d", countFiles(t, dir))
	}
	r, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	// Open unlinks the name immediately (crash hygiene); the descriptor
	// keeps the data readable.
	if countFiles(t, dir) != 0 {
		t.Fatalf("open left %d directory entries", countFiles(t, dir))
	}
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("EOF after %d records, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(rec) != string(want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	run.Release() // no-op after Open
	if countFiles(t, dir) != 0 {
		t.Fatalf("release left %d files", countFiles(t, dir))
	}
	st := m.Stats()
	if st.Files != 1 || st.SpilledRecords != 500 || st.SpilledBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCleanupRemovesLiveFiles(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Budget: 1, Dir: dir})
	for i := 0; i < 3; i++ {
		w, err := m.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	// One aborted run must not leak either.
	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if got := m.LiveFiles(); got != 3 {
		t.Fatalf("live files = %d, want 3", got)
	}
	m.Cleanup()
	if countFiles(t, dir) != 0 {
		t.Fatalf("cleanup left %d files", countFiles(t, dir))
	}
	if m.LiveFiles() != 0 {
		t.Fatal("cleanup left live entries")
	}
	m.Cleanup() // idempotent
}

func TestConcurrentRunCreation(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Budget: 1, Dir: dir})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rw, err := m.NewRun()
				if err != nil {
					t.Error(err)
					return
				}
				if err := rw.Write([]byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
				run, err := rw.Finish()
				if err != nil {
					t.Error(err)
					return
				}
				run.Release()
			}
		}(w)
	}
	wg.Wait()
	if countFiles(t, dir) != 0 {
		t.Fatalf("leftover files: %d", countFiles(t, dir))
	}
	if st := m.Stats(); st.Files != 160 || st.SpilledRecords != 160 {
		t.Fatalf("stats %+v", st)
	}
}

func TestShouldSpill(t *testing.T) {
	m := New(Config{Budget: 1000, Dir: t.TempDir()})
	if m.ShouldSpill(1000) {
		t.Fatal("at-budget state should not spill")
	}
	if !m.ShouldSpill(1001) {
		t.Fatal("over-budget state should spill")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SpilledBytes: 1, Files: 2, JoinSpills: 3, SortRuns: 4}
	a.Add(Stats{SpilledBytes: 10, Files: 20, JoinSpills: 30, SortRuns: 40, MergePasses: 5})
	want := Stats{SpilledBytes: 11, Files: 22, JoinSpills: 33, SortRuns: 44, MergePasses: 5}
	if a != want {
		t.Fatalf("got %+v want %+v", a, want)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"1024", 1024, false},
		{"64KiB", 64 << 10, false},
		{"64kb", 64 << 10, false},
		{"2MiB", 2 << 20, false},
		{"1.5MB", 3 << 19, false},
		{"1GiB", 1 << 30, false},
		{"128B", 128, false},
		{" 7 KiB ", 7 << 10, false},
		{"", 0, true},
		{"KiB", 0, true},
		{"-1MB", 0, true},
		{"12XB", 0, true},
		// Overflowing sizes must error, not wrap negative (a wrapped budget
		// would silently disable spilling).
		{"20000000000GiB", 0, true},
		{"9223372036854775807GB", 0, true},
		// NaN/Inf parse as floats but must be rejected, and a configured
		// sub-byte size must not truncate to "disabled".
		{"nan", 0, true},
		{"inf", 0, true},
		{"+Inf", 0, true},
		{"0.5", 0, true},
		{"0.2B", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseBytes(%q): expected error, got %d", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRunFilesLandInDir pins the file-naming contract that flexserver's
// shutdown sweep relies on: every spill file lives directly under the
// configured Dir with the flexspill- prefix.
func TestRunFilesLandInDir(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Budget: 1, Dir: dir})
	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries", len(entries))
	}
	matched, err := filepath.Match("flexspill-*.run", entries[0].Name())
	if err != nil || !matched {
		t.Fatalf("unexpected spill file name %q", entries[0].Name())
	}
	m.Cleanup()
}

// TestEmptyRunHasNoFile pins lazy run files: a run creates its file on its
// first record, so one finished with none leaves nothing on disk, counts no
// file, opens at EOF, and releases as a no-op — through a FaultFS that would
// fail any create or open it saw.
func TestEmptyRunHasNoFile(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{FailCreateAt: 1, FailOpenAt: 1}
	m := New(Config{Budget: 1, Dir: dir, FS: ffs})
	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Records != 0 || m.LiveFiles() != 0 || countFiles(t, dir) != 0 {
		t.Fatalf("empty run: %d records, %d live, %d on disk", run.Records, m.LiveFiles(), countFiles(t, dir))
	}
	r, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty run Next: got %v, want EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	run.Release()
	if creates, opens, _ := ffs.Counts(); creates != 0 || opens != 0 {
		t.Fatalf("empty run touched the FS: %d creates, %d opens", creates, opens)
	}
	if st := m.Stats(); st.Files != 0 || st.SpilledBytes != 0 {
		t.Fatalf("empty run counted: %+v", st)
	}
}
