package spill

import (
	"errors"
	"io"
	"syscall"
	"testing"
)

// TestFaultFSInjectsCreate pins that a tripped CreateTemp threshold surfaces
// as an error from the first Write of a run (a run creates its file on its
// first record), leaves nothing live, and defaults to ENOSPC.
func TestFaultFSInjectsCreate(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{FailCreateAt: 2}
	m := New(Config{Budget: 64, Dir: dir, FS: ffs})

	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("rec")); err != nil {
		t.Fatalf("first create should pass: %v", err)
	}
	w.Abort()
	w, err = m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("rec")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second create: got %v, want ENOSPC", err)
	}
	if m.LiveFiles() != 0 {
		t.Fatalf("%d live files after failed create", m.LiveFiles())
	}
	w.Abort()
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("%d files on disk after failed create", n)
	}
}

// TestFaultFSInjectsWrite pins that an injected write error propagates
// through the buffered writer's flush and that aborting the half-written run
// removes its file.
func TestFaultFSInjectsWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{FailWriteAt: 1}
	m := New(Config{Budget: 64, Dir: dir, FS: ffs})

	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	// Records smaller than the bufio buffer surface the fault at Finish's
	// flush; either Write or Finish must carry it out.
	werr := w.Write([]byte("payload"))
	if werr == nil {
		_, werr = w.Finish()
	} else {
		w.Abort()
	}
	if !errors.Is(werr, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", werr)
	}
	if m.LiveFiles() != 0 {
		t.Fatalf("%d live files after failed write", m.LiveFiles())
	}
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("%d files on disk after failed write", n)
	}
}

// TestFaultFSInjectsOpen pins that a failed reopen of a finished run is an
// error (not a panic) and does not leak the run's file past release/Cleanup.
func TestFaultFSInjectsOpen(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{FailOpenAt: 1}
	m := New(Config{Budget: 64, Dir: dir, FS: ffs})

	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Open(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	m.Cleanup()
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("%d files on disk after failed open + cleanup", n)
	}
}

// TestLifecycleIdempotence pins the double-call behavior the cancellation
// paths rely on: Abort after Abort or Finish, Release after Release or Open,
// reader Close after Close, and Cleanup after Cleanup are all no-ops.
func TestLifecycleIdempotence(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Budget: 64, Dir: dir})

	// Abort twice, and Abort after Finish.
	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	w.Abort()
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish after Abort should fail")
	}

	w2, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Write([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	run, err := w2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	w2.Abort() // after Finish: must not remove the finished run
	if m.LiveFiles() != 1 {
		t.Fatalf("finished run not live after redundant Abort: %d", m.LiveFiles())
	}

	// Open, then redundant Release, then double Close.
	r, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	run.Release()
	run.Release()
	if rec, err := r.Next(); err != nil || string(rec) != "rec" {
		t.Fatalf("Next after redundant Release: %q, %v", rec, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	m.Cleanup()
	m.Cleanup()
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("%d files on disk after idempotence sequence", n)
	}
}
