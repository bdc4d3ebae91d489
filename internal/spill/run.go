package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// A run is a sequence of length-prefixed records in a temp file: each record
// is a uvarint byte count followed by that many payload bytes. The payload
// encoding is the caller's concern — the engine stores rows in its exact
// (bit-preserving) Value encoding, so a record read back reconstructs the
// spilled row identically.

// runBufSize is the bufio buffer for run readers and writers: large enough
// that sequential spill IO amortizes syscalls, small enough that a wide
// merge fan-in stays cheap (fan-in × runBufSize bytes of buffer).
const runBufSize = 64 * 1024

// RunWriter appends records to a spill file. The file and its buffer are
// created on the first record, so a run that receives none costs neither.
// Not safe for concurrent use; parallel workers each write their own run.
type RunWriter struct {
	m       *Manager
	f       File // nil until the first record
	bw      *bufio.Writer
	lenBuf  [binary.MaxVarintLen64]byte
	records int64
	bytes   int64
	done    bool
}

// Write appends one record, creating the run's file on the first.
func (w *RunWriter) Write(rec []byte) error {
	if w.f == nil {
		f, err := w.m.create()
		if err != nil {
			return err
		}
		w.f, w.bw = f, bufio.NewWriterSize(f, runBufSize)
	}
	n := binary.PutUvarint(w.lenBuf[:], uint64(len(rec)))
	if _, err := w.bw.Write(w.lenBuf[:n]); err != nil {
		return fmt.Errorf("spill: write run: %w", err)
	}
	if _, err := w.bw.Write(rec); err != nil {
		return fmt.Errorf("spill: write run: %w", err)
	}
	w.records++
	w.bytes += int64(n + len(rec))
	return nil
}

// Finish flushes and closes the file, returning the completed run. The
// run's file stays on disk until Release (or manager Cleanup); a run with
// no records has no file.
func (w *RunWriter) Finish() (*Run, error) {
	if w.done {
		return nil, fmt.Errorf("spill: run already finished")
	}
	w.done = true
	if w.f == nil {
		return &Run{m: w.m}, nil
	}
	if err := w.bw.Flush(); err != nil {
		w.abortLocked()
		return nil, fmt.Errorf("spill: flush run: %w", err)
	}
	path := w.f.Name()
	if err := w.f.Close(); err != nil {
		w.m.release(path)
		return nil, fmt.Errorf("spill: close run: %w", err)
	}
	w.m.note(func(s *Stats) {
		s.SpilledBytes += w.bytes
		s.SpilledRecords += w.records
	})
	return &Run{m: w.m, path: path, Records: w.records, Bytes: w.bytes}, nil
}

// Abort discards a half-written run, closing and removing its file.
func (w *RunWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.abortLocked()
}

func (w *RunWriter) abortLocked() {
	if w.f == nil {
		return
	}
	path := w.f.Name()
	_ = w.f.Close()
	w.m.release(path)
}

// Run is a completed spill file ready to be read back.
type Run struct {
	m       *Manager
	path    string // "" for a run with no records, which has no file
	Records int64
	Bytes   int64
}

// Open returns a reader positioned at the first record and unlinks the
// run's directory entry: runs are consumed exactly once, and removing the
// name at open time pins the data to the open descriptor (POSIX), so a
// process killed mid-consumption leaks no file — the crash-leak window is
// only runs being written or finished but not yet opened. A run cannot be
// reopened after Open. A run with no records opens at EOF.
func (r *Run) Open() (*RunReader, error) {
	if r.path == "" {
		return &RunReader{closed: true}, nil
	}
	f, err := r.m.fs.Open(r.path)
	if err != nil {
		// A run that cannot be reopened is still the manager's to unlink:
		// releasing here keeps a failed merge from leaking the file until
		// Cleanup, mirroring the success path below.
		r.m.release(r.path)
		return nil, fmt.Errorf("spill: open run: %w", err)
	}
	r.m.release(r.path)
	return &RunReader{f: f, br: bufio.NewReaderSize(f, runBufSize)}, nil
}

// Release removes the run's file; idempotent, and a no-op after Open (the
// file is already unlinked then) or for a run with no records. It exists
// for runs abandoned without being consumed, so peak disk usage tracks the
// live working set.
func (r *Run) Release() {
	r.m.release(r.path)
}

// RunReader iterates a run's records in write order.
type RunReader struct {
	f      File
	br     *bufio.Reader
	buf    []byte
	closed bool
}

// Next returns the next record, or io.EOF after the last one. The returned
// slice is valid until the following Next call (the buffer is reused).
func (r *RunReader) Next() ([]byte, error) {
	if r.f == nil {
		return nil, io.EOF
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("spill: read run: %w", err)
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, fmt.Errorf("spill: read run record: %w", err)
	}
	return r.buf, nil
}

// Close closes the underlying file; idempotent, because error-path unwinding
// can close a reader that a racing Cleanup already tore down.
func (r *RunReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.f.Close()
}
