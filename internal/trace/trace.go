// Package trace is the record path of every JSON Lines stream the tools
// write, mirroring the paper's public log release (the UFRGS-CAROL
// sc17-log-data repository): every injection and beam run is one
// self-describing JSON object, and the report tool re-derives every table
// from the logs alone.
//
// It has two halves. Ordered is the one reorder: concurrent campaign
// workers hand it values in no particular order, each tagged with its
// position, and it releases them to one callback, serially and in
// position order, so what a consumer sees does not depend on which worker
// ran what. It does no I/O. File is the one JSONL writer: the campaign
// logs (-out), the -monitor-jsonl snapshot streams and the service's
// admission log all land through it, one object per line, with one first
// error that Close reports. Read and Each decode such a file.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Ordered releases values in position order. Each value carries a
// position (pos ≥ 0, each used once); a value is held until every lower
// position has been released, then handed to release. Release calls are
// serialised and never overlap: one runs at a time, under the reorder's
// lock. A cancelled campaign leaves gaps in the position space; Close
// releases what the gaps still hold, sorted.
type Ordered[T any] struct {
	mu      sync.Mutex
	release func(T)
	next    int
	held    map[int]T
}

// NewOrdered returns a reorder that hands values to release.
func NewOrdered[T any](release func(T)) *Ordered[T] {
	return &Ordered[T]{release: release, held: map[int]T{}}
}

// Put adds the value at position pos and releases every value that is now
// in order; it is safe for concurrent use.
func (o *Ordered[T]) Put(pos int, v T) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.held[pos] = v
	for {
		v, ok := o.held[o.next]
		if !ok {
			return
		}
		delete(o.held, o.next)
		o.next++
		o.release(v)
	}
}

// Close releases the values still held behind gaps, in position order.
func (o *Ordered[T]) Close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	rest := make([]int, 0, len(o.held))
	for pos := range o.held {
		rest = append(rest, pos)
	}
	sort.Ints(rest)
	for _, pos := range rest {
		o.release(o.held[pos])
		delete(o.held, pos)
	}
}

// File is a JSONL file: one JSON object per Write, one per line. Write is
// safe for concurrent use. The first error — encoding, writing, flushing
// or closing — latches: nothing more is written, later calls return it,
// and Close reports it.
type File struct {
	mu  sync.Mutex
	dst io.WriteCloser
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// Open opens the JSONL file at path, creating it if needed; flag is
// os.O_TRUNC to start it afresh or os.O_APPEND to extend it.
func Open(path string, flag int) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return newFile(f), nil
}

func newFile(dst io.WriteCloser) *File {
	bw := bufio.NewWriter(dst)
	return &File{dst: dst, bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends rec (any JSON-marshalable value) as one line and returns
// the file's first error, if any.
func (f *File) Write(rec any) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		if err := f.enc.Encode(rec); err != nil {
			f.err = fmt.Errorf("trace: record %d: %w", f.n, err)
		} else {
			f.n++
		}
	}
	return f.err
}

// Flush hands the buffered lines to the file and returns the file's first
// error, if any.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.bw.Flush(); err != nil && f.err == nil {
		f.err = fmt.Errorf("trace: flush: %w", err)
	}
	return f.err
}

// Count returns the number of records written.
func (f *File) Count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Close flushes and closes the file and returns its first error.
func (f *File) Close() error {
	f.Flush()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.dst.Close(); err != nil && f.err == nil {
		f.err = fmt.Errorf("trace: close: %w", err)
	}
	return f.err
}

// Read decodes every JSONL record from r into T. Blank lines are skipped;
// a malformed line aborts with its line number.
func Read[T any](r io.Reader) ([]T, error) {
	var out []T
	if err := Each(r, func(rec T) error { out = append(out, rec); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// Each decodes r's JSONL records into T one at a time and hands each to
// fn, in order. Blank lines are skipped; a malformed line, or one whose
// record fn refuses, aborts with its line number.
func Each[T any](r io.Reader, fn func(T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec T
		err := json.Unmarshal(raw, &rec)
		if err == nil {
			err = fn(rec)
		}
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: scan: %w", err)
	}
	return nil
}
