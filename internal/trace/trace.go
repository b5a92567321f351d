// Package trace serialises campaign records as JSON Lines, mirroring the
// paper's public log release (the UFRGS-CAROL sc17-log-data repository):
// every injection and beam run is one self-describing JSON object, and the
// report tool re-derives every table from the logs alone. The same Writer
// carries the -monitor-jsonl snapshot streams of phi-bench and phi-beam —
// any JSON-marshalable record type, one object per line.
//
// A campaign's workers hand their records to its Observe hook in no
// particular order; Ordered is the log to hand them to: it resequences by
// sequence number, writes each record exactly once, and its Close reports
// the first write, flush or close error.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Writer appends JSONL records to an io.Writer.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewWriter wraps w for record appending.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record (any JSON-marshallable value).
func (w *Writer) Write(rec any) error {
	if err := w.enc.Encode(rec); err != nil {
		return fmt.Errorf("trace: encode record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// Ordered is a JSONL log fed by concurrent campaign workers: seq maps a
// record to its 0-based position in the log, and each record is held
// until its predecessors have been written, so the log's bytes do not
// depend on which worker ran what. A cancelled campaign leaves gaps in
// the sequence space; Close writes the records held behind them in
// sorted order, so a partial log stays sorted. Both campaign CLIs
// (carol-fi, phi-beam) write their -out logs through this.
type Ordered[T any] struct {
	mu      sync.Mutex
	dst     io.WriteCloser
	w       *Writer
	seq     func(T) int
	next    int
	pending map[int]T
	err     error
}

// NewOrdered returns an ordered log writing to dst, which Close closes.
func NewOrdered[T any](dst io.WriteCloser, seq func(T) int) *Ordered[T] {
	return &Ordered[T]{dst: dst, w: NewWriter(dst), seq: seq, pending: map[int]T{}}
}

// Observe adds one record to the log; it is safe for concurrent use.
// After a write error the log keeps accepting records, so a campaign
// never blocks on a dead log, but writes nothing more; Close reports the
// error.
func (o *Ordered[T]) Observe(rec T) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return
	}
	o.pending[o.seq(rec)] = rec
	for {
		r, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.next++
		if o.err = o.w.Write(r); o.err != nil {
			return
		}
	}
}

// Close writes the records still held behind gaps in sequence order,
// flushes the log and closes dst. It returns the first write, flush or
// close error of the log's life.
func (o *Ordered[T]) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	rest := make([]int, 0, len(o.pending))
	for s := range o.pending {
		rest = append(rest, s)
	}
	sort.Ints(rest)
	for _, s := range rest {
		if o.err == nil {
			o.err = o.w.Write(o.pending[s])
		}
	}
	if err := o.w.Flush(); err != nil && o.err == nil {
		o.err = fmt.Errorf("trace: flush: %w", err)
	}
	if err := o.dst.Close(); err != nil && o.err == nil {
		o.err = fmt.Errorf("trace: close: %w", err)
	}
	return o.err
}

// Count returns the number of records the log has written.
func (o *Ordered[T]) Count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.w.Count()
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Flush drains the buffer; call before closing the underlying file.
func (w *Writer) Flush() error { return w.bw.Flush() }

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
