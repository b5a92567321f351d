package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type rec struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	X    float64 `json:"x"`
}

func TestRoundTrip(t *testing.T) {
	dst := &sink{}
	f := newFile(dst)
	in := []rec{{"a", 1, 0.5}, {"b", 2, -3}, {"c", 3, 0}}
	for _, r := range in {
		if err := f.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil || !dst.closed {
		t.Fatalf("Close: %v, destination closed %v", err, dst.closed)
	}
	if f.Count() != 3 {
		t.Fatalf("count %d", f.Count())
	}
	out, err := Read[rec](&dst.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("read %d records", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

// TestOpenTruncatesOrAppends: O_TRUNC starts afresh what a path held,
// O_APPEND extends it, and both land every line at Close.
func TestOpenTruncatesOrAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"name\":\"stale\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []int{os.O_TRUNC, os.O_APPEND} {
		f, err := Open(path, flag)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(rec{Name: "x"})
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), "{\"name\":\"x\",\"n\":0,\"x\":0}\n{\"name\":\"x\",\"n\":0,\"x\":0}\n"; got != want {
		t.Fatalf("file holds %q, want %q", got, want)
	}
}

// TestFileFirstErrorLatches: the first error a file meets — here a
// destination that fails once, so a later write would succeed — is what
// Write, Flush and Close return from then on, and nothing reaches the
// destination after it: not the lines buffered with the failed flush, not
// the lines written later.
func TestFileFirstErrorLatches(t *testing.T) {
	dst := &sink{}
	f := newFile(dst)
	f.Write(rec{N: 0})
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	dst.full = true
	f.Write(rec{N: 1})
	if err := f.Flush(); !errors.Is(err, errFull) {
		t.Fatalf("Flush on a full destination returned %v, want %v", err, errFull)
	}
	dst.full = false
	if err := f.Write(rec{N: 2}); !errors.Is(err, errFull) {
		t.Fatalf("Write after the failure returned %v, want the first error", err)
	}
	if err := f.Close(); !errors.Is(err, errFull) || !dst.closed {
		t.Fatalf("Close returned %v, destination closed %v; want %v, true", err, dst.closed, errFull)
	}
	out, err := Read[rec](&dst.Buffer)
	if err != nil || len(out) != 1 || out[0].N != 0 {
		t.Fatalf("destination holds %+v (%v), want the one record written before the failure", out, err)
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	out, err := Read[rec](strings.NewReader("{\"name\":\"a\"}\n\n{\"name\":\"b\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("records %d", len(out))
	}
}

func TestReadMalformed(t *testing.T) {
	_, err := Read[rec](strings.NewReader("{\"name\":\"a\"}\nnot-json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

// TestEachRefusedLine: a record fn refuses stops the read at its line,
// blank lines counted, with fn's error inside.
func TestEachRefusedLine(t *testing.T) {
	refused := errors.New("refused")
	var seen []string
	err := Each(strings.NewReader("{\"name\":\"a\"}\n\n{\"name\":\"b\"}\n{\"name\":\"c\"}\n"), func(r rec) error {
		seen = append(seen, r.Name)
		if r.Name == "b" {
			return refused
		}
		return nil
	})
	if !errors.Is(err, refused) || !strings.Contains(err.Error(), "line 3") || len(seen) != 2 {
		t.Fatalf("Each stopped with %v after %v, want the refusal at line 3 after a and b", err, seen)
	}
}

func TestReadEmpty(t *testing.T) {
	out, err := Read[rec](strings.NewReader(""))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty read: %v %v", out, err)
	}
}

// sink is a file's destination: a buffer that can be made to fail every
// write, and that records whether it was closed.
type sink struct {
	bytes.Buffer
	full, closed bool
}

var errFull = errors.New("no space left on device")

func (s *sink) Write(p []byte) (int, error) {
	if s.full {
		return 0, errFull
	}
	return s.Buffer.Write(p)
}

func (s *sink) Close() error { s.closed = true; return nil }

// TestOrderedConcurrentObserversWriteInSeqOrder: values put from
// concurrent goroutines are released in position order, one release at a
// time.
func TestOrderedConcurrentObserversWriteInSeqOrder(t *testing.T) {
	const n, workers = 400, 8
	var (
		got      []int
		inFlight atomic.Int32
		overlap  atomic.Bool
	)
	order := NewOrdered(func(r rec) {
		if inFlight.Add(1) != 1 {
			overlap.Store(true)
		}
		got = append(got, r.N)
		runtime.Gosched() // give an overlapping release the chance to show
		inFlight.Add(-1)
	})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Strided like the engine's workers, but each runs backwards
			// through its share, so almost every value waits for others.
			for i := n - workers + w; i >= 0; i -= workers {
				order.Put(i, rec{N: i})
			}
		}()
	}
	wg.Wait()
	order.Close()
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(got, want) {
		t.Fatalf("released %v, want 0..%d in order", got, n-1)
	}
	if overlap.Load() {
		t.Fatal("two release calls overlapped")
	}
}

// TestOrderedGapFlushedSortedAtClose: a gap in the positions (a cancelled
// trial) holds back only what follows it, and Close releases that sorted.
func TestOrderedGapFlushedSortedAtClose(t *testing.T) {
	var got []int
	order := NewOrdered(func(r rec) { got = append(got, r.N) })
	for _, i := range []int{1, 0, 6, 3, 9, 5, 2} { // 4, 7 and 8 never arrive
		order.Put(i, rec{N: i})
	}
	if !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("released %v before Close, want 0-3", got)
	}
	order.Close()
	if want := []int{0, 1, 2, 3, 5, 6, 9}; !slices.Equal(got, want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	order.Close() // nothing held: a second Close releases nothing
	if len(got) != 7 {
		t.Fatalf("a second Close released again: %v", got)
	}
}

// TestOrderedWriteErrorReportedAtClose: a reorder feeding a file whose
// destination fails keeps accepting values without blocking, and the
// file's Close reports the first error, whether it surfaces when a buffer
// fills or only at the final flush (a short log on a full disk).
func TestOrderedWriteErrorReportedAtClose(t *testing.T) {
	for _, n := range []int{3, 2000} {
		dst := &sink{full: true}
		f := newFile(dst)
		order := NewOrdered(func(r rec) { f.Write(r) })
		for i := n - 1; i >= 0; i-- {
			order.Put(i, rec{Name: "padding to fill the buffer", N: i})
		}
		order.Close()
		if err := f.Close(); !errors.Is(err, errFull) || !dst.closed {
			t.Fatalf("n=%d: Close returned %v, destination closed %v; want %v, true", n, err, dst.closed, errFull)
		}
	}
}
