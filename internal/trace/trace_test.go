package trace

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	X    float64 `json:"x"`
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []rec{{"a", 1, 0.5}, {"b", 2, -3}, {"c", 3, 0}}
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count %d", w.Count())
	}
	out, err := Read[rec](&buf)
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

func TestReadEmpty(t *testing.T) {
	out, err := Read[rec](strings.NewReader(""))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty read: %v %v", out, err)
	}
}

// sink is an ordered log's destination: a buffer that can be made to fail
// every write, and that records whether it was closed.
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

// logged closes the log and returns the N of every line it wrote.
func logged(t *testing.T, log *Ordered[rec], dst *sink) []int {
	t.Helper()
	if err := log.Close(); err != nil || !dst.closed {
		t.Fatalf("Close: %v, destination closed %v", err, dst.closed)
	}
	out, err := Read[rec](&dst.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	ns := make([]int, len(out))
	for i, r := range out {
		ns[i] = r.N
	}
	return ns
}

// TestOrderedConcurrentObserversWriteInSeqOrder: records pushed from
// concurrent goroutines come out in Seq order.
func TestOrderedConcurrentObserversWriteInSeqOrder(t *testing.T) {
	const n, workers = 400, 8
	var dst sink
	log := NewOrdered(&dst, func(r rec) int { return r.N })
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Strided like the engine's workers, but each runs backwards
			// through its share, so almost every record waits for others.
			for i := n - workers + w; i >= 0; i -= workers {
				log.Observe(rec{N: i})
			}
		}()
	}
	wg.Wait()
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	if got := logged(t, log, &dst); !slices.Equal(got, want) {
		t.Fatalf("log holds %v, want 0..%d in order", got, n-1)
	}
}

// TestOrderedGapFlushedSortedAtClose: a gap in the sequence (a cancelled
// trial) holds back only what follows it, and Close writes that sorted.
func TestOrderedGapFlushedSortedAtClose(t *testing.T) {
	var dst sink
	log := NewOrdered(&dst, func(r rec) int { return r.N })
	for _, i := range []int{1, 0, 6, 3, 5, 2} { // 4 never arrives
		log.Observe(rec{N: i})
	}
	if log.Count() != 4 {
		t.Fatalf("%d records written before Close, want 0-3", log.Count())
	}
	if got, want := logged(t, log, &dst), []int{0, 1, 2, 3, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("log holds %v, want %v", got, want)
	}
}

// TestOrderedWriteErrorReportedAtClose: once the destination fails, the
// log keeps accepting records without blocking and Close reports the
// first error, whether it surfaces when a buffer fills or only at the
// final flush (a short log on a full disk).
func TestOrderedWriteErrorReportedAtClose(t *testing.T) {
	for _, n := range []int{3, 2000} {
		dst := sink{full: true}
		log := NewOrdered(&dst, func(r rec) int { return r.N })
		for i := n - 1; i >= 0; i-- {
			log.Observe(rec{Name: "padding to fill the buffer", N: i})
		}
		if err := log.Close(); !errors.Is(err, errFull) || !dst.closed {
			t.Fatalf("n=%d: Close returned %v, destination closed %v; want %v, true", n, err, dst.closed, errFull)
		}
	}
}
