package distrib

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestLineWriterSplitsAndFlushes(t *testing.T) {
	var lines []string
	w := &lineWriter{fn: func(b []byte) { lines = append(lines, string(b)) }}
	for _, chunk := range []string{"alpha\nbe", "ta\n", "gam", "ma"} {
		if n, err := w.Write([]byte(chunk)); n != len(chunk) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", chunk, n, err)
		}
	}
	if want := []string{"alpha", "beta"}; strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Fatalf("lines before flush: %v, want %v", lines, want)
	}
	w.Flush()
	if len(lines) != 3 || lines[2] != "gamma" {
		t.Fatalf("flush did not deliver the trailing line: %v", lines)
	}
	w.Flush() // idempotent on empty buffer
	if len(lines) != 3 {
		t.Fatalf("empty flush emitted a line: %v", lines)
	}
}

func TestParseEvent(t *testing.T) {
	ev, ok := parseEvent([]byte(`{"event":"sweep-progress","shard":2,"count":5,"done":3,"total":18}`))
	if !ok || ev.Shard != 2 || ev.Count != 5 || ev.Done != 3 || ev.Total != 18 {
		t.Fatalf("valid event parsed as %+v, %v", ev, ok)
	}
	for _, bad := range []string{
		"phi-bench: sweep 3/18 cells", // human progress line
		`{"event":"something-else","done":3}`,
		`{"spec": {`, // truncated JSON
		"",
	} {
		if _, ok := parseEvent([]byte(bad)); ok {
			t.Fatalf("parsed %q as a progress event", bad)
		}
	}
}

// primaries returns a worker table of the given cell count holding n
// primary rows, keys 0..n-1, as runJob lays a job's table out: every row
// is watched.
func primaries(n, cells int, sink func(Progress)) *workerTable {
	tab := newWorkerTable(cells, sink)
	for k := 0; k < n; k++ {
		tab.add(newShardRun(context.Background(), Task{}, k, nil), true)
	}
	return tab
}

func TestProgressMuxAggregatesAndResets(t *testing.T) {
	var samples []Progress
	tab := primaries(2, 3, func(p Progress) { samples = append(samples, p) })
	now := time.Unix(1_700_000_000, 0)
	tab.report(0, 1, 0, now)
	tab.report(1, 3, 0, now)
	tab.report(0, 3, 0, now)
	want := []Progress{
		{Shard: 0, Done: 1, Total: 6},
		{Shard: 1, Done: 4, Total: 6},
		{Shard: 0, Done: 6, Total: 6},
	}
	if fmt.Sprint(samples) != fmt.Sprint(want) {
		t.Fatalf("samples %v, want %v", samples, want)
	}
	// A relaunched shard starts over; the aggregate must drop its stale
	// tally rather than double-count.
	tab.reset(0)
	tab.report(0, 2, 0, now)
	last := samples[len(samples)-1]
	if last.Done != 5 || last.Total != 6 {
		t.Fatalf("post-reset sample %+v, want 5/6", last)
	}
	// A re-split child's row counts nothing until it reports; a stolen
	// shard's closed row keeps what it did.
	tab.add(newShardRun(context.Background(), Task{}, 2, nil), false)
	tab.close(0)
	if last := samples[len(samples)-1]; last.Done != 5 || last.Total != 5 {
		t.Fatalf("sample after a close %+v, want 5/5", last)
	}
	tab.report(2, 1, 4, now)
	if last := samples[len(samples)-1]; last.Shard != 2 || last.Done != 6 || last.Total != 9 {
		t.Fatalf("child's first sample %+v, want shard 2 at 6/9", last)
	}
}

func TestProgressMuxNilSink(t *testing.T) {
	tab := primaries(1, 3, nil)
	tab.report(0, 2, 0, time.Unix(1_700_000_000, 0)) // must not panic
	tab.reset(0)
	tab.close(0)
}

func TestTailBufferKeepsTail(t *testing.T) {
	tb := &tailBuffer{max: 16}
	tb.writeLine([]byte("first diagnostic line"))
	tb.writeLine([]byte("LAST"))
	s := tb.String()
	if !strings.HasPrefix(s, "…") {
		t.Fatalf("truncated tail not marked: %q", s)
	}
	if !strings.Contains(s, "LAST") {
		t.Fatalf("tail lost the newest line: %q", s)
	}
	if strings.Contains(s, "first") {
		t.Fatalf("tail kept bytes beyond its budget: %q", s)
	}
	small := &tailBuffer{max: 1 << 10}
	small.writeLine([]byte("only line"))
	if got := small.String(); got != "only line" {
		t.Fatalf("untruncated tail: %q", got)
	}
}

func TestBackoffDelayDoublesAndCaps(t *testing.T) {
	if d := backoffDelay(100*time.Millisecond, 1); d != 100*time.Millisecond {
		t.Fatalf("first retry delay %s", d)
	}
	if d := backoffDelay(100*time.Millisecond, 3); d != 400*time.Millisecond {
		t.Fatalf("third retry delay %s", d)
	}
	if d := backoffDelay(0, 1); d != defaultBackoff {
		t.Fatalf("zero base delay %s, want default %s", d, defaultBackoff)
	}
	if d := backoffDelay(time.Second, 1000); d != maxBackoff {
		t.Fatalf("deep retry delay %s, want cap %s", d, maxBackoff)
	}
}
