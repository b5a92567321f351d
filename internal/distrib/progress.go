package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is the structured progress record a worker emits on stderr — one
// JSON object per line — when driven with -progress-jsonl. cmd/phi-bench
// produces it; the job's worker table consumes it. Any stderr line
// that is not an Event is treated as worker diagnostics and kept in the
// shard's failure tail instead.
type Event struct {
	// Event discriminates progress records from other JSON a worker might
	// print; it is always EventName.
	Event string `json:"event"`
	// Shard and Count are the worker's 0-based shard index and total shard
	// count (0 and 1 for a monolithic run).
	Shard int `json:"shard"`
	Count int `json:"count"`
	// Done and Total count grid cells completed by this worker alone.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// EventName is Event's discriminator value.
const EventName = "sweep-progress"

// parseEvent reports whether line is a progress event.
func parseEvent(line []byte) (Event, bool) {
	if !bytes.HasPrefix(bytes.TrimSpace(line), []byte("{")) {
		return Event{}, false
	}
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil || ev.Event != EventName {
		return Event{}, false
	}
	return ev, true
}

// Progress is one aggregated sample across the whole fan-out.
type Progress struct {
	// Shard is the 0-based shard whose report produced this sample.
	Shard int
	// Done and Total count grid cells across every shard: each of the K
	// shards runs its slice of all Total/K cells, so Total is K times the
	// sweep's cell count.
	Done, Total int
}

// outcome is a worker's claim: running until its own goroutine claims it
// finished or the straggler watch claims it stolen.
type outcome int

const (
	running outcome = iota
	finished
	stolen
)

// worker is one row of a job's worker table.
type worker struct {
	// done and total are the worker's latest progress: a plain worker's
	// total is the cell count, a checkpointing one reports chunks×cells, a
	// relaunched one only the remainder it runs.
	done, total int
	watched     bool // a primary, which the straggler watch covers
	claim       outcome
	cancel      context.CancelFunc // the shard's; a successful steal calls it
	// The rate window opens at the first report (since, fraction first)
	// and reopens when a report's fraction regresses below last's.
	since       time.Time
	first, last float64
}

// workerTable is one job's record of its workers, keyed by progress key: a
// primary's shard index, or >= the shard count for the children of a
// re-split straggler. Keys may be sparse: a prefix-cached fan-out launches
// workers 1..S of an (S+1)-way plan. The stderr demux reports into it, the
// supervisor resets and closes rows, the straggler watch reads it, and
// outcomes are claimed on it, all under one lock. Every report emits a
// fan-out-wide sample with the lock held, so sink calls are serialised —
// the same contract fleet.Sweep.Progress gives.
type workerTable struct {
	mu    sync.Mutex
	rows  map[int]*worker
	cells int
	sink  func(Progress)
}

func newWorkerTable(cellsPerShard int, sink func(Progress)) *workerTable {
	return &workerTable{rows: map[int]*worker{}, cells: cellsPerShard, sink: sink}
}

// add makes sr's row at launch: a primary is watched and counts the
// sweep's cells until it first reports, a re-split child counts nothing.
func (t *workerTable) add(sr *shardRun, primary bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := &worker{watched: primary, cancel: sr.cancel}
	if primary {
		w.total = t.cells
	}
	t.rows[sr.key] = w
}

// report records a worker's latest (done, total), taken at now, and emits
// an aggregate sample. total <= 0 defaults to the one-chunk cell count. A
// fraction that regresses marks a relaunched worker: its rate window
// restarts, so a resumed attempt is not punished for the crash.
func (t *workerTable) report(key, done, total int, now time.Time) {
	if total <= 0 {
		total = t.cells
	}
	frac := float64(done) / float64(total)
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.rows[key]
	w.done, w.total = done, total
	if w.since.IsZero() || frac < w.last {
		w.since, w.first = now, frac
	}
	w.last = frac
	t.emitLocked(key)
}

// close freezes a stolen shard's tally at what it reported done: the
// re-split children's reports carry the rest, so a job finished after a
// steal reads done = total.
func (t *workerTable) close(key int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.rows[key]
	w.total = w.done
	t.emitLocked(key)
}

// reset zeroes a relaunched worker's done, so aggregate samples never
// double-count a retried shard's first attempt.
func (t *workerTable) reset(key int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows[key].done = 0
}

func (t *workerTable) emitLocked(key int) {
	if t.sink == nil {
		return
	}
	sumDone, sumTotal := 0, 0
	for _, w := range t.rows {
		sumDone += w.done
		sumTotal += w.total
	}
	t.sink(Progress{Shard: key, Done: sumDone, Total: sumTotal})
}

// claim moves a running row to c and reports whether it did. The first
// claim owns the shard's result and later ones are refused, so the shard's
// goroutine (finished) and the straggler watch (stolen) never both own it.
// A successful steal cancels the shard at its checkpoint boundary, and its
// own goroutine re-splits the remainder.
func (t *workerTable) claim(key int, c outcome) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.rows[key]
	if w.claim != running {
		return false
	}
	w.claim = c
	if c == stolen {
		w.cancel()
	}
	return true
}

// lagging returns the watched, unclaimed workers (ascending keys) whose
// rate, fraction gained per second since the window opened measured
// against now (so a stalled worker decays without a new sample), is below
// stealFactor × the median of those workers' rates. With fewer than two
// rates there is no fleet to lag, and a worker observed for less than
// minObserve is never flagged, so a hiccup right after launch cannot
// trigger a steal.
func (t *workerTable) lagging(now time.Time, minObserve time.Duration) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rates []float64
	eligible := map[int]float64{}
	for key, w := range t.rows {
		elapsed := now.Sub(w.since)
		if !w.watched || w.claim != running || w.since.IsZero() || elapsed <= 0 {
			continue
		}
		rate := (w.last - w.first) / elapsed.Seconds()
		rates = append(rates, rate)
		if elapsed >= minObserve {
			eligible[key] = rate
		}
	}
	if len(rates) < 2 {
		return nil
	}
	sort.Float64s(rates)
	median := rates[len(rates)/2]
	if median <= 0 {
		return nil
	}
	var out []int
	for key, rate := range eligible {
		if rate < stealFactor*median {
			out = append(out, key)
		}
	}
	sort.Ints(out)
	return out
}

// lineWriter buffers writes and hands complete lines to fn — the io.Writer
// a launcher streams worker stderr into. It never returns an error: worker
// output must not be able to fail the supervisor's copy loop.
type lineWriter struct {
	fn  func([]byte)
	buf []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.fn(w.buf[:i])
		w.buf = append(w.buf[:0], w.buf[i+1:]...)
	}
}

// Flush delivers a trailing unterminated line — what a worker that died
// mid-write leaves behind.
func (w *lineWriter) Flush() {
	if len(w.buf) > 0 {
		w.fn(w.buf)
		w.buf = nil
	}
}

// tailBuffer keeps the last max bytes of a shard's diagnostic stderr —
// what a permanent failure reports — without ever growing unbounded over
// retries or chatty workers.
type tailBuffer struct {
	mu        sync.Mutex
	max       int
	buf       []byte
	truncated bool
}

func (t *tailBuffer) writeLine(line []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, line...)
	t.buf = append(t.buf, '\n')
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
		t.truncated = true
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := strings.TrimRight(string(t.buf), "\n")
	if t.truncated {
		s = "… " + s
	}
	return s
}
