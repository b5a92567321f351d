package distrib

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
)

// Event is the structured progress record a worker emits on stderr — one
// JSON object per line — when driven with -progress-jsonl. cmd/phi-bench
// produces it; the supervisor's progress mux consumes it. Any stderr line
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

// muxShard is one worker's latest progress sample: how many units it has
// completed out of how many it intends to run. A plain worker's total is
// the cell count; a checkpointing worker chunks its run and reports
// chunks×cells; a relaunched worker reports only the remainder it runs.
type muxShard struct {
	done, total int
}

// progressMux folds per-shard progress events into fan-out-wide samples.
// One mux serves the whole fan-out; the per-attempt stderr demux feeds it.
// Samples are emitted with the lock held, so sink calls are serialised —
// the same contract fleet.Sweep.Progress gives. Mux keys may be sparse: a
// prefix-cached fan-out launches workers 1..S of an (S+1)-way plan (shard 0
// being the cached partial that never runs), and the children of a
// re-split straggler report under keys >= the shard count.
type progressMux struct {
	mu     sync.Mutex
	shards map[int]muxShard
	expect int
	cells  int
	sink   func(Progress)

	// observe, when non-nil, taps every report — the straggler watchdog's
	// feed. Set before workers launch; called outside the mux lock.
	observe func(shard, done, total int)
}

func newProgressMux(workers, cellsPerShard int, sink func(Progress)) *progressMux {
	return &progressMux{shards: map[int]muxShard{}, expect: workers, cells: cellsPerShard, sink: sink}
}

// report records a worker's latest (done, total) and emits an aggregate
// sample. total <= 0 defaults to the plain one-chunk cell count — the
// shape of events from workers predating the checkpoint protocol. The
// aggregate total counts each reporting worker's own claim plus the
// default for expected workers yet to report, so it converges on the true
// fan-out size as chunked or resumed workers announce theirs.
func (m *progressMux) report(shard, done, total int) {
	if total <= 0 {
		total = m.cells
	}
	m.mu.Lock()
	m.shards[shard] = muxShard{done: done, total: total}
	m.emitLocked(shard)
	m.mu.Unlock()
	if m.observe != nil {
		m.observe(shard, done, total)
	}
}

// close freezes a stolen shard's tally at what it reported done: its
// worker will report nothing more, and the re-split children's own reports
// carry the remainder, so a job finished after a steal reads done = total.
func (m *progressMux) close(shard int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shards[shard]
	sh.total = sh.done
	m.shards[shard] = sh
	m.emitLocked(shard)
}

// emitLocked sends the aggregate sample after shard's tally changed.
func (m *progressMux) emitLocked(shard int) {
	if m.sink == nil {
		return
	}
	sumDone, sumTotal := 0, 0
	for _, sh := range m.shards {
		sumDone += sh.done
		sumTotal += sh.total
	}
	if missing := m.expect - len(m.shards); missing > 0 {
		sumTotal += missing * m.cells
	}
	m.sink(Progress{Shard: shard, Done: sumDone, Total: sumTotal})
}

// reset zeroes a shard's tally when its worker is relaunched, so aggregate
// samples never double-count a retried shard's first attempt.
func (m *progressMux) reset(shard int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shards[shard]
	sh.done = 0
	if sh.total == 0 {
		sh.total = m.cells
	}
	m.shards[shard] = sh
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
