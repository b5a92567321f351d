package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request or
// one repetition share Trace; Parent is 0 for a root. Times are nanoseconds
// since the recorder was made.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Trace    string `json:"trace"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the traced pass ends. The benchmark
// records them from its own files, around its calls into each layer.
type recorder struct {
	workload string
	epoch    time.Time

	mu     sync.Mutex
	spans  []span
	traces int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// newTrace returns an identifier no other trace of the run has.
func (r *recorder) newTrace() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return fmt.Sprintf("%s/%d", r.workload, r.traces)
}

// add records a finished interval and returns its id.
func (r *recorder) add(parent int64, trace, name string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name, Workload: r.workload,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose id children can name before it ends; the
// returned function closes it.
func (r *recorder) begin(parent int64, trace, name string) (int64, func()) {
	start := time.Now()
	id := r.add(parent, trace, name, start, start)
	return id, func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Children that overlap each other are
// counted once; a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	children := map[int64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// shares sums, over the traces whose root span is named root, the self time
// of the spans of each name and divides it by the summed root durations.
// coverage is the same ratio for all spans of those traces together: 1 when
// the spans nest and run one at a time, more when children overlap.
func shares(spans []span, root string) (byName map[string]float64, coverage float64) {
	rooted := map[string]bool{}
	var total int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			rooted[s.Trace] = true
			total += s.End - s.Start
		}
	}
	byName = map[string]float64{}
	if total == 0 {
		return byName, 0
	}
	self := selfTimes(spans)
	var all int64
	for _, s := range spans {
		if rooted[s.Trace] {
			byName[s.Name] += float64(self[s.ID]) / float64(total)
			all += self[s.ID]
		}
	}
	return byName, float64(all) / float64(total)
}
