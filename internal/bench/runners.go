package bench

import "sync"

// Runners is the free list of one sweep run's golden-run runners, keyed by
// (benchmark, benchSeed). A key's first runner costs a benchmark
// construction and the key's one kernel run, which finds everything its
// runners only read: the golden run, the resume points and the horizon.
// Every later runner of the key costs a construction and adopts them. A
// runner is good for any number of cells: every run starts with Reset and
// an aborted run pops its phase frames, which is what already makes the N
// trials of one cell independent, so the first trial of the next cell finds
// the runner as a fresh one would be. A run that owns a list therefore
// performs one kernel run per key, not one per cell or pool worker.
//
// Retention follows demand, not a size: the owner declares with Expect how
// many times each key will still be asked for, Get counts that down, and
// the key's idle runners are dropped when it reaches zero. A runner holds
// its benchmark's whole working set (146 KB for HotSpot, 580 KB for
// DGEMM), and a grid enumerated benchmark by benchmark is done with a key
// long before the run ends; keeping all of them until then read +27-31 %
// peak RSS on a 24-cell sweep.
//
// A nil *Runners is the list of a standalone campaign: Get builds a fresh
// runner and Put drops it. A key nobody declared behaves the same way.
type Runners struct {
	mu    sync.Mutex
	slots map[runnerKey]*runnerSlot
}

type runnerKey struct {
	name string
	seed uint64
}

// runnerSlot exists only while its key has demand left.
type runnerSlot struct {
	demand int
	idle   []*Runner
	sh     *shared
}

// NewRunners returns an empty list.
func NewRunners() *Runners {
	return &Runners{slots: map[runnerKey]*runnerSlot{}}
}

// Expect declares one more Get of (benchmark, benchSeed).
func (rs *Runners) Expect(benchmark string, benchSeed uint64) {
	k := runnerKey{benchmark, benchSeed}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	s := rs.slots[k]
	if s == nil {
		s = &runnerSlot{sh: &shared{}}
		rs.slots[k] = s
	}
	s.demand++
}

// Get hands out an idle runner of the key, or builds one when none is idle.
// The caller has the runner to itself until it Puts it back.
func (rs *Runners) Get(benchmark string, benchSeed uint64) (*Runner, error) {
	k := runnerKey{benchmark, benchSeed}
	sh := &shared{} // a key nobody declared: the runner's alone
	if rs != nil {
		rs.mu.Lock()
		var r *Runner
		if s := rs.slots[k]; s != nil {
			sh = s.sh
			if n := len(s.idle); n > 0 {
				r, s.idle = s.idle[n-1], s.idle[:n-1]
			}
			if s.demand--; s.demand == 0 {
				// Nobody will ask again: the idle runners go now, and the
				// ones still out are dropped as they come back.
				delete(rs.slots, k)
			}
		}
		rs.mu.Unlock()
		if r != nil {
			return r, nil
		}
	}
	b, err := New(benchmark, benchSeed)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(b, sh)
	if err != nil {
		return nil, err
	}
	r.key = k
	return r, nil
}

// Put hands a runner back. It is kept while its key has demand left and
// dropped otherwise; r must be quiescent (between runs).
func (rs *Runners) Put(r *Runner) {
	if rs == nil || r == nil {
		return
	}
	rs.mu.Lock()
	if s := rs.slots[r.key]; s != nil {
		s.idle = append(s.idle, r)
	}
	rs.mu.Unlock()
}

// Close ends the list's run: unserved demand is forgotten and every idle
// runner dropped, so a run that stops early (cancellation, a failed cell)
// leaves nothing behind. Runners still out are dropped when Put.
func (rs *Runners) Close() {
	rs.mu.Lock()
	clear(rs.slots)
	rs.mu.Unlock()
}

// Idle reports how many runners the list is holding.
func (rs *Runners) Idle() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, s := range rs.slots {
		n += len(s.idle)
	}
	return n
}

// Loan is one campaign's borrowing from a list: its workers Get their
// runners through it, and Return hands all of them back on whatever path
// the campaign leaves by.
type Loan struct {
	rs        *Runners
	benchmark string
	benchSeed uint64

	mu  sync.Mutex
	out []*Runner
}

// Loan opens a campaign's borrowing of (benchmark, benchSeed). It works on
// a nil list.
func (rs *Runners) Loan(benchmark string, benchSeed uint64) *Loan {
	return &Loan{rs: rs, benchmark: benchmark, benchSeed: benchSeed}
}

// Get borrows one runner; it is safe for concurrent use by the campaign's
// workers.
func (l *Loan) Get() (*Runner, error) {
	r, err := l.rs.Get(l.benchmark, l.benchSeed)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.out = append(l.out, r)
	l.mu.Unlock()
	return r, nil
}

// Return puts every borrowed runner back. The campaign's workers must have
// stopped.
func (l *Loan) Return() {
	for _, r := range l.out {
		l.rs.Put(r)
	}
	l.out = nil
}
