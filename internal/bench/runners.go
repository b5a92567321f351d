package bench

import (
	"slices"
	"sync"
)

// Runners is the free list of one sweep run's golden-run runners, keyed by
// (benchmark, benchSeed). A key's runners share one key state: the golden
// run, the resume points and the horizon, all found by the key's one kernel
// run. That state is resident: the process keeps it for the last
// residentKeys keys any list declared, least recently used out first, so
// the key's one kernel run happens once per process, and every later list
// of the key — the next run, shard, checkpoint chunk or service request —
// adopts it without running. A key's first runner in a list costs a
// benchmark construction, plus the kernel run when the key is not
// resident; every later one costs a construction. A runner is good for any
// number of cells: every run starts with Reset and an aborted run pops its
// phase frames, which is what already makes the N trials of one cell
// independent, so the first trial of the next cell finds the runner as a
// fresh one would be.
//
// Retention of runners follows demand, not a size: the owner declares with
// Expect how many times each key will still be asked for, Get counts that
// down, and the key's idle runners are dropped when it reaches zero. A
// runner holds its benchmark's whole working set (146 KB for HotSpot,
// 580 KB for DGEMM), and a grid enumerated benchmark by benchmark is done
// with a key long before the run ends; keeping all of them until then read
// +27-31 % peak RSS on a 24-cell sweep.
//
// A nil *Runners is the list of a standalone campaign: Get builds a fresh
// runner, with a kernel run of its own, and Put drops it. A key nobody
// declared behaves the same way.
type Runners struct {
	mu    sync.Mutex
	slots map[runnerKey]*runnerSlot
	// reference: the list hands out reference runners (Runner.Reference).
	reference bool
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

// residentKeys bounds the resident key states: two bench seeds of the
// six-kernel suite. A key state is its golden output, snapshots and horizon
// (CLAMR's, the largest, ≈0.6 MB), not a benchmark instance.
const residentKeys = 12

// resident is the process's key states, least recently declared first. A
// key whose one kernel run failed is dropped from it (forget), so the next
// list to declare the key builds it again, and Register and Unregister drop
// a name's keys (forgetName), so a name never adopts another kernel's run.
var resident struct {
	mu   sync.Mutex
	keys []residentKey
}

type residentKey struct {
	k  runnerKey
	sh *shared
}

// residentShared returns k's key state, making it the most recently used,
// or a fresh one, which evicts the least recently used when the set is full.
func residentShared(k runnerKey) *shared {
	resident.mu.Lock()
	defer resident.mu.Unlock()
	e := residentKey{k, nil}
	if i := slices.IndexFunc(resident.keys, func(e residentKey) bool { return e.k == k }); i >= 0 {
		e.sh = resident.keys[i].sh
		resident.keys = slices.Delete(resident.keys, i, i+1)
	} else {
		e.sh = &shared{}
		if len(resident.keys) == residentKeys {
			resident.keys = slices.Delete(resident.keys, 0, 1)
		}
	}
	resident.keys = append(resident.keys, e)
	return e.sh
}

// forget drops k's key state if it is still sh.
func forget(k runnerKey, sh *shared) {
	resident.mu.Lock()
	resident.keys = slices.DeleteFunc(resident.keys, func(e residentKey) bool { return e.k == k && e.sh == sh })
	resident.mu.Unlock()
}

// forgetName drops every key state of the benchmark name.
func forgetName(name string) {
	resident.mu.Lock()
	resident.keys = slices.DeleteFunc(resident.keys, func(e residentKey) bool { return e.k.name == name })
	resident.mu.Unlock()
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
		s = &runnerSlot{sh: residentShared(k)}
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
		forget(k, sh) // a failed key state is not kept: the next list runs the key again
		return nil, err
	}
	r.key, r.reference = k, rs != nil && rs.reference
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
