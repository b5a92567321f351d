package bench

import (
	"fmt"
	"sort"
	"sync"
)

// Snapshot is what a kernel keeps of one resume point: the part of its
// mutable state there that is neither a pristine input (Reset restores
// those) nor a prefix of the golden output (the runner holds that). The
// three slices are all a kernel has to choose from, so what a point costs
// is read off the snapshot, not asked of the kernel.
type Snapshot struct {
	F32 []float32
	F64 []float64
	Int []int32
}

// Resumable is implemented by kernels whose fault-free run can be entered at
// the top of an outer iteration instead of at Reset. CAROL-FI interrupts a
// running program; everything before the interrupt is the golden run, and a
// kernel that can put itself where the golden run was at a tick spares the
// trial that prefix. A benchmark without it runs every trial from Reset.
type Resumable interface {
	// SavePoint is called at every tick but the first of a golden run from
	// Reset, where an injection at that tick would fire. It reports whether
	// the run can be resumed at the tick — the tick must be the first of an
	// outer iteration, with only the global frame live at the iteration's
	// top — and returns what Resume needs there; nil when the pristine
	// inputs and the golden output suffice. Nothing writes a snapshot once
	// it is returned.
	SavePoint(tick int) (*Snapshot, bool)
	// Resume is called on the kernel as Reset leaves it. It puts back the
	// state the golden run had at the top of the iteration that begins with
	// tick — every registered site to the byte, stale cursors and scratch
	// included — and runs from there to the end. ctx already reads the
	// golden run's ticks and work at that point; golden is the runner's
	// reference output.
	Resume(ctx *Ctx, tick int, s *Snapshot, golden Output)
}

// Convergent is implemented by resumable kernels that can tell when an
// injected run has rejoined the golden run. A fault CAROL-FI sees masked
// often stops mattering long before the run ends; from a resume point where
// the run reads what the golden run read there, the rest is the golden run.
type Convergent interface {
	// Converged is called at most once per run, at a resume point's tick of
	// a run whose fault has fired, with nothing live armed and the tick and
	// work counters reading the golden run's at that point; s and golden
	// are what Resume would get there. It reports whether everything the
	// rest of the run reads before writing it — and every part of the
	// output the rest never writes — equals the golden run's at the point,
	// and changes nothing.
	Converged(tick int, s *Snapshot, golden Output) bool
}

// point is one place a run can start: the golden run's counters on reaching
// tick, and the kernel's snapshot. The zero point is Reset.
type point struct {
	tick int
	work int64
	snap *Snapshot
}

// resumeSet is the resume points of one (benchmark, seed), captured by one
// runner's golden run and read by every runner of the key. ticks, work and
// golden are what that run ended with: a runner adopting the set must have
// ended its own golden run with the same.
type resumeSet struct {
	points []point // by tick; points[0] is Reset
	ticks  int
	work   int64
	golden Output
}

// forceReset and forceSuffix are the differential tests' seams: every run
// starts at Reset, and every run executes its suffix to the end.
var forceReset, forceSuffix bool

// at returns the greatest point at or before tick. A tick the golden run
// never reaches injects nothing, and its run is a whole one.
func (s *resumeSet) at(tick int) point {
	if tick < 0 || tick >= s.ticks || forceReset {
		return s.points[0]
	}
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].tick > tick })
	return s.points[i-1]
}

// shared is what the runners of one key have in common: the resume points
// and the horizon. Both are built once, by whichever runner gets there
// first, and only read afterwards; Runner.Site resolves a horizon's victims
// in the runner's own registry, and Resume copies out of the snapshots. The
// Runners list keeps one per slot; a runner built outside a list has its
// own.
type shared struct {
	mu     sync.Mutex
	resume *resumeSet

	hzOnce sync.Once
	hz     *horizon
}

func (sh *shared) hasResumeSet() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.resume != nil
}

// adoptResumeSet makes mine the key's resume set if it has none yet, and
// otherwise holds mine's golden run to the one the key's set was saved in.
// Every runner of the key comes through here before it runs anything else,
// and the set never changes afterwards, so they read sh.resume unlocked.
func (sh *shared) adoptResumeSet(name string, mine *resumeSet) {
	sh.mu.Lock()
	if sh.resume == nil {
		sh.resume = mine
	}
	s := sh.resume
	sh.mu.Unlock()
	if s.ticks != mine.ticks || s.work != mine.work || !CompareExact(s.golden, mine.golden) {
		panic(fmt.Sprintf("bench: the golden run of %s (%d ticks, work %d) is not the one its resume points were saved in (%d ticks, work %d)",
			name, mine.ticks, mine.work, s.ticks, s.work))
	}
}
