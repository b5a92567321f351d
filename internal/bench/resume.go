package bench

import (
	"bytes"
	"sort"
	"sync"
	"unsafe"
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
// A fault in output the rest never writes again stays where it is: the run
// keeps that output and takes the rest from the golden run.
type Convergent interface {
	// Converged is called at the resume points' ticks of a run whose fault
	// has fired, with nothing live armed and the tick and work counters
	// reading the golden run's at that point, until it reports ok; s and
	// golden are what Resume would get there. It reports whether everything
	// the rest of the run reads before writing it equals the golden run's
	// at the point, and kept, the length of the output prefix the rest
	// never writes: the run's output is then the live output's first kept
	// values and the golden output's after them, so a kernel keeps none
	// unless its live output has the golden output's length. It changes
	// nothing.
	Converged(tick int, s *Snapshot, golden Output) (kept int, ok bool)
}

// SameBits reports whether a holds b's leading values bit for bit, NaN
// payloads and the sign of zero included: the compare a Converged check
// makes against Reset's values or a snapshot. It compares the two as bytes,
// which the runtime does many values at a time.
func SameBits[T float32 | float64](a, b []T) bool {
	if len(a) == 0 {
		return true
	}
	n := len(a) * int(unsafe.Sizeof(a[0]))
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), n), unsafe.Slice((*byte)(unsafe.Pointer(&b[:len(a)][0])), n))
}

// point is one place a run can start: the golden run's counters on reaching
// tick, and the kernel's snapshot. The zero point is Reset.
type point struct {
	tick int
	work int64
	snap *Snapshot
}

// shared is what the runners of one key have in common, all of it found by
// the key's one kernel run (Runner.build): the golden run's output, ticks
// and work, the resume points and the horizon — or the error the run ended
// in. The first runner of the key performs that run under once, and nothing
// changes afterwards, so every runner reads it unlocked; Runner.Site
// resolves the horizon's victims in the runner's own registry, and Resume
// copies out of the snapshots. The process keeps the last residentKeys
// keys' (see Runners) and a list's slot holds its key's; a runner built
// outside a list has its own.
type shared struct {
	once   sync.Once
	err    error
	golden Output
	ticks  int
	work   int64
	points []point // by tick; points[0] is Reset
	hz     *horizon
}

// start returns the point a run injected at tick starts at: the greatest
// point at or before tick. A tick the golden run never reaches injects
// nothing, and its run is a whole one, as every run of a reference runner
// is.
func (r *Runner) start(tick int) point {
	pts := r.sh.points
	if tick < 0 || tick >= r.sh.ticks || r.reference {
		return pts[0]
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].tick > tick })
	return pts[i-1]
}
