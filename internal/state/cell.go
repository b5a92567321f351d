package state

import (
	"phirel/internal/fault"
	"phirel/internal/stats"
)

// Elem is the element type of a cell or buffer: the four machine
// representations a Kind names. The types are exact (no ~) because corrupt
// and kindOf map each one to its fault call and Kind by a type switch.
type Elem interface {
	int | int32 | float32 | float64
}

// kindOf returns the Kind of T. Switching on a typed nil pointer boxes
// nothing.
func kindOf[T Elem]() Kind {
	switch any((*T)(nil)).(type) {
	case *float64:
		return KindF64
	case *float32:
		return KindF32
	case *int:
		return KindI64
	default:
		return KindI32
	}
}

// corrupt applies m to *p through the fault call for T's bit width: int
// corrupts all 64 bits of its two's-complement pattern, floats their
// IEEE-754 bits.
func corrupt[T Elem](r *stats.RNG, m fault.Model, p *T) fault.Corruption {
	var c fault.Corruption
	switch p := any(p).(type) {
	case *float64:
		*p, c = fault.CorruptFloat64(r, m, *p)
	case *float32:
		*p, c = fault.CorruptFloat32(r, m, *p)
	case *int:
		var v int64
		v, c = fault.CorruptInt64(r, m, int64(*p))
		*p = int(v)
	case *int32:
		*p, c = fault.CorruptInt32(r, m, *p)
	}
	return c
}

// Deferred is the result slot of an armed (deferred) corruption. CAROL-FI
// interrupts a program at an arbitrary instruction, where loop-control
// variables are live mid-iteration; the quiescent-tick harness reproduces
// that by *arming* a scalar cell at the tick and firing the corruption after
// a sampled number of subsequent Loads, inside whichever lane performs that
// load. A run's lanes execute in order on the goroutine that called Run, so
// Fired and Report are written once on that goroutine and the orchestrator
// reads them after Run returns.
type Deferred struct {
	Fired  bool
	Report Report
}

// deferred is the internal pending-corruption record attached to a cell.
type deferred struct {
	count int64 // loads remaining until fire (fires at exactly 0)
	model fault.Model
	rng   *stats.RNG
	out   *Deferred
}

// Armable is implemented by scalar cells that support deferred corruption.
type Armable interface {
	Site
	// Arm schedules a corruption to fire on the (delay+1)-th subsequent
	// Load. It returns the slot that will hold the report. Arming replaces
	// any previous pending corruption.
	Arm(delay int, m fault.Model, r *stats.RNG) *Deferred
	// Disarm cancels any pending corruption (called by Reset).
	Disarm()
	// Armed reports whether a deferred corruption is pending. An injected
	// trial arms one cell, at its tick, and only when the cell has more
	// loads left than the delay (the runner's horizon decides the others
	// without running them), so in a campaign a cell is armed only from
	// its tick to the load that fires it. Armed-to-the-end runs are left
	// to the tests that force them and the ledger's bench.<b>.armed_ms.
	Armed() bool
	// LoadsToFire returns how many more Loads the pending corruption needs,
	// firing on the last of them, or 0 when nothing is pending. Skipped
	// loads accepted by DebitLoads count as performed, so the difference of
	// two readings is the number of loads the kernel made in between.
	LoadsToFire() int64
}

// Cell is a corruptible scalar variable: a loop bound, index or counter
// (Cell[int]) or a simulation constant (Cell[float64], Cell[float32]).
// Benchmarks must go through Load/Store for corruption to be architecturally
// meaningful: a flipped bound really changes how far a loop runs, which is
// how control-variable faults become hangs, overwrites and out-of-range
// panics — the DUE mechanisms the paper attributes to control variables.
//
// A cell belongs to one benchmark instance, and a run of it never leaves the
// goroutine that called Runner.run, so a cell is never touched by two
// goroutines at once and its fields are plain.
type Cell[T Elem] struct {
	name   string
	region Region
	v      T
	pend   *deferred
}

// NewCell creates a named cell with an initial value.
func NewCell[T Elem](name string, region Region, v T) *Cell[T] {
	return &Cell[T]{name: name, region: region, v: v}
}

// Load returns the current value, firing a pending corruption if its delay
// has elapsed.
func (c *Cell[T]) Load() T {
	if c.pend != nil {
		c.fire()
	}
	return c.v
}

// Store replaces the value.
func (c *Cell[T]) Store(v T) { c.v = v }

// Add increments the value and returns the result.
func (c *Cell[T]) Add(d T) T {
	c.v += d
	return c.v
}

// Name implements Site.
func (c *Cell[T]) Name() string { return c.name }

// Region implements Site.
func (c *Cell[T]) Region() Region { return c.region }

// Kind implements Site.
func (c *Cell[T]) Kind() Kind { return kindOf[T]() }

// SizeBytes implements Site.
func (c *Cell[T]) SizeBytes() int { return c.Kind().Bytes() }

// Corrupt implements Site (immediate, quiescent corruption).
func (c *Cell[T]) Corrupt(r *stats.RNG, m fault.Model) Report {
	return Report{Site: c.name, Region: c.region, Kind: c.Kind(), Elem: -1, Corruption: corrupt(r, m, &c.v)}
}

// Arm implements Armable.
func (c *Cell[T]) Arm(delay int, m fault.Model, r *stats.RNG) *Deferred {
	out := &Deferred{}
	c.pend = &deferred{count: int64(delay) + 1, model: m, rng: r, out: out}
	return out
}

// Disarm implements Armable.
func (c *Cell[T]) Disarm() { c.pend = nil }

// Armed implements Armable.
func (c *Cell[T]) Armed() bool { return c.pend != nil }

// LoadsToFire implements Armable.
func (c *Cell[T]) LoadsToFire() int64 {
	if c.pend != nil {
		return c.pend.count
	}
	return 0
}

func (c *Cell[T]) fire() {
	d := c.pend
	if d.count--; d.count != 0 {
		return
	}
	c.pend = nil
	d.out.Report = c.Corrupt(d.rng, d.model)
	d.out.Fired = true
}

// DebitLoads accounts for Loads the caller is about to skip: n[i] is how many
// times the code being skipped would Load cells[i]. A pending corruption fires
// on exactly the load that takes its countdown to zero, so when every armed
// cell has more than n[i] loads left none of them would fire: the counts are
// subtracted and DebitLoads returns true, leaving each countdown where the
// skipped loads would have left it. Otherwise nothing changes and it returns
// false, and the caller must perform the loads.
func DebitLoads(cells []*Cell[int], n []int64) bool {
	for i, c := range cells {
		if d := c.pend; d != nil && d.count <= n[i] {
			return false
		}
	}
	for i, c := range cells {
		if d := c.pend; d != nil {
			d.count -= n[i]
		}
	}
	return true
}
