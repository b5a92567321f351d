package state

import (
	"math"
	"sync/atomic"

	"phirel/internal/fault"
	"phirel/internal/stats"
)

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
	count atomic.Int64 // loads remaining until fire (fires at exactly 0)
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

// armSlot is the pending-corruption slot every scalar cell embeds; it
// carries the part of Armable that does not depend on the value's type.
type armSlot struct {
	pend atomic.Pointer[deferred]
}

// Arm implements Armable.
func (s *armSlot) Arm(delay int, m fault.Model, r *stats.RNG) *Deferred {
	out := &Deferred{}
	d := &deferred{model: m, rng: r, out: out}
	d.count.Store(int64(delay) + 1)
	s.pend.Store(d)
	return out
}

// Disarm implements Armable.
func (s *armSlot) Disarm() { s.pend.Store(nil) }

// Armed implements Armable.
func (s *armSlot) Armed() bool { return s.pend.Load() != nil }

// LoadsToFire implements Armable.
func (s *armSlot) LoadsToFire() int64 {
	if d := s.pend.Load(); d != nil {
		return d.count.Load()
	}
	return 0
}

// refuseDebit is a test seam: when set, DebitLoads refuses whenever a cell is
// armed, so every armed lane takes its kernel's cell-driven loop.
var refuseDebit bool

// DebitLoads accounts for Loads the caller is about to skip: n[i] is how many
// times the code being skipped would Load cells[i]. A pending corruption fires
// on exactly the load that takes its countdown to zero, so when every armed
// cell has more than n[i] loads left none of them would fire: the counts are
// subtracted and DebitLoads returns true, leaving each countdown where the
// skipped loads would have left it. Otherwise nothing changes and it returns
// false, and the caller must perform the loads. The cells must be private to
// the calling lane.
func DebitLoads(cells []*Int, n []int64) bool {
	for i, c := range cells {
		if d := c.pend.Load(); d != nil && (refuseDebit || d.count.Load() <= n[i]) {
			return false
		}
	}
	for i, c := range cells {
		if d := c.pend.Load(); d != nil {
			d.count.Add(-n[i])
		}
	}
	return true
}

// Int is a corruptible scalar integer variable (loop bounds, indices,
// counters). Benchmarks must go through Load/Store for corruption to be
// architecturally meaningful: a flipped bound really changes how far a loop
// runs, which is how control-variable faults become hangs, overwrites and
// out-of-range panics — the DUE mechanisms the paper attributes to control
// variables. A run touches its cells from one goroutine; the atomics are
// left over from concurrent lanes (ROADMAP item 5).
type Int struct {
	name   string
	region Region
	bits   atomic.Int64
	armSlot
}

// NewInt creates a named integer cell with an initial value.
func NewInt(name string, region Region, v int) *Int {
	c := &Int{name: name, region: region}
	c.bits.Store(int64(v))
	return c
}

// Load returns the current value, firing a pending corruption if its delay
// has elapsed.
func (c *Int) Load() int {
	if d := c.pend.Load(); d != nil {
		c.fire(d)
	}
	return int(c.bits.Load())
}

// Store replaces the value.
func (c *Int) Store(v int) { c.bits.Store(int64(v)) }

// Add increments the value and returns the result.
func (c *Int) Add(d int) int { return int(c.bits.Add(int64(d))) }

// Name implements Site.
func (c *Int) Name() string { return c.name }

// Region implements Site.
func (c *Int) Region() Region { return c.region }

// Kind implements Site.
func (c *Int) Kind() Kind { return KindI64 }

// SizeBytes implements Site.
func (c *Int) SizeBytes() int { return 8 }

// Corrupt implements Site (immediate, quiescent corruption).
func (c *Int) Corrupt(r *stats.RNG, m fault.Model) Report {
	nv, cor := fault.CorruptInt64(r, m, c.bits.Load())
	c.bits.Store(nv)
	return Report{Site: c.name, Region: c.region, Kind: KindI64, Elem: -1, Corruption: cor}
}

func (c *Int) fire(d *deferred) {
	if d.count.Add(-1) != 0 {
		return
	}
	if !c.pend.CompareAndSwap(d, nil) {
		return
	}
	nv, cor := fault.CorruptInt64(d.rng, d.model, c.bits.Load())
	c.bits.Store(nv)
	d.out.Report = Report{Site: c.name, Region: c.region, Kind: KindI64, Elem: -1, Corruption: cor}
	d.out.Fired = true
}

// F64 is a corruptible scalar float64 variable (simulation constants,
// accumulators) with the same atomic/armable semantics as Int.
type F64 struct {
	name   string
	region Region
	bits   atomic.Uint64
	armSlot
}

// NewF64 creates a named float64 cell.
func NewF64(name string, region Region, v float64) *F64 {
	c := &F64{name: name, region: region}
	c.bits.Store(math.Float64bits(v))
	return c
}

// Load returns the current value, firing a pending corruption if due.
func (c *F64) Load() float64 {
	if d := c.pend.Load(); d != nil {
		c.fire(d)
	}
	return math.Float64frombits(c.bits.Load())
}

// Store replaces the value.
func (c *F64) Store(v float64) { c.bits.Store(math.Float64bits(v)) }

// Name implements Site.
func (c *F64) Name() string { return c.name }

// Region implements Site.
func (c *F64) Region() Region { return c.region }

// Kind implements Site.
func (c *F64) Kind() Kind { return KindF64 }

// SizeBytes implements Site.
func (c *F64) SizeBytes() int { return 8 }

// Corrupt implements Site.
func (c *F64) Corrupt(r *stats.RNG, m fault.Model) Report {
	nv, cor := fault.CorruptFloat64(r, m, math.Float64frombits(c.bits.Load()))
	c.bits.Store(math.Float64bits(nv))
	return Report{Site: c.name, Region: c.region, Kind: KindF64, Elem: -1, Corruption: cor}
}

func (c *F64) fire(d *deferred) {
	if d.count.Add(-1) != 0 {
		return
	}
	if !c.pend.CompareAndSwap(d, nil) {
		return
	}
	nv, cor := fault.CorruptFloat64(d.rng, d.model, math.Float64frombits(c.bits.Load()))
	c.bits.Store(math.Float64bits(nv))
	d.out.Report = Report{Site: c.name, Region: c.region, Kind: KindF64, Elem: -1, Corruption: cor}
	d.out.Fired = true
}

// F32 is a corruptible scalar float32 variable.
type F32 struct {
	name   string
	region Region
	bits   atomic.Uint32
	armSlot
}

// NewF32 creates a named float32 cell.
func NewF32(name string, region Region, v float32) *F32 {
	c := &F32{name: name, region: region}
	c.bits.Store(math.Float32bits(v))
	return c
}

// Load returns the current value, firing a pending corruption if due.
func (c *F32) Load() float32 {
	if d := c.pend.Load(); d != nil {
		c.fire(d)
	}
	return math.Float32frombits(c.bits.Load())
}

// Store replaces the value.
func (c *F32) Store(v float32) { c.bits.Store(math.Float32bits(v)) }

// Name implements Site.
func (c *F32) Name() string { return c.name }

// Region implements Site.
func (c *F32) Region() Region { return c.region }

// Kind implements Site.
func (c *F32) Kind() Kind { return KindF32 }

// SizeBytes implements Site.
func (c *F32) SizeBytes() int { return 4 }

// Corrupt implements Site.
func (c *F32) Corrupt(r *stats.RNG, m fault.Model) Report {
	nv, cor := fault.CorruptFloat32(r, m, math.Float32frombits(c.bits.Load()))
	c.bits.Store(math.Float32bits(nv))
	return Report{Site: c.name, Region: c.region, Kind: KindF32, Elem: -1, Corruption: cor}
}

func (c *F32) fire(d *deferred) {
	if d.count.Add(-1) != 0 {
		return
	}
	if !c.pend.CompareAndSwap(d, nil) {
		return
	}
	nv, cor := fault.CorruptFloat32(d.rng, d.model, math.Float32frombits(c.bits.Load()))
	c.bits.Store(math.Float32bits(nv))
	d.out.Report = Report{Site: c.name, Region: c.region, Kind: KindF32, Elem: -1, Corruption: cor}
	d.out.Fired = true
}
