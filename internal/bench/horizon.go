package bench

import (
	"fmt"
	"math"
	"slices"

	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// horizon is what one profiled golden run tells a runner about every tick:
// the frame stack a victim is picked from there, and how many Loads each
// armable cell still has coming. A cell armed with a delay of at least that
// many loads never fires and its run is the golden run over again — the
// dead-variable masking CAROL-FI observes — so such a trial is decided from
// the table instead of being executed.
type horizon struct {
	stacks  [][]*state.Frame // the distinct frame stacks, their sites shadows
	stackAt []int32          // tick → index into stacks
	cells   int              // armable cells profiled: the width of a row of left
	left    []int32          // left[tick*cells+col]: loads the cell has left after the tick
}

// shadow describes one site of the profiled run: what state.PickIn weighs
// and what a record names. It has no storage behind it; the site to corrupt
// is always the live registry's (Runner.Site), because kernels may re-wrap
// their buffers in new Site objects every phase.
type shadow struct {
	name   string
	region state.Region
	kind   state.Kind
	bytes  int
	col    int32 // column in horizon.left; -1 for sites that cannot be armed
}

func (s *shadow) Name() string         { return s.name }
func (s *shadow) Region() state.Region { return s.region }
func (s *shadow) Kind() state.Kind     { return s.kind }
func (s *shadow) SizeBytes() int       { return s.bytes }
func (s *shadow) Corrupt(*stats.RNG, fault.Model) state.Report {
	panic("bench: a horizon site only describes; corrupt the live registry's")
}

// Victim is a planned injection target: the site picked from the frame
// stack that is live at a tick, named by its position in that stack.
type Victim struct {
	Frame, Index int
	Name         string
	Region       state.Region
	Kind         state.Kind
	// Armable reports a scalar cell, and LoadsLeft is then how many Loads
	// the golden run performs on it after the tick: armed there with a
	// delay below LoadsLeft it fires, at or above it never does.
	Armable   bool
	LoadsLeft int
}

// Victim picks the site an injection at tick corrupts, drawing from rng
// exactly as Registry.Pick would inside the run, and returns false when no
// site is live there. The first call on any runner of a key profiles it (one
// more golden run) for all of them; keys that never inject never pay for
// that.
func (r *Runner) Victim(tick int, rng *stats.RNG, policy state.Policy) (Victim, bool) {
	h := r.horizon()
	f, s := state.PickIn(h.stacks[h.stackAt[tick]], rng, policy)
	if f < 0 {
		return Victim{}, false
	}
	return h.victim(tick, f, s), true
}

// LiveAt returns every site live at tick, in stack order, as the victim a
// pick of it would be: the liveness table an analytical model of the
// campaign starts from.
func (r *Runner) LiveAt(tick int) []Victim {
	h := r.horizon()
	var out []Victim
	for f, frame := range h.stacks[h.stackAt[tick]] {
		for s := range frame.Sites() {
			out = append(out, h.victim(tick, f, s))
		}
	}
	return out
}

func (r *Runner) horizon() *horizon {
	r.sh.hzOnce.Do(func() { r.sh.hz = r.profile() })
	return r.sh.hz
}

func (h *horizon) victim(tick, f, s int) Victim {
	sh := h.stacks[h.stackAt[tick]][f].Sites()[s].(*shadow)
	v := Victim{Frame: f, Index: s, Name: sh.name, Region: sh.region, Kind: sh.kind}
	if sh.col >= 0 {
		v.Armable, v.LoadsLeft = true, int(h.left[tick*h.cells+int(sh.col)])
	}
	return v
}

// Site resolves a victim in the live registry. It is for the inject
// callback of the run injected at the victim's tick, where the live stack
// is the one the victim was picked from.
func (r *Runner) Site(v Victim) state.Site {
	s := r.B.Registry().Frames()[v.Frame].Sites()[v.Index]
	if s.Name() != v.Name {
		panic(fmt.Sprintf("bench: %s frame %d site %d is %q, the horizon planned %q", r.B.Name(), v.Frame, v.Index, s.Name(), v.Name))
	}
	return s
}

// neverFires is an arming delay no run's load count reaches. It also bounds
// what the int32 table can hold: a cell loaded more often than this fires in
// the profiling run, which then fails its checks.
const neverFires = math.MaxInt32

// profile performs the golden run once more with every armable cell armed,
// from the tick it is first live at, by a corruption that never fires: the
// countdowns then count the cell's loads, performed or debited. It panics
// unless that run is the golden run to the tick, the unit of work and the
// output value, and leaves nothing armed.
func (r *Runner) profile() *horizon {
	h := &horizon{stackAt: make([]int32, 0, r.TotalTicks)}
	var (
		cells   []state.Armable                    // by column
		used    = make([][]int32, 0, r.TotalTicks) // per tick, per column known by then: loads since arming
		shadows []*state.Frame                     // the distinct frames
		stack   []*state.Frame
	)
	loads := func() []int32 {
		row := make([]int32, len(cells))
		for c, a := range cells {
			n := neverFires + 1 - a.LoadsToFire()
			if n > math.MaxInt32 {
				panic(fmt.Sprintf("bench: %s loads %s more often than its horizon can count", r.B.Name(), a.Name()))
			}
			row[c] = int32(n)
		}
		return row
	}
	// describes reports whether shadow frame sf is what selection and
	// records see of live frame f.
	describes := func(sf, f *state.Frame) bool {
		if sf.Name != f.Name || len(sf.Sites()) != len(f.Sites()) {
			return false
		}
		for i, s := range f.Sites() {
			sh := sf.Sites()[i].(*shadow)
			a, armable := s.(state.Armable)
			if sh.name != s.Name() || sh.region != s.Region() || sh.kind != s.Kind() || sh.bytes != s.SizeBytes() ||
				armable != (sh.col >= 0) || armable && cells[sh.col] != a {
				return false
			}
		}
		return true
	}
	ctx := newCtx(-1, nil, 0)
	ctx.probe = func(int) {
		stack = stack[:0]
		for _, f := range r.B.Registry().Frames() {
			for _, s := range f.Sites() {
				// Every cell seen so far is armed, so one that is not is new.
				if a, ok := s.(state.Armable); ok && !a.Armed() {
					cells = append(cells, a)
					a.Arm(neverFires, fault.Single, nil)
				}
			}
			i := slices.IndexFunc(shadows, func(sf *state.Frame) bool { return describes(sf, f) })
			if i < 0 {
				i = len(shadows)
				sf := &state.Frame{Name: f.Name}
				for _, s := range f.Sites() {
					col := -1
					if a, ok := s.(state.Armable); ok {
						col = slices.Index(cells, a)
					}
					sf.Register(&shadow{s.Name(), s.Region(), s.Kind(), s.SizeBytes(), int32(col)})
				}
				shadows = append(shadows, sf)
			}
			stack = append(stack, shadows[i])
		}
		at := slices.IndexFunc(h.stacks, func(known []*state.Frame) bool { return slices.Equal(known, stack) })
		if at < 0 {
			at = len(h.stacks)
			h.stacks = append(h.stacks, slices.Clone(stack))
		}
		h.stackAt = append(h.stackAt, int32(at))
		used = append(used, loads())
	}
	res := r.run(ctx, true, point{})
	if res.Status != Completed || res.Ticks != r.TotalTicks || res.Work != r.GoldenWork || !CompareExact(r.Golden, res.Output) {
		panic(fmt.Sprintf("bench: the profiling run of %s is not its golden run: %s %s, %d ticks, work %d",
			r.B.Name(), res.Status, res.PanicMsg, res.Ticks, res.Work))
	}
	end := loads()
	h.cells = len(cells)
	h.left = make([]int32, len(used)*h.cells)
	for t, row := range used {
		for c, n := range row {
			h.left[t*h.cells+c] = end[c] - n
		}
	}
	r.B.Reset()
	return h
}
