package bench

import (
	"fmt"
	"math"
	"slices"

	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// horizon is what the key's one kernel run tells its runners about every tick:
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
	Bytes        int // the site's footprint at the tick
	// Armable reports a scalar cell, and LoadsLeft is then how many Loads
	// the golden run performs on it after the tick: armed there with a
	// delay below LoadsLeft it fires, at or above it never does.
	Armable   bool
	LoadsLeft int
}

// Victim picks the site an injection at tick corrupts, drawing from rng
// exactly as state.PickIn over the live registry would inside the run, and
// returns false when no site is live there. It reads the horizon the key's
// one kernel run recorded, so plans are made outside a run.
func (r *Runner) Victim(tick int, rng *stats.RNG, policy state.Policy) (Victim, bool) {
	h := r.sh.hz
	f, s := state.PickIn(h.stacks[h.stackAt[tick]], rng, policy)
	if f < 0 {
		return Victim{}, false
	}
	return h.victim(tick, f, s), true
}

// LiveAt returns every site live at tick, in stack order (global frame
// first), as the victim a pick of it would be: the liveness table beam
// strikes are planned on, and the one an analytical model of either
// campaign starts from.
func (r *Runner) LiveAt(tick int) []Victim {
	h := r.sh.hz
	var out []Victim
	for f, frame := range h.stacks[h.stackAt[tick]] {
		for s := range frame.Sites() {
			out = append(out, h.victim(tick, f, s))
		}
	}
	return out
}

func (h *horizon) victim(tick, f, s int) Victim {
	sh := h.stacks[h.stackAt[tick]][f].Sites()[s].(*shadow)
	v := Victim{Frame: f, Index: s, Name: sh.name, Region: sh.region, Kind: sh.kind, Bytes: sh.bytes}
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
// the key's run, which then fails.
const neverFires = math.MaxInt32

// build performs the key's one kernel run and fills r.sh with what it finds.
// The run starts at Reset with every armable cell armed, from the tick it is
// first live at, by a corruption that never fires: the countdowns then count
// the cell's loads, performed or debited, and the run is the golden run —
// its output, ticks and work are the key's (TestRunnersOnePassIsGolden holds
// them to a run with nothing armed). A probe at every tick records the
// horizon and saves the kernel's resume points. The run ends with Reset, so
// nothing is left armed.
func (r *Runner) build() error {
	h := &horizon{}
	var (
		cells   []state.Armable // by column
		spent   []int64         // by column: loads SavePoint made, not the kernel
		used    [][]int32       // per tick, per column known by then: loads since arming
		shadows []*state.Frame  // the distinct frames
		stack   []*state.Frame
	)
	loads := func() []int32 {
		row := make([]int32, len(cells))
		for c, a := range cells {
			n := neverFires + 1 - a.LoadsToFire() - spent[c]
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
	k, resumable := r.B.(Resumable)
	r.sh.points = []point{{}}
	ctx := newCtx(-1, nil, 0)
	ctx.probe = func(tick int) {
		if resumable && tick > 0 { // Reset is the point at tick 0
			// The cursors SavePoint Loads count against their countdowns;
			// those loads are not the kernel's, so they are taken out.
			for c, a := range cells {
				spent[c] += a.LoadsToFire()
			}
			s, ok := k.SavePoint(tick)
			for c, a := range cells {
				spent[c] -= a.LoadsToFire()
			}
			if ok {
				r.sh.points = append(r.sh.points, point{tick, ctx.work, s})
			}
		}
		stack = stack[:0]
		for _, f := range r.B.Registry().Frames() {
			for _, s := range f.Sites() {
				// Every cell seen so far is armed, so one that is not is new.
				if a, ok := s.(state.Armable); ok && !a.Armed() {
					cells = append(cells, a)
					spent = append(spent, 0)
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
	defer r.B.Reset()
	res := r.run(ctx, false, point{})
	if res.Status != Completed {
		return fmt.Errorf("bench: golden run of %s did not complete: %s %s", r.B.Name(), res.Status, res.PanicMsg)
	}
	if len(res.Output.Vals) == 0 {
		return fmt.Errorf("bench: golden run of %s produced empty output", r.B.Name())
	}
	if res.Ticks == 0 {
		return fmt.Errorf("bench: %s never called Tick; time-window attribution impossible", r.B.Name())
	}
	end := loads()
	h.cells = len(cells)
	h.left = make([]int32, len(used)*h.cells)
	for t, row := range used {
		for c, n := range row {
			h.left[t*h.cells+c] = end[c] - n
		}
	}
	r.sh.golden, r.sh.ticks, r.sh.work, r.sh.hz = res.Output.Clone(), res.Ticks, res.Work, h
	return nil
}
