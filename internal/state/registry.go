package state

import (
	"fmt"
	"strings"

	"phirel/internal/stats"
)

// Policy selects how the injector chooses among live sites, the subject of
// ablation A1 in the root benchmark suite.
type Policy int

const (
	// ByFrameThenVariable first picks a live frame uniformly, then a
	// variable within it — the literal CAROL-FI flip-script procedure
	// ("Flip-script first selects one of the available threads and
	// frames ... then one of the variables of the selected frame"). It is
	// the zero value and the campaign default.
	ByFrameThenVariable Policy = iota
	// ByVariable picks a uniformly random live variable regardless of
	// size or frame.
	ByVariable
	// ByBytes weights every live variable by its memory footprint: a fault
	// lands in a uniformly random allocated bit. Physically motivated for
	// raw memory upsets; ablation A1 compares it against the default.
	ByBytes
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case ByBytes:
		return "by-bytes"
	case ByVariable:
		return "by-variable"
	case ByFrameThenVariable:
		return "by-frame"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{ByFrameThenVariable, ByVariable, ByBytes} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("state: unknown policy %q", s)
}

// ParsePolicies parses a comma-separated list of policy names, trimming
// surrounding whitespace — the shared CLI flag format. An empty string
// yields nil so callers can apply their own default.
func ParsePolicies(s string) ([]Policy, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Policy
	for _, part := range strings.Split(s, ",") {
		p, err := ParsePolicy(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Frame is a named group of sites that is live for part of the execution,
// mirroring a call-stack frame in GDB. The global frame (index 0) holds
// variables live for the whole run.
type Frame struct {
	Name  string
	sites []Site
}

// Register adds a site to the frame. Registering the same name twice in one
// frame panics: duplicate names would make attribution ambiguous.
func (f *Frame) Register(sites ...Site) {
	for _, s := range sites {
		for _, old := range f.sites {
			if old.Name() == s.Name() {
				panic(fmt.Sprintf("state: duplicate site %q in frame %q", s.Name(), f.Name))
			}
		}
		f.sites = append(f.sites, s)
	}
}

// Sites returns the frame's sites (shared slice; callers must not mutate).
func (f *Frame) Sites() []Site { return f.sites }

// Registry tracks the live injection sites of one benchmark instance as a
// stack of frames.
type Registry struct {
	frames []*Frame
}

// NewRegistry creates a registry with an empty global frame.
func NewRegistry() *Registry {
	return &Registry{frames: []*Frame{{Name: "global"}}}
}

// Global returns the always-live frame.
func (g *Registry) Global() *Frame { return g.frames[0] }

// Push enters a new frame (benchmark phase / subroutine) and returns it.
func (g *Registry) Push(name string) *Frame {
	f := &Frame{Name: name}
	g.frames = append(g.frames, f)
	return f
}

// Pop exits the most recent frame. Popping the global frame panics.
func (g *Registry) Pop() {
	if len(g.frames) == 1 {
		panic("state: cannot pop the global frame")
	}
	g.frames = g.frames[:len(g.frames)-1]
}

// Depth returns the number of live frames including global.
func (g *Registry) Depth() int { return len(g.frames) }

// PopAll removes every frame above global. The harness calls it when a run
// aborts mid-phase (crash or watchdog) and deferred Pops never ran.
func (g *Registry) PopAll() { g.frames = g.frames[:1] }

// DisarmAll cancels pending deferred corruptions on every live armable
// site. Benchmarks call it from Reset so a corruption armed in an aborted
// run cannot leak into the next one.
func (g *Registry) DisarmAll() {
	for _, f := range g.frames {
		for _, s := range f.sites {
			if a, ok := s.(Armable); ok {
				a.Disarm()
			}
		}
	}
}

// AnyArmed reports whether any live site has a pending deferred corruption.
// Orchestrator-only, at quiescent points: HotSpot, LavaMD and CLAMR call it
// between sections to decide whether the plain loop is safe (nothing can
// fire, so skipping countdown-driving Loads is unobservable). In a campaign
// it is true only from a trial's tick until its cell fires, at most
// ArmDelayMax loads of that cell later; a cell that stays armed to the end
// of a run is a trial the horizon decided without running.
func (g *Registry) AnyArmed() bool {
	for _, f := range g.frames {
		for _, s := range f.sites {
			if a, ok := s.(Armable); ok && a.Armed() {
				return true
			}
		}
	}
	return false
}

// Live returns all currently visible sites, global first.
func (g *Registry) Live() []Site {
	var out []Site
	for _, f := range g.frames {
		out = append(out, f.sites...)
	}
	return out
}

// TotalBytes returns the footprint of all live sites.
func (g *Registry) TotalBytes() int {
	n := 0
	for _, s := range g.Live() {
		n += s.SizeBytes()
	}
	return n
}

// RegionBytes returns live footprint grouped by region.
func (g *Registry) RegionBytes() map[Region]int {
	out := make(map[Region]int)
	for _, s := range g.Live() {
		out[s.Region()] += s.SizeBytes()
	}
	return out
}

// Frames returns the live frame stack, global first (shared slice; callers
// must not mutate). A position in it — frame index, site index — is what
// PickIn returns.
func (g *Registry) Frames() []*Frame { return g.frames }

// Pick selects a live site under the given policy. It returns nil when no
// sites are live (the injector records such attempts as no-ops).
func (g *Registry) Pick(r *stats.RNG, policy Policy) Site {
	f, s := PickIn(g.frames, r, policy)
	if f < 0 {
		return nil
	}
	return g.frames[f].sites[s]
}

// PickIn is the one victim selection: it picks among the sites of a frame
// stack, global first, under the given policy and returns the position of
// the pick as (frame index, site index), or (-1, -1) when the stack holds
// no site. The stack is a registry's live one or a recorded description of
// it; only the sites' order and SizeBytes are consulted.
func PickIn(frames []*Frame, r *stats.RNG, policy Policy) (frame, site int) {
	var weights []float64 // ByBytes: every site's footprint, in stack order
	nonEmpty, total, bytes := 0, 0, 0.0
	for _, f := range frames {
		if len(f.sites) > 0 {
			nonEmpty++
		}
		total += len(f.sites)
		if policy == ByBytes {
			for _, s := range f.sites {
				weights = append(weights, float64(s.SizeBytes()))
				bytes += float64(s.SizeBytes())
			}
		}
	}
	if total == 0 {
		return -1, -1
	}
	var i int // the pick, as an index over the concatenated frames
	switch {
	case policy == ByFrameThenVariable:
		k := r.Intn(nonEmpty)
		for fi, f := range frames {
			if len(f.sites) > 0 {
				if k == 0 {
					return fi, r.Intn(len(f.sites))
				}
				k--
			}
		}
	case policy == ByVariable, policy == ByBytes && bytes <= 0:
		i = r.Intn(total)
	case policy == ByBytes:
		i = r.PickWeighted(weights)
	default:
		panic(fmt.Sprintf("state: invalid policy %d", int(policy)))
	}
	for fi, f := range frames {
		if i < len(f.sites) {
			return fi, i
		}
		i -= len(f.sites)
	}
	panic("state: pick index out of range")
}
