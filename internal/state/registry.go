package state

import (
	"fmt"
	"strings"

	"phirel/internal/fault"
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
// Orchestrator-only, at quiescent points: kernels call it between sections
// to decide whether the unarmed fast path is safe (nothing can fire, so
// skipping countdown-driving Loads is unobservable).
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

// Pick selects a live site under the given policy. It returns nil when no
// sites are live (the injector records such attempts as no-ops).
func (g *Registry) Pick(r *stats.RNG, policy Policy) Site {
	switch policy {
	case ByFrameThenVariable:
		var nonEmpty []*Frame
		for _, f := range g.frames {
			if len(f.sites) > 0 {
				nonEmpty = append(nonEmpty, f)
			}
		}
		if len(nonEmpty) == 0 {
			return nil
		}
		f := nonEmpty[r.Intn(len(nonEmpty))]
		return f.sites[r.Intn(len(f.sites))]
	case ByVariable:
		live := g.Live()
		if len(live) == 0 {
			return nil
		}
		return live[r.Intn(len(live))]
	case ByBytes:
		live := g.Live()
		if len(live) == 0 {
			return nil
		}
		weights := make([]float64, len(live))
		total := 0.0
		for i, s := range live {
			weights[i] = float64(s.SizeBytes())
			total += weights[i]
		}
		if total <= 0 {
			return live[r.Intn(len(live))]
		}
		return live[r.PickWeighted(weights)]
	default:
		panic(fmt.Sprintf("state: invalid policy %d", int(policy)))
	}
}

// Inject picks a live site and corrupts it with the model, returning the
// report and true, or a zero report and false when nothing is live.
func (g *Registry) Inject(r *stats.RNG, policy Policy, m fault.Model) (Report, bool) {
	s := g.Pick(r, policy)
	if s == nil {
		return Report{}, false
	}
	return s.Corrupt(r, m), true
}
