package bench

import (
	"unsafe"

	"phirel/internal/state"
)

// Profiled reports whether the runner's key has built its horizon.
func (r *Runner) Profiled() bool { return r.sh.hz != nil }

// Horizon identifies the horizon the runner's key holds, nil before one is
// built.
func (r *Runner) Horizon() any { return r.sh.hz }

// SharesKey reports whether two runners hold the same resume points and
// horizon.
func (r *Runner) SharesKey(o *Runner) bool { return r.sh == o.sh }

// SetForceReset switches the resume seam: while set, every injected run
// starts at Reset, as all of them did before kernels saved resume points.
func SetForceReset(v bool) { forceReset = v }

// SetForceSuffix switches the convergence seam: while set, every injected
// run executes its suffix to the end, as all of them did before kernels
// could tell a run had rejoined the golden run.
func SetForceSuffix(v bool) { forceSuffix = v }

// ResumePoint returns the tick RunInjected(tick, …) starts its run at.
func (r *Runner) ResumePoint(tick int) int { return r.sh.resume.at(tick).tick }

// ResumePoints returns how many points the runner may resume at, Reset
// excluded, and the bytes their snapshots hold.
func (r *Runner) ResumePoints() (points, bytes int) {
	points = len(r.sh.resume.points) - 1
	for _, p := range r.sh.resume.points[1:] {
		if s := p.snap; s != nil {
			bytes += 4*len(s.F32) + 8*len(s.F64) + 4*len(s.Int)
		}
	}
	return points, bytes
}

// HorizonBytes is the memory the runner's horizon keeps live: the two
// per-tick tables, the distinct stacks and, once each, the frames they
// share with their shadow sites.
func (r *Runner) HorizonBytes() int {
	h := r.horizon()
	n := int(unsafe.Sizeof(*h)) + 4*cap(h.left) + 4*cap(h.stackAt) + int(unsafe.Sizeof(h.stacks[0]))*cap(h.stacks)
	seen := map[*state.Frame]bool{}
	for _, stack := range h.stacks {
		n += int(unsafe.Sizeof(stack[0])) * cap(stack)
		for _, f := range stack {
			if seen[f] {
				continue
			}
			seen[f] = true
			n += int(unsafe.Sizeof(*f)) + int(unsafe.Sizeof(f.Sites()[0]))*cap(f.Sites()) +
				int(unsafe.Sizeof(shadow{}))*len(f.Sites())
		}
	}
	return n
}
