package bench

import (
	"unsafe"

	"phirel/internal/state"
)

// NewReferenceRunners returns an empty list of reference runners: every
// runner it hands out pulls no lever (Runner.Reference). A key's reference
// and normal runners share its resident key state, and may run at once.
func NewReferenceRunners() *Runners {
	rs := NewRunners()
	rs.reference = true
	return rs
}

// ResumePoint returns the tick RunInjected(tick, …) starts its run at.
func (r *Runner) ResumePoint(tick int) int { return r.start(tick).tick }

// ResumePoints returns how many points the runner may resume at, Reset
// excluded, and the bytes their snapshots hold.
func (r *Runner) ResumePoints() (points, bytes int) {
	points = len(r.sh.points) - 1
	for _, p := range r.sh.points[1:] {
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
	h := r.sh.hz
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

// ForgetKeys empties the process's resident key states, so the next list to
// declare a key makes the key's kernel run again.
func ForgetKeys() {
	resident.mu.Lock()
	resident.keys = nil
	resident.mu.Unlock()
}
