package bench

import (
	"unsafe"

	"phirel/internal/state"
)

// Profiled reports whether the runner has built its horizon.
func (r *Runner) Profiled() bool { return r.hz != nil }

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
