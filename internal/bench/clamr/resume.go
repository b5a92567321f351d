package clamr

import (
	"fmt"
	"math"

	"phirel/internal/bench"
)

// resumeStride is the distance between resume points, in time steps. A point
// holds what the arrays below have been written with so far, about 48 KB
// once the mesh has grown: eleven points are half the megabyte the six
// kernels' points may take together, for the kernel that is the largest
// share of a campaign's time. A run resumed at a uniform tick repeats 3.5
// golden ticks of the 96 on average, 3.6 %.
const resumeStride = 2

// resumeInts and resumeFloats list the state a time step inherits from the
// ones before it, beyond the scalar cells: the cell arrays, and the quadtree
// scratch, which the tree frame registers at full capacity, stale nodes of
// earlier and larger trees included. The sort buffers, the remesh scratch
// and the marks are written before they are read or registered in every
// step and are no part of it; nor are the quadtree's node count and root,
// which the tree phase sets before anything reads them. Each array goes with
// the value Reset fills it with, which its tail still holds: a point keeps
// the prefix before that tail.
func (c *CLAMR) resumeInts() (arrays [][]int, fill []int) {
	q := &c.qt
	return [][]int{c.ci.Data, c.cj.Data, c.clev.Data,
			c.nbE.Data, c.nbW.Data, c.nbN.Data, c.nbS.Data,
			q.lo, q.size, q.child, q.cell, q.keys},
		[]int{0, 0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 0}
}

// resumeFloats: every one of them is filled with +0.
func (c *CLAMR) resumeFloats() [][]float64 {
	return [][]float64{c.h.Data, c.u.Data, c.v.Data, c.h2.Data, c.u2.Data, c.v2.Data}
}

// SavePoint implements bench.Resumable. The sort tick is the first of a time
// step, and the sort phase changes none of the saved state before it.
func (c *CLAMR) SavePoint(tick int) (*bench.Snapshot, bool) {
	if tick%(4*resumeStride) != 0 {
		return nil, false
	}
	arrays, fill := c.resumeInts()
	floats := c.resumeFloats()
	written := make([]int, len(arrays)) // each array's length without its tail of fill
	total := 0
	for k, a := range arrays {
		n := len(a)
		for n > 0 && a[n-1] == fill[k] {
			n--
		}
		written[k] = n
		total += 1 + n
	}
	s := &bench.Snapshot{Int: make([]int32, 0, total+len(floats)+1+3*len(c.workers))}
	put := func(vals ...int) {
		for _, v := range vals {
			if int(int32(v)) != v {
				panic(fmt.Sprintf("clamr: %d does not fit a resume point", v))
			}
			s.Int = append(s.Int, int32(v))
		}
	}
	for k, a := range arrays {
		put(written[k])
		put(a[:written[k]]...)
	}
	s.F64 = make([]float64, 0, len(floats)*written[0]) // as many as cells, or nearly
	for _, a := range floats {
		n := len(a)
		for n > 0 && math.Float64bits(a[n-1]) == 0 {
			n--
		}
		put(n)
		s.F64 = append(s.F64, a[:n]...)
	}
	put(c.ncell.Load())
	for w := range c.workers {
		wk := &c.workers[w]
		put(wk.cStart.Load(), wk.cEnd.Load(), wk.cCur.Load())
	}
	return s, true
}

// Resume implements bench.Resumable.
func (c *CLAMR) Resume(ctx *bench.Ctx, tick int, s *bench.Snapshot, _ bench.Output) {
	ints, floats := s.Int, s.F64
	get := func(n int) []int32 {
		vals := ints[:n]
		ints = ints[n:]
		return vals
	}
	arrays, fill := c.resumeInts()
	for k, a := range arrays {
		n := int(get(1)[0])
		for i, v := range get(n) {
			a[i] = int(v)
		}
		for i := range a[n:] {
			a[n+i] = fill[k]
		}
	}
	for _, a := range c.resumeFloats() {
		n := int(get(1)[0])
		copy(a, floats[:n])
		clear(a[n:])
		floats = floats[n:]
	}
	c.ncell.Store(int(get(1)[0]))
	for w := range c.workers {
		wk, v := &c.workers[w], get(3)
		wk.cStart.Store(int(v[0]))
		wk.cEnd.Store(int(v[1]))
		wk.cCur.Store(int(v[2]))
	}
	c.steps(ctx, tick/4)
}

// Converged implements bench.Convergent. A time step reads, before it writes
// them, the first ncell entries of the cell coordinates, levels and H/U/V,
// and the control and constant cells; the output samples the same prefixes.
// Those are compared with the point's snapshot and with Reset's values; the
// rest is left out because every step writes it before reading it: the
// arrays' tails past ncell (remesh writes a cell before the mesh grows onto
// it), the neighbour indices (tree phase), Hnext/Unext/Vnext (physics), the
// quadtree (tree phase), the sort and remesh scratch, and the workers'
// cursors (every section stores them first). Comparing those too finds
// only half the runs that have rejoined the golden run.
func (c *CLAMR) Converged(tick int, s *bench.Snapshot, _ bench.Output) bool {
	ints, floats := s.Int, s.F64
	n := c.ncell.Load()
	if n != int(ints[len(ints)-1-3*len(c.workers)]) || c.stepCur.Load() != tick/4 || c.stepEnd.Load() != c.cfg.Steps ||
		c.dt.Load() != dt0 || c.grav.Load() != grav0 || c.lam.Load() != lambda0 {
		return false
	}
	arrays, fill := c.resumeInts()
	for k, a := range arrays[:3] { // cellI, cellJ, cellLevel
		m := int(ints[0])
		saved := ints[1 : 1+m]
		ints = ints[1+m:]
		for i, v := range a[:n] {
			want := fill[k]
			if i < m {
				want = int(saved[i])
			}
			if v != want {
				return false
			}
		}
	}
	for range arrays[3:] {
		ints = ints[1+ints[0]:]
	}
	for _, a := range c.resumeFloats()[:3] { // H, U, V
		m := int(ints[0])
		ints = ints[1:]
		for i, v := range a[:n] {
			var want uint64
			if i < m {
				want = math.Float64bits(floats[i])
			}
			if math.Float64bits(v) != want {
				return false
			}
		}
		floats = floats[m:]
	}
	return true
}
