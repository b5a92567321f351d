// Package clamr ports the DOE CLAMR mini-app used by the paper: a
// shallow-water wave simulation on a cell-based adaptive mesh (paper §3.2:
// "simulates wave propagation using adaptive mesh refinement ...
// representative of a LANL supercomputer workload").
//
// Every structural ingredient the paper's criticality analysis names is
// implemented and injectable:
//
//   - Sort ("mesh.sort"): cells are kept in space-filling-curve order; each
//     step re-sorts Morton keys with a bottom-up merge sort and permutes the
//     cell arrays. The sorted order is load-bearing — the quadtree is built
//     by bisecting the sorted key array, and coarsening detects sibling
//     groups by Z-order adjacency — so corrupted keys or permutations
//     produce wrong meshes, failed lookups, and out-of-range crashes,
//     matching the paper's finding that Sort is CLAMR's most critical
//     portion (39 % SDC / 43 % DUE).
//   - Tree ("mesh.tree"): neighbour finding descends a quadtree whose node
//     arrays are rebuilt each step from the sorted cells; traversal guards
//     turn corrupted child links into deterministic aborts (paper: 20 %
//     SDC / 41 % DUE). The region is the node arrays; the key→cell index
//     the build also fills is an unregistered cache of them, read in
//     place of the descent only where the two must agree (see treePhase).
//   - Remaining mesh state ("mesh.other"): cell coordinate/level arrays,
//     H/U/V fields, neighbour indices, scratch fields.
//
// The simulation is a circular dam break: the wave front propagates outward
// and refinement tracks it, so the active cell count rises to a maximum a
// third of the way into the run — the paper's observation that CLAMR is
// most sensitive "when the number of active cells reaches its maximum value"
// (time window 3 of 9) emerges from the same mechanism here.
package clamr

import (
	"fmt"

	"phirel/internal/bench"
	"phirel/internal/state"
)

// Config sizes the workload.
type Config struct {
	// Base is the coarse-grid edge; must be a power of two.
	Base int
	// MaxLevel is the maximum refinement depth (fine edge = Base<<MaxLevel).
	MaxLevel int
	// Steps is the number of simulation steps.
	Steps int
	// Workers is the parallel width of the physics and neighbour phases.
	Workers int
	// RefineThresh and CoarsenThresh are the |ΔH| remesh thresholds.
	RefineThresh, CoarsenThresh float64
	// MaxCellsFrac caps the active cell count at this fraction of the full
	// fine grid, as real CLAMR caps its mesh; refinement pauses above it.
	// Zero selects the default of 0.4.
	MaxCellsFrac float64
}

// DefaultConfig returns the campaign-scale configuration.
func DefaultConfig() Config {
	return Config{Base: 8, MaxLevel: 2, Steps: 24, Workers: 4,
		RefineThresh: 0.4, CoarsenThresh: 0.08}
}

// The simulation constants: time step, gravity and the Lax-Friedrichs
// dissipation speed.
const dt0, grav0, lambda0 = 0.04, 9.8, 12.0

// worker holds per-thread control cells.
type worker struct {
	cStart, cEnd, cCur *state.Cell[int]
}

// CLAMR implements bench.Benchmark.
type CLAMR struct {
	cfg  Config
	reg  *state.Registry
	fine int // fine-grid edge
	cap  int // maximum cell count (full fine grid)

	// Cell arrays (structure of arrays), capacity-sized; ncell is live.
	ci, cj, clev       *state.Buf[int]     // region "mesh.other"
	h, u, v            *state.Buf[float64] // region "mesh.other"
	h2, u2, v2         *state.Buf[float64] // next-step scratch, region "mesh.other"
	nbE, nbW, nbN, nbS *state.Buf[int]     // neighbour indices, region "mesh.other"

	ncell            *state.Cell[int] // region "control"
	stepCur, stepEnd *state.Cell[int] // region "control"

	dt, grav, lam *state.Cell[float64] // region "constant"

	workers []worker

	// quadtree of the current step (rebuilt each step; its node arrays are
	// the tree frame's sites, live only while the frame is pushed).
	qt quadtree

	// remesh scratch (unregistered; overwritten every step).
	tmpI, tmpJ, tmpLev []int
	tmpH, tmpU, tmpV   []float64
	marks              []int8 // +1 refine, -1 coarsenable, 0 keep

	// The sort frame's buffers: Morton keys, permutation and their merge
	// scratch, region "mesh.sort". Each owns a capacity-sized array and is
	// re-sliced to the live cell count every sort tick, so an injection sees
	// n elements of each.
	sortBufs [4]*state.Buf[int]

	sortFrame, treeFrame *state.Frame // built by New, pushed by their phases
}

// New builds a CLAMR instance. The initial mesh is uniform at level 1 with
// a circular dam break centred in the domain.
func New(cfg Config, seed uint64) *CLAMR {
	if cfg.Base < 4 || cfg.Base&(cfg.Base-1) != 0 || cfg.MaxLevel < 1 ||
		cfg.MaxLevel > 6 || cfg.Steps <= 0 || cfg.Workers <= 0 {
		panic(fmt.Sprintf("clamr: bad config %+v", cfg))
	}
	if cfg.MaxCellsFrac == 0 {
		cfg.MaxCellsFrac = 0.4
	}
	if cfg.MaxCellsFrac < 0 || cfg.MaxCellsFrac > 1 {
		panic(fmt.Sprintf("clamr: bad MaxCellsFrac %v", cfg.MaxCellsFrac))
	}
	_ = seed // the dam-break initial condition is deterministic by design
	c := &CLAMR{cfg: cfg, reg: state.NewRegistry()}
	c.fine = cfg.Base << cfg.MaxLevel
	c.cap = c.fine * c.fine
	mkInts := func(name string) *state.Buf[int] {
		b := state.NewBuf[int](name, "mesh.other", state.Dims1(c.cap))
		c.reg.Global().Register(b)
		return b
	}
	mkF64 := func(name string) *state.Buf[float64] {
		b := state.NewBuf[float64](name, "mesh.other", state.Dims1(c.cap))
		c.reg.Global().Register(b)
		return b
	}
	c.ci, c.cj, c.clev = mkInts("cellI"), mkInts("cellJ"), mkInts("cellLevel")
	c.h, c.u, c.v = mkF64("H"), mkF64("U"), mkF64("V")
	c.h2, c.u2, c.v2 = mkF64("Hnext"), mkF64("Unext"), mkF64("Vnext")
	c.nbE, c.nbW = mkInts("nbEast"), mkInts("nbWest")
	c.nbN, c.nbS = mkInts("nbNorth"), mkInts("nbSouth")
	c.ncell = state.NewCell("ncell", "control", 0)
	c.stepCur = state.NewCell("stepCur", "control", 0)
	c.stepEnd = state.NewCell("stepEnd", "control", cfg.Steps)
	c.dt = state.NewCell[float64]("dt", "constant", dt0)
	c.grav = state.NewCell[float64]("grav", "constant", grav0)
	c.lam = state.NewCell[float64]("lambda", "constant", lambda0)
	c.reg.Global().Register(c.ncell, c.stepCur, c.stepEnd, c.dt, c.grav, c.lam)
	c.workers = make([]worker, cfg.Workers)
	for w := range c.workers {
		wk := &c.workers[w]
		mk := func(vn string) *state.Cell[int] {
			cell := state.NewCell(fmt.Sprintf("w%d.%s", w, vn), "control", 0)
			c.reg.Global().Register(cell)
			return cell
		}
		wk.cStart, wk.cEnd, wk.cCur = mk("cStart"), mk("cEnd"), mk("cCur")
	}
	c.tmpI = make([]int, c.cap)
	c.tmpJ = make([]int, c.cap)
	c.tmpLev = make([]int, c.cap)
	c.tmpH = make([]float64, c.cap)
	c.tmpU = make([]float64, c.cap)
	c.tmpV = make([]float64, c.cap)
	c.marks = make([]int8, c.cap)
	c.sortFrame = &state.Frame{Name: "sort"}
	for i, name := range []string{"sortKeys", "sortPerm", "sortScratchKeys", "sortScratchPerm"} {
		c.sortBufs[i] = state.NewBuf[int](name, "mesh.sort", state.Dims1(c.cap))
		c.sortFrame.Register(c.sortBufs[i])
	}
	q := &c.qt
	q.init(c.cap)
	c.treeFrame = &state.Frame{Name: "tree"}
	c.treeFrame.Register(
		state.WrapBuf("qtLo", "mesh.tree", q.lo, state.Dims1(len(q.lo))),
		state.WrapBuf("qtSize", "mesh.tree", q.size, state.Dims1(len(q.size))),
		state.WrapBuf("qtChild", "mesh.tree", q.child, state.Dims1(len(q.child))),
		state.WrapBuf("qtCell", "mesh.tree", q.cell, state.Dims1(len(q.cell))),
		state.WrapBuf("qtKeys", "mesh.tree", q.keys, state.Dims1(len(q.keys))),
	)
	return c
}

// Name implements bench.Benchmark.
func (c *CLAMR) Name() string { return "CLAMR" }

// Class implements bench.Benchmark.
func (c *CLAMR) Class() bench.Class { return bench.AMR }

// Windows implements bench.Benchmark (paper: CLAMR split into 9 windows).
func (c *CLAMR) Windows() int { return 9 }

// Registry implements bench.Benchmark.
func (c *CLAMR) Registry() *state.Registry { return c.reg }

// Reset implements bench.Benchmark: uniform level-1 mesh, dam break.
func (c *CLAMR) Reset() {
	c.reg.PopAll()
	c.reg.DisarmAll()
	lvl := 1
	if c.cfg.MaxLevel < 1 {
		lvl = 0
	}
	edge := c.cfg.Base << lvl
	n := 0
	scale := c.fine / edge
	// float64(…) rounds each product before a sum, as in physics. The centre
	// halves the even fine edge as an integer, since a float halving is a
	// product by 0.5 that a target could fuse into dx and dy.
	cx, cy := float64(c.fine/2), float64(c.fine/2)
	radius := float64(c.fine) / 6
	for j := 0; j < edge; j++ {
		for i := 0; i < edge; i++ {
			c.ci.Data[n] = i
			c.cj.Data[n] = j
			c.clev.Data[n] = lvl
			xc := float64((float64(i) + 0.5) * float64(scale))
			yc := float64((float64(j) + 0.5) * float64(scale))
			dx, dy := xc-cx, yc-cy
			if float64(dx*dx)+float64(dy*dy) < radius*radius {
				c.h.Data[n] = 10
			} else {
				c.h.Data[n] = 2
			}
			c.u.Data[n] = 0
			c.v.Data[n] = 0
			n++
		}
	}
	for i := n; i < c.cap; i++ {
		c.ci.Data[i], c.cj.Data[i], c.clev.Data[i] = 0, 0, 0
		c.h.Data[i], c.u.Data[i], c.v.Data[i] = 0, 0, 0
	}
	zero := func(b *state.Buf[int]) {
		for i := range b.Data {
			b.Data[i] = -1
		}
	}
	zero(c.nbE)
	zero(c.nbW)
	zero(c.nbN)
	zero(c.nbS)
	for i := range c.h2.Data {
		c.h2.Data[i], c.u2.Data[i], c.v2.Data[i] = 0, 0, 0
	}
	// The tree frame holds the quadtree arrays at full capacity, so elements
	// beyond the live node count are injectable. Clear them, or a reused
	// benchmark instance leaks node data from whichever trial ran on it
	// last — making recorded injection sites depend on the engine's
	// trial→worker assignment and breaking cross-worker-count byte-identity.
	q := &c.qt
	for i := range q.lo {
		q.lo[i], q.size[i], q.cell[i] = 0, 0, 0
	}
	for i := range q.child {
		q.child[i] = 0
	}
	for i := range q.keys {
		q.keys[i] = 0
	}
	q.n = 0
	q.root = 0
	c.ncell.Store(n)
	c.stepCur.Store(0)
	c.stepEnd.Store(c.cfg.Steps)
	c.dt.Store(dt0)
	c.grav.Store(grav0)
	c.lam.Store(lambda0)
	for w := range c.workers {
		wk := &c.workers[w]
		wk.cStart.Store(0)
		wk.cEnd.Store(0)
		wk.cCur.Store(0)
	}
}

// Run implements bench.Benchmark: four ticks per step (sort, tree, physics,
// remesh).
func (c *CLAMR) Run(ctx *bench.Ctx) { c.steps(ctx, 0) }

// steps runs the time steps from step on.
func (c *CLAMR) steps(ctx *bench.Ctx, step int) {
	for c.stepCur.Store(step); c.stepCur.Load() < c.stepEnd.Load(); c.stepCur.Add(1) {
		n := c.ncell.Load()
		if n <= 0 || n > c.cap {
			panic(fmt.Sprintf("clamr: corrupted cell count %d", n))
		}
		c.sortPhase(ctx, n)
		c.treePhase(ctx, n)
		c.physicsPhase(ctx, n)
		c.remeshPhase(ctx, n)
	}
}

// Output implements bench.Benchmark: H sampled onto the uniform fine grid,
// so runs with different mesh evolutions remain comparable.
func (c *CLAMR) Output(dst []float64) bench.Output {
	out := bench.GrowVals(dst, c.fine*c.fine)
	// The sampler leaves unswept fine cells at zero (corrupted levels are
	// skipped), so a reused buffer must start clean.
	for i := range out {
		out[i] = 0
	}
	n := c.ncell.Load()
	for idx := 0; idx < n && idx < c.cap; idx++ {
		lev := c.clev.Data[idx]
		if lev < 0 || lev > c.cfg.MaxLevel {
			continue // corrupted level: leave zeros (mismatch)
		}
		size := 1 << (c.cfg.MaxLevel - lev)
		x0, y0 := c.ci.Data[idx]*size, c.cj.Data[idx]*size
		for dy := 0; dy < size; dy++ {
			for dx := 0; dx < size; dx++ {
				x, y := x0+dx, y0+dy
				if x < 0 || x >= c.fine || y < 0 || y >= c.fine {
					continue
				}
				out[y*c.fine+x] = c.h.Data[idx]
			}
		}
	}
	return bench.Output{Vals: out, Shape: state.Dims2(c.fine, c.fine)}
}

func init() {
	bench.Register("CLAMR", func(seed uint64) bench.Benchmark {
		return New(DefaultConfig(), seed)
	})
}
