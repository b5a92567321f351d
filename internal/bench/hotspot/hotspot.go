// Package hotspot ports the Rodinia HotSpot benchmark used by the paper: an
// iterative thermal simulation of an architectural floor plan (paper §3.2:
// "memory-bound algorithm as its arithmetic intensity is low").
//
// Each iteration updates every cell of a single-precision temperature grid
// from its four neighbours, the local power dissipation, and the ambient
// sink:
//
//	t' = t + cx·(E + W − 2t) + cy·(N + S − 2t) + cz·(amb − t) + cp·power
//
// The diffusion coefficients and ambient temperature live in corruptible
// constant cells — the paper found HotSpot's SDCs and DUEs concentrate in
// "constant and control variables". The stencil structure is also what gives
// HotSpot its signature reliability behaviour: an injected delta decays
// geometrically (factor 1−2cx−2cy−cz per iteration at the impact point)
// while spreading to neighbours, so errors are wide but strongly attenuated
// — the mechanism behind the paper's Figure 3, where a 0.5 % tolerance
// removes most of HotSpot's SDC FIT.
//
// The row update is written twice. On amd64 an SSE2 kernel
// (stencil_amd64.s) updates four columns per instruction; each packed op is
// the Go row's scalar op on the same operands in the same order, and a lane
// of ADDPS or MULPS rounds as ADDSS or MULSS does, so every column gets the
// Go row's bits, NaN payloads included. SSE2 is amd64's baseline: nothing
// is chosen at run time. The Go row, stencilRowGo, is the only path on
// every other architecture and the reference the kernel is tested against;
// it rounds each product explicitly, so no target fuses a multiply and an
// add: every architecture rounds the same operations in the same order.
package hotspot

import (
	"fmt"

	"phirel/internal/bench"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// Config sizes the workload.
type Config struct {
	// Rows, Cols give the grid shape.
	Rows, Cols int
	// Iters is the number of stencil sweeps (one tick each).
	Iters int
	// Workers is the parallel width (rows are partitioned).
	Workers int
}

// DefaultConfig returns the campaign-scale configuration. The iteration
// count is deliberately large relative to the grid so that attenuation —
// not injection magnitude — dominates the relative-error distribution, as
// on the real device where a run spans thousands of sweeps.
func DefaultConfig() Config { return Config{Rows: 64, Cols: 64, Iters: 256, Workers: 4} }

// The simulation constants. Stable diffusion coefficients: centre weight
// 1-2cx-2cy-cz = 0.47.
const cx0, cy0, cz0, cp0, amb0 float32 = 0.12, 0.12, 0.05, 0.30, 80.0

// worker holds per-thread loop control cells.
type worker struct {
	rStart, rEnd, rCur *state.Cell[int]
}

// HotSpot implements bench.Benchmark.
type HotSpot struct {
	cfg   Config
	reg   *state.Registry
	tA    *state.Buf[float32] // ping
	tB    *state.Buf[float32] // pong
	power *state.Buf[float32]
	t0    []float32 // pristine initial temperature
	p0    []float32 // pristine power map

	// Simulation constants (region "constant"). The real kernel keeps these
	// in registers; their memory copies are reloaded every sweep, which is
	// when an armed corruption fires.
	cx, cy, cz, cp, amb *state.Cell[float32]

	// Global control cells.
	iterCur, iterEnd *state.Cell[int]

	workers []worker
	final   *state.Buf[float32] // buffer holding the last completed sweep
	row     []float32           // Converged's scratch row
}

// New builds a HotSpot instance with deterministic inputs.
func New(cfg Config, seed uint64) *HotSpot {
	if cfg.Rows <= 2 || cfg.Cols <= 2 || cfg.Iters <= 0 || cfg.Workers <= 0 {
		panic(fmt.Sprintf("hotspot: bad config %+v", cfg))
	}
	h := &HotSpot{cfg: cfg, reg: state.NewRegistry()}
	shape := state.Dims2(cfg.Cols, cfg.Rows)
	h.tA = state.NewBuf[float32]("temp0", "matrix", shape)
	h.tB = state.NewBuf[float32]("temp1", "matrix", shape)
	h.power = state.NewBuf[float32]("power", "matrix", shape)
	r := stats.NewRNG(seed)
	h.t0 = make([]float32, shape.Len())
	h.p0 = make([]float32, shape.Len())
	h.row = make([]float32, cfg.Cols)
	for i := range h.t0 {
		h.t0[i] = 80 + float32(10*float32(r.Float64())) // ambient-ish start, never fused
		h.p0[i] = float32(r.Float64() * r.Float64())    // skewed power map
	}
	h.cx = state.NewCell[float32]("cx", "constant", cx0)
	h.cy = state.NewCell[float32]("cy", "constant", cy0)
	h.cz = state.NewCell[float32]("cz", "constant", cz0)
	h.cp = state.NewCell[float32]("cp", "constant", cp0)
	h.amb = state.NewCell[float32]("amb", "constant", amb0)
	h.iterCur = state.NewCell("iterCur", "control", 0)
	h.iterEnd = state.NewCell("iterEnd", "control", cfg.Iters)
	h.reg.Global().Register(h.tA, h.tB, h.power,
		h.cx, h.cy, h.cz, h.cp, h.amb, h.iterCur, h.iterEnd)
	h.workers = make([]worker, cfg.Workers)
	for w := range h.workers {
		wk := &h.workers[w]
		mk := func(v string) *state.Cell[int] {
			c := state.NewCell(fmt.Sprintf("w%d.%s", w, v), "control", 0)
			h.reg.Global().Register(c)
			return c
		}
		wk.rStart, wk.rEnd, wk.rCur = mk("rStart"), mk("rEnd"), mk("rCur")
	}
	return h
}

// Name implements bench.Benchmark.
func (h *HotSpot) Name() string { return "HotSpot" }

// Class implements bench.Benchmark.
func (h *HotSpot) Class() bench.Class { return bench.Stencil }

// Windows implements bench.Benchmark (paper: HotSpot split into 5 windows).
func (h *HotSpot) Windows() int { return 5 }

// Registry implements bench.Benchmark.
func (h *HotSpot) Registry() *state.Registry { return h.reg }

// Reset implements bench.Benchmark.
func (h *HotSpot) Reset() {
	h.reg.PopAll()
	h.reg.DisarmAll()
	copy(h.tA.Data, h.t0)
	for i := range h.tB.Data {
		h.tB.Data[i] = 0
	}
	copy(h.power.Data, h.p0)
	h.cx.Store(cx0)
	h.cy.Store(cy0)
	h.cz.Store(cz0)
	h.cp.Store(cp0)
	h.amb.Store(amb0)
	h.iterCur.Store(0)
	h.iterEnd.Store(h.cfg.Iters)
	for w := range h.workers {
		wk := &h.workers[w]
		wk.rStart.Store(0)
		wk.rEnd.Store(0)
		wk.rCur.Store(0)
	}
	h.final = h.tA
}

// Run implements bench.Benchmark. One tick per sweep.
func (h *HotSpot) Run(ctx *bench.Ctx) { h.sweeps(ctx, 0) }

// resumeStride is the distance between resume points, in sweeps: 15 points
// of one 16 KB grid each, and a run resumed at a uniform tick repeats 7.5
// golden sweeps on average plus the one Resume makes, 3.3 % of the 256.
const resumeStride = 16

// SavePoint implements bench.Resumable. At every resumeStride-th sweep it
// keeps the grid the sweep before read, which the buffer that is not final
// still holds. The other grid, every cursor and final follow from it by
// making that sweep again; power and the constants are pristine inputs.
func (h *HotSpot) SavePoint(tick int) (*bench.Snapshot, bool) {
	if tick%resumeStride != 0 {
		return nil, false
	}
	_, prev := h.buffers(tick)
	return &bench.Snapshot{F32: append([]float32(nil), prev.Data...)}, true
}

// Resume implements bench.Resumable: sweep tick-1 is made again from the
// grid it read, uncounted — ctx already reads the work done before sweep
// tick — which leaves both grids and the row cursors as that sweep left
// them in the golden run.
func (h *HotSpot) Resume(ctx *bench.Ctx, tick int, s *bench.Snapshot, _ bench.Output) {
	src, dst := h.buffers(tick - 1)
	copy(src.Data, s.F32)
	h.sweep(ctx, src, dst)
	h.sweeps(ctx, tick)
}

// Converged implements bench.Convergent. The sweeps from tick on read the
// grid final points to, the power map, the five constants and the two
// iteration cells; the golden run's grid there is not kept, but it is the
// sweep of the snapshot's, which is made again a row at a time to compare.
// Left out: the other grid and the workers' cursors, which every sweep
// writes before it reads them. The rest writes the whole output, so none of
// it is kept.
func (h *HotSpot) Converged(tick int, s *bench.Snapshot, _ bench.Output) (kept int, ok bool) {
	src, _ := h.buffers(tick)
	if h.final != src || h.iterCur.Load() != tick || h.iterEnd.Load() != h.cfg.Iters ||
		h.cx.Load() != cx0 || h.cy.Load() != cy0 || h.cz.Load() != cz0 || h.cp.Load() != cp0 || h.amb.Load() != amb0 ||
		!bench.SameBits(h.power.Data, h.p0) {
		return 0, false
	}
	cols := h.cfg.Cols
	for r := 0; r < h.cfg.Rows; r++ {
		h.sweepRow(s.F32, h.row, h.p0, r, cx0, cy0, cz0, cp0, amb0)
		if !bench.SameBits(h.row, src.Data[r*cols:]) {
			return 0, false
		}
	}
	return 0, true
}

// buffers returns the grid sweep it reads and the one it writes.
func (h *HotSpot) buffers(it int) (src, dst *state.Buf[float32]) {
	if it%2 == 0 {
		return h.tA, h.tB
	}
	return h.tB, h.tA
}

// sweeps runs the sweeps from sweep it on.
func (h *HotSpot) sweeps(ctx *bench.Ctx, it int) {
	src, dst := h.buffers(it)
	for h.iterCur.Store(it); h.iterCur.Load() < h.iterEnd.Load(); h.iterCur.Add(1) {
		// Publish the live grid before the tick so injections (which fire
		// inside Tick) corrupt state that the coming sweep actually reads.
		h.final = src
		ctx.Tick()
		ctx.Work(int64(h.cfg.Rows)*int64(h.cfg.Cols) + 1)
		h.sweep(ctx, src, dst)
		src, dst = dst, src
	}
	h.final = src
}

// sweep updates every row of dst from src.
func (h *HotSpot) sweep(ctx *bench.Ctx, src, dst *state.Buf[float32]) {
	// Reload constants from their (corruptible) memory homes once per
	// sweep, as the real kernel's register reloads would.
	cx, cy, cz, cp, amb := h.cx.Load(), h.cy.Load(), h.cz.Load(), h.cp.Load(), h.amb.Load()
	s, d, p := src.Data, dst.Data, h.power.Data
	// Nothing armed ⇒ nothing can fire mid-sweep (arming is
	// tick-quiescent), so the row cursors may run as plain loops with
	// identical sweeps and section-final cell state.
	fast := !h.reg.AnyArmed()
	ctx.ParallelFor(h.cfg.Workers, h.cfg.Rows, func(w, r0, r1 int) {
		wk := &h.workers[w]
		wk.rStart.Store(r0)
		wk.rEnd.Store(r1)
		if fast {
			for r := r0; r < r1; r++ {
				h.sweepRow(s, d[r*h.cfg.Cols:], p, r, cx, cy, cz, cp, amb)
			}
			wk.rCur.Store(r1)
			return
		}
		for wk.rCur.Store(wk.rStart.Load()); wk.rCur.Load() < wk.rEnd.Load(); wk.rCur.Add(1) {
			r := wk.rCur.Load()
			// A corrupted cursor leaving this worker's chunk would stomp
			// rows another thread owns; abort like the real run would
			// (r0/r1 are uncorruptible locals, keeping writes disjoint).
			if r < r0 || r >= r1 {
				panic(fmt.Sprintf("hotspot: row %d outside chunk [%d,%d)", r, r0, r1))
			}
			h.sweepRow(s, d[r*h.cfg.Cols:], p, r, cx, cy, cz, cp, amb)
		}
	})
}

// sweepRow applies one stencil update to row r of s, writing it to the row
// dr; shared by the cell-driven and fast row loops and the convergence
// check, so their arithmetic cannot drift apart. It slices out the row, the
// rows above and below (clamped at the grid's edges) and the row's power,
// and hands the whole row to stencilRow.
func (h *HotSpot) sweepRow(s, dr, p []float32, r int, cx, cy, cz, cp, amb float32) {
	rows, cols := h.cfg.Rows, h.cfg.Cols
	up, down := r-1, r+1
	if up < 0 {
		up = 0
	}
	if down >= rows {
		down = rows - 1
	}
	base := r * cols
	stencilRow(dr[:cols], s[base:base+cols], s[up*cols:up*cols+cols], s[down*cols:down*cols+cols],
		p[base:base+cols], cx, cy, cz, cp, amb)
}

// stencilRowGo writes to d the stencil update of the row s from its north
// and south rows n and so and its power p; the east and west neighbours of
// the edge columns clamp to the cell itself. It is the only row on other
// architectures and the reference the amd64 kernel is tested against.
// float32(…) rounds each product before its sum, which stops the compiler
// fusing a multiply and an add where the target has such an instruction;
// the amd64 compiler fuses nothing, so there they change nothing.
func stencilRowGo(d, s, n, so, p []float32, cx, cy, cz, cp, amb float32) {
	last := len(s) - 1
	for c, t := range s {
		e, w := s[min(c+1, last)], s[max(c-1, 0)]
		d[c] = t +
			float32(cx*(e+w-float32(2*t))) +
			float32(cy*(n[c]+so[c]-float32(2*t))) +
			float32(cz*(amb-t)) +
			float32(cp*p[c])
	}
}

// Output implements bench.Benchmark.
func (h *HotSpot) Output(dst []float64) bench.Output {
	dst = bench.GrowVals(dst, h.final.Len())
	for i, v := range h.final.Data {
		dst[i] = float64(v)
	}
	return bench.Output{Vals: dst, Shape: h.final.Shape}
}

func init() {
	bench.Register("HotSpot", func(seed uint64) bench.Benchmark {
		return New(DefaultConfig(), seed)
	})
}
