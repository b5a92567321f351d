// Package lavamd ports the Rodinia LavaMD benchmark used by the paper: an
// N-body kernel that computes particle forces within a cut-off
// neighbourhood over a 3-D grid of boxes (paper §3.2).
//
// Injectable structure mirrors the paper's criticality findings: the
// particle position array ("distance" region) and charge array ("charge"
// region) dominate the footprint — the paper attributes 57 % of LavaMD's
// SDCs and 11 % of its DUEs to them — while the box neighbour list and
// per-worker cursors supply the crash paths. The output force array is the
// only three-dimensional output in the suite, which is why LavaMD is the
// only benchmark that can exhibit the paper's "cubic" error pattern.
package lavamd

import (
	"fmt"
	"slices"

	"phirel/internal/bench"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// Config sizes the workload.
type Config struct {
	// NB is the box-grid edge (NB³ boxes).
	NB int
	// PPB is the particle count per box.
	PPB int
	// Alpha is the interaction range parameter (a2 = 2α²).
	Alpha float64
	// Workers is the parallel width across a row of boxes.
	Workers int
}

// DefaultConfig returns the campaign-scale configuration.
func DefaultConfig() Config { return Config{NB: 4, PPB: 12, Alpha: 0.5, Workers: 4} }

// worker holds per-thread control cells.
type worker struct {
	bStart, bEnd, bCur *state.Cell[int]
}

// LavaMD implements bench.Benchmark.
type LavaMD struct {
	cfg Config
	reg *state.Registry

	rv *state.Buf[float64] // particle positions x,y,z — region "distance"
	qv *state.Buf[float64] // particle charges — region "charge"
	fv *state.Buf[float64] // output forces v,x,y,z — region "output"
	nn *state.Buf[int]     // box neighbour list — region "box"

	rv0 []float64
	qv0 []float64
	nn0 []int

	a2       *state.Cell[float64] // interaction constant — region "constant"
	boxesEnd *state.Cell[int]     // region "control"

	workers []worker
}

// boxCount returns NB³.
func (l *LavaMD) boxCount() int { return l.cfg.NB * l.cfg.NB * l.cfg.NB }

// New builds a LavaMD instance with deterministic particle placement.
func New(cfg Config, seed uint64) *LavaMD {
	if cfg.NB <= 1 || cfg.PPB <= 0 || cfg.Workers <= 0 || cfg.Alpha <= 0 {
		panic(fmt.Sprintf("lavamd: bad config %+v", cfg))
	}
	l := &LavaMD{cfg: cfg, reg: state.NewRegistry()}
	nb, ppb := cfg.NB, cfg.PPB
	n := nb * nb * nb * ppb
	l.rv = state.NewBuf[float64]("rv", "distance", state.Dims1(3*n))
	l.qv = state.NewBuf[float64]("qv", "charge", state.Dims1(n))
	l.fv = state.NewBuf[float64]("fv", "output", state.Dims3(4*ppb*nb, nb, nb))
	r := stats.NewRNG(seed)
	for bz := 0; bz < nb; bz++ {
		for by := 0; by < nb; by++ {
			for bx := 0; bx < nb; bx++ {
				b := (bz*nb+by)*nb + bx
				for p := 0; p < ppb; p++ {
					i := b*ppb + p
					l.rv.Data[3*i+0] = float64(bx) + r.Float64()
					l.rv.Data[3*i+1] = float64(by) + r.Float64()
					l.rv.Data[3*i+2] = float64(bz) + r.Float64()
					l.qv.Data[i] = r.Float64()
				}
			}
		}
	}
	// Precomputed neighbour list: up to 27 box indices per box, -1 padded
	// at clamped grid edges (as Rodinia's box_cpu neighbour records).
	l.nn = state.NewBuf[int]("boxnn", "box", state.Dims1(27*l.boxCount()))
	for b := 0; b < l.boxCount(); b++ {
		bx := b % nb
		by := (b / nb) % nb
		bz := b / (nb * nb)
		k := 0
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					x, y, z := bx+dx, by+dy, bz+dz
					idx := -1
					if x >= 0 && x < nb && y >= 0 && y < nb && z >= 0 && z < nb {
						idx = (z*nb+y)*nb + x
					}
					l.nn.Data[27*b+k] = idx
					k++
				}
			}
		}
	}
	l.rv0 = append([]float64(nil), l.rv.Data...)
	l.qv0 = append([]float64(nil), l.qv.Data...)
	l.nn0 = append([]int(nil), l.nn.Data...)
	l.a2 = state.NewCell[float64]("a2", "constant", 2*cfg.Alpha*cfg.Alpha)
	l.boxesEnd = state.NewCell("boxesEnd", "control", l.boxCount())
	l.reg.Global().Register(l.rv, l.qv, l.fv, l.nn, l.a2, l.boxesEnd)
	l.workers = make([]worker, cfg.Workers)
	for w := range l.workers {
		wk := &l.workers[w]
		mk := func(v string) *state.Cell[int] {
			c := state.NewCell(fmt.Sprintf("w%d.%s", w, v), "control", 0)
			l.reg.Global().Register(c)
			return c
		}
		wk.bStart, wk.bEnd, wk.bCur = mk("bStart"), mk("bEnd"), mk("bCur")
	}
	return l
}

// Name implements bench.Benchmark.
func (l *LavaMD) Name() string { return "LavaMD" }

// Class implements bench.Benchmark.
func (l *LavaMD) Class() bench.Class { return bench.NBody }

// Windows implements bench.Benchmark. The paper does not give LavaMD a
// window split (its sensitivity is flat); five windows match DGEMM/HotSpot.
func (l *LavaMD) Windows() int { return 5 }

// Registry implements bench.Benchmark.
func (l *LavaMD) Registry() *state.Registry { return l.reg }

// Reset implements bench.Benchmark.
func (l *LavaMD) Reset() {
	l.reg.PopAll()
	l.reg.DisarmAll()
	copy(l.rv.Data, l.rv0)
	copy(l.qv.Data, l.qv0)
	copy(l.nn.Data, l.nn0)
	for i := range l.fv.Data {
		l.fv.Data[i] = 0
	}
	l.a2.Store(2 * l.cfg.Alpha * l.cfg.Alpha)
	l.boxesEnd.Store(l.boxCount())
	for w := range l.workers {
		wk := &l.workers[w]
		wk.bStart.Store(0)
		wk.bEnd.Store(0)
		wk.bCur.Store(0)
	}
}

// Run implements bench.Benchmark: one tick per row of boxes (NB² ticks).
func (l *LavaMD) Run(ctx *bench.Ctx) { l.rows(ctx, 0) }

// SavePoint implements bench.Resumable. Every row of boxes is a resume
// point and none stores anything: a box's forces are written by its own row
// only, so fv at a tick is a prefix of the golden output over zeros, and the
// cursors are where the row before left them.
func (l *LavaMD) SavePoint(int) (*bench.Snapshot, bool) { return nil, true }

// Resume implements bench.Resumable.
func (l *LavaMD) Resume(ctx *bench.Ctx, tick int, _ *bench.Snapshot, golden bench.Output) {
	rowBoxes := l.cfg.NB
	done := tick * rowBoxes // boxes of the rows before
	copy(l.fv.Data[:4*l.cfg.PPB*done], golden.Vals)
	ctx.ParallelFor(l.cfg.Workers, rowBoxes, func(w, start, end int) {
		wk := &l.workers[w]
		wk.bStart.Store(done - rowBoxes + start)
		wk.bEnd.Store(done - rowBoxes + end)
		wk.bCur.Store(done - rowBoxes + end)
	})
	l.rows(ctx, tick)
}

// Converged implements bench.Convergent. The rows from tick on read a2, the
// neighbour lists of their own boxes and the particles of those boxes'
// neighbours, which lie at most one plane and one row of boxes back; those
// must be Reset's. The forces of the rows before, which the rest never
// writes, are kept as they are. Left out: the forces from the tick on and
// the workers' cursors, which each row writes before it reads them, the
// inputs no later row reads, and boxesEnd, which is read once, before
// tick 0.
func (l *LavaMD) Converged(tick int, _ *bench.Snapshot, _ bench.Output) (kept int, ok bool) {
	nb, ppb := l.cfg.NB, l.cfg.PPB
	done := tick * nb                     // boxes of the rows before
	first := max(0, (tick-nb-1)*nb) * ppb // the first particle a later row reads
	return 4 * ppb * done, l.a2.Load() == 2*l.cfg.Alpha*l.cfg.Alpha &&
		slices.Equal(l.nn.Data[27*done:], l.nn0[27*done:]) &&
		bench.SameBits(l.rv.Data[3*first:], l.rv0[3*first:]) && bench.SameBits(l.qv.Data[first:], l.qv0[first:])
}

// rows runs the rows of boxes from row on.
func (l *LavaMD) rows(ctx *bench.Ctx, row int) {
	nb, ppb := l.cfg.NB, l.cfg.PPB
	rowBoxes := nb
	rows := l.boxesEnd.Load() / rowBoxes
	if rows < 0 || rows > nb*nb*4 {
		panic(fmt.Sprintf("lavamd: corrupted box count %d", rows*rowBoxes))
	}
	for ; row < rows; row++ {
		ctx.Tick()
		ctx.Work(int64(rowBoxes)*int64(ppb)*27*int64(ppb) + 1)
		// One read of the (armable) potential parameter per row, before the
		// lanes: a pending corruption counts Loads, so where this cell is
		// read is part of every LavaMD record.
		a2 := l.a2.Load()
		// Nothing armed ⇒ nothing fires mid-section; plain box loop with
		// identical per-box calls and section-final cursor state.
		fast := !l.reg.AnyArmed()
		ctx.ParallelFor(l.cfg.Workers, rowBoxes, func(w, start, end int) {
			wk := &l.workers[w]
			wk.bStart.Store(row*rowBoxes + start)
			wk.bEnd.Store(row*rowBoxes + end)
			lo, hi := row*rowBoxes+start, row*rowBoxes+end
			if fast {
				for b := lo; b < hi; b++ {
					l.box(b, ppb, a2)
				}
				wk.bCur.Store(hi)
				return
			}
			for wk.bCur.Store(lo); wk.bCur.Load() < wk.bEnd.Load(); wk.bCur.Add(1) {
				b := wk.bCur.Load()
				// lo/hi are uncorruptible chunk bounds: a wandering cursor
				// aborts instead of racing another worker's force outputs.
				if b < lo || b >= hi {
					panic(fmt.Sprintf("lavamd: box %d outside chunk [%d,%d)", b, lo, hi))
				}
				l.box(b, ppb, a2)
			}
		})
	}
}

// boxGo accumulates forces for particles from to ppb−1 of home box b
// against all particles of its neighbour boxes (Rodinia's kernel formula),
// one particle after the other, each pair in neighbour order. box, which
// every path of rows calls, is boxGo everywhere but amd64, where the SSE2
// pair loop computes two particles at once and is held to boxGo's bits
// (TestBoxMatchesGo). a2 is the potential parameter read once per row,
// before the lanes.
func (l *LavaMD) boxGo(b, from, ppb int, a2 float64) {
	rv, qv, fv, nn := l.rv.Data, l.qv.Data, l.fv.Data, l.nn.Data
	for p := from; p < ppb; p++ {
		i := b*ppb + p
		xi, yi, zi := rv[3*i], rv[3*i+1], rv[3*i+2]
		var f [4]float64 // fvV, fvX, fvY, fvZ
		for k := 0; k < 27; k++ {
			nbIdx := nn[27*b+k]
			if nbIdx < 0 {
				continue // clamped edge
			}
			for q := 0; q < ppb; q++ {
				j := nbIdx*ppb + q
				interact(&f, xi, yi, zi, rv[3*j], rv[3*j+1], rv[3*j+2], qv[j], a2)
			}
		}
		copy(fv[4*i:4*i+4], f[:])
	}
}

// interact adds to f, the potential and force of the particle at (xi, yi,
// zi), the contribution of a particle at (xj, yj, zj) with charge qj.
// float64(…) rounds each product before its sum, so no target fuses the two
// into one multiply-add that rounds once (make fusion-check); on amd64 the
// conversions change nothing. The exp is stats.Exp, whose bits are the same
// on every host. It is never inlined, so every pair the Go code computes,
// in boxGo and in amd64's box alike, runs the same instructions: which of
// two NaNs an add returns depends on the registers the compiler chose.
//
//go:noinline
func interact(f *[4]float64, xi, yi, zi, xj, yj, zj, qj, a2 float64) {
	dx := xi - xj
	dy := yi - yj
	dz := zi - zj
	r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
	u2 := a2 * r2
	vij := stats.Exp(-u2)
	fs := 2 * a2 * vij
	f[0] += float64(qj * vij)
	f[1] += float64(qj * fs * dx)
	f[2] += float64(qj * fs * dy)
	f[3] += float64(qj * fs * dz)
}

// Output implements bench.Benchmark: per-particle force 4-vectors with the
// box grid's 3-D shape.
func (l *LavaMD) Output() bench.Output { return l.OutputInto(nil) }

// OutputInto implements bench.OutputInto.
func (l *LavaMD) OutputInto(dst []float64) bench.Output {
	dst = bench.GrowVals(dst, len(l.fv.Data))
	copy(dst, l.fv.Data)
	return bench.Output{Vals: dst, Shape: l.fv.Shape}
}

func init() {
	bench.Register("LavaMD", func(seed uint64) bench.Benchmark {
		return New(DefaultConfig(), seed)
	})
}
