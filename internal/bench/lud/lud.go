// Package lud ports the Rodinia LUD benchmark used by the paper: a blocked,
// in-place LU decomposition of a single-precision matrix (paper §3.2:
// "dense linear algebra like DGEMM ... less memory ... more
// interdependencies").
//
// The decomposition runs the classic three-kernel schedule per block step k:
//
//	diagonal:  factor block (k,k) in place
//	perimeter: update the row panel (k,j) and column panel (i,k), j,i > k
//	internal:  trailing update A(i,j) -= L(i,k)·U(k,j)
//
// Each phase is a tick, so injections land inside specific phases; the
// perimeter phase additionally pushes a registry frame holding the diagonal-
// block temporaries ("temp" region), reproducing the paper's observation
// that faults hit both "the main matrix and the temporary matrices allocated
// during the computation of the decomposition".
package lud

import (
	"fmt"

	"phirel/internal/bench"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// Config sizes the workload.
type Config struct {
	// N is the matrix dimension; must be a multiple of Block.
	N int
	// Block is the block edge.
	Block int
	// Workers is the parallel width for perimeter/internal kernels.
	Workers int
}

// DefaultConfig returns the campaign-scale configuration.
func DefaultConfig() Config { return Config{N: 96, Block: 8, Workers: 4} }

// worker holds per-thread block-cursor control cells.
type worker struct {
	bStart, bEnd, bCur *state.Cell[int]
}

// LUD implements bench.Benchmark.
type LUD struct {
	cfg Config
	reg *state.Registry
	a   *state.Buf[float32]
	a0  []float32

	// Global control cells: matrix size, block size, block count, and the
	// current step. Index arithmetic at phase level reads these, so
	// corrupting them walks the kernels out of bounds or onto wrong tiles.
	nCell, bsCell, nbCell, kCur *state.Cell[int]

	// diaTmp is the perimeter phase's diagonal-block temporary, the one site
	// of the perimeter frame; both are built once, and diaTmp is fully
	// overwritten before each push.
	diaTmp    *state.Buf[float32]
	perimeter *state.Frame

	workers []worker
}

// New builds an LUD instance over a diagonally dominant random matrix
// (blocked LUD runs without pivoting, as Rodinia's does).
func New(cfg Config, seed uint64) *LUD {
	if cfg.N <= 0 || cfg.Block <= 0 || cfg.N%cfg.Block != 0 || cfg.Workers <= 0 {
		panic(fmt.Sprintf("lud: bad config %+v", cfg))
	}
	l := &LUD{cfg: cfg, reg: state.NewRegistry()}
	l.a = state.NewBuf[float32]("A", "matrix", state.Dims2(cfg.N, cfg.N))
	r := stats.NewRNG(seed)
	n := cfg.N
	l.a0 = make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			l.a0[i*n+j] = float32(r.Float64())
		}
		l.a0[i*n+i] += float32(n) // diagonal dominance
	}
	copy(l.a.Data, l.a0)
	l.nCell = state.NewCell("n", "control", cfg.N)
	l.bsCell = state.NewCell("bs", "control", cfg.Block)
	l.nbCell = state.NewCell("nb", "control", cfg.N/cfg.Block)
	l.kCur = state.NewCell("kCur", "control", 0)
	l.diaTmp = state.NewBuf[float32]("diaTmp", "temp", state.Dims2(cfg.Block, cfg.Block))
	l.perimeter = &state.Frame{Name: "perimeter"}
	l.perimeter.Register(l.diaTmp)
	l.reg.Global().Register(l.a, l.nCell, l.bsCell, l.nbCell, l.kCur)
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
func (l *LUD) Name() string { return "LUD" }

// Class implements bench.Benchmark.
func (l *LUD) Class() bench.Class { return bench.Algebraic }

// Windows implements bench.Benchmark (paper: LUD split into 4 windows).
func (l *LUD) Windows() int { return 4 }

// Registry implements bench.Benchmark.
func (l *LUD) Registry() *state.Registry { return l.reg }

// Reset implements bench.Benchmark.
func (l *LUD) Reset() {
	l.reg.PopAll()
	l.reg.DisarmAll()
	copy(l.a.Data, l.a0)
	l.nCell.Store(l.cfg.N)
	l.bsCell.Store(l.cfg.Block)
	l.nbCell.Store(l.cfg.N / l.cfg.Block)
	l.kCur.Store(0)
	for w := range l.workers {
		wk := &l.workers[w]
		wk.bStart.Store(0)
		wk.bEnd.Store(0)
		wk.bCur.Store(0)
	}
}

// Run implements bench.Benchmark: three ticks per block step.
func (l *LUD) Run(ctx *bench.Ctx) { l.steps(ctx, 0) }

// SavePoint implements bench.Resumable. Every block step is a resume point.
// Block rows and columns before the step hold the packed L\U output already,
// so a point keeps the trailing submatrix only (127 KB over the eleven
// points, against 36 KB for every whole matrix), and with it the block
// cursors, which lanes that had no tile in the last phases carry over from
// earlier ones. diaTmp is rewritten before its frame is pushed.
func (l *LUD) SavePoint(tick int) (*bench.Snapshot, bool) {
	if tick%3 != 0 {
		return nil, false
	}
	n, off := l.cfg.N, tick/3*l.cfg.Block
	s := &bench.Snapshot{F32: make([]float32, 0, (n-off)*(n-off))}
	for i := off; i < n; i++ {
		s.F32 = append(s.F32, l.a.Data[i*n+off:(i+1)*n]...)
	}
	for w := range l.workers {
		wk := &l.workers[w]
		s.Int = append(s.Int, int32(wk.bStart.Load()), int32(wk.bEnd.Load()), int32(wk.bCur.Load()))
	}
	return s, true
}

// Resume implements bench.Resumable.
func (l *LUD) Resume(ctx *bench.Ctx, tick int, s *bench.Snapshot, golden bench.Output) {
	n, off := l.cfg.N, tick/3*l.cfg.Block
	for i, v := range golden.Vals {
		l.a.Data[i] = float32(v) // Output widened it; narrowing is exact
	}
	for i := off; i < n; i++ {
		copy(l.a.Data[i*n+off:(i+1)*n], s.F32[(i-off)*(n-off):])
	}
	for w := range l.workers {
		wk := &l.workers[w]
		wk.bStart.Store(int(s.Int[3*w]))
		wk.bEnd.Store(int(s.Int[3*w+1]))
		wk.bCur.Store(int(s.Int[3*w+2]))
	}
	l.steps(ctx, tick/3)
}

// steps runs the block steps from step k on.
func (l *LUD) steps(ctx *bench.Ctx, k int) {
	bs := l.bsCell.Load()
	for l.kCur.Store(k); l.kCur.Load() < l.nbCell.Load(); l.kCur.Add(1) {
		k := l.kCur.Load()
		n := l.nCell.Load()
		nb := l.nbCell.Load()
		l.checkStep(k, n, bs, nb)

		ctx.Tick() // diagonal phase
		ctx.Work(int64(bs)*int64(bs)*int64(bs)/3 + 1)
		l.diagonal(k*bs, bs, n)

		// Perimeter phase: diagonal-block temporaries live in a frame, as
		// the paper's "temporary matrices".
		l.reg.Push(l.perimeter)
		dia := l.diaTmp
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				dia.Set(j, i, 0, l.a.Data[(k*bs+i)*n+k*bs+j])
			}
		}
		ctx.Tick() // perimeter phase
		panels := 2 * (nb - k - 1)
		ctx.Work(int64(panels)*int64(bs)*int64(bs)*int64(bs) + 1)
		if panels > 0 {
			ctx.ParallelFor(l.cfg.Workers, panels, func(w, start, end int) {
				wk := &l.workers[w]
				wk.bStart.Store(start)
				wk.bEnd.Store(end)
				for wk.bCur.Store(wk.bStart.Load()); wk.bCur.Load() < wk.bEnd.Load(); wk.bCur.Add(1) {
					p := wk.bCur.Load()
					// start/end are uncorruptible chunk bounds: a wandering
					// cursor aborts instead of racing another worker's panel.
					if p < start || p >= end {
						panic(fmt.Sprintf("lud: panel %d outside chunk [%d,%d)", p, start, end))
					}
					half := panels / 2
					if p < half {
						l.rowPanel(dia, k, k+1+p, bs, n)
					} else {
						l.colPanel(dia, k, k+1+(p-half), bs, n)
					}
				}
			})
		}
		l.reg.Pop()

		ctx.Tick() // internal phase
		inner := (nb - k - 1) * (nb - k - 1)
		ctx.Work(2*int64(inner)*int64(bs)*int64(bs)*int64(bs) + 1)
		if inner > 0 {
			ctx.ParallelFor(l.cfg.Workers, inner, func(w, start, end int) {
				wk := &l.workers[w]
				wk.bStart.Store(start)
				wk.bEnd.Store(end)
				for wk.bCur.Store(wk.bStart.Load()); wk.bCur.Load() < wk.bEnd.Load(); wk.bCur.Add(1) {
					t := wk.bCur.Load()
					if t < start || t >= end {
						panic(fmt.Sprintf("lud: tile %d outside chunk [%d,%d)", t, start, end))
					}
					side := nb - k - 1
					bi := k + 1 + t/side
					bj := k + 1 + t%side
					l.internal(k, bi, bj, bs, n)
				}
			})
		}
	}
}

// checkStep validates corruptible geometry before using it for indexing, so
// corrupted control cells surface as crashes (like the segfaults CAROL-FI
// logs) rather than silent misindexing — a corrupted block count would
// otherwise alias two workers' tiles onto one block.
func (l *LUD) checkStep(k, n, bs, nb int) {
	if k < 0 || n != l.cfg.N || bs != l.cfg.Block || nb != n/bs || k*bs >= n {
		panic(fmt.Sprintf("lud: corrupted geometry k=%d n=%d bs=%d nb=%d", k, n, bs, nb))
	}
}

// diagonal factors the bs×bs block at (off,off) in place. Here and in the
// panel and internal updates, float32(…) rounds each product before its
// subtraction, so no target fuses the two into one multiply-subtract that
// rounds once (make fusion-check); on amd64 the conversions change nothing.
func (l *LUD) diagonal(off, bs, n int) {
	a := l.a.Data
	for kk := 0; kk < bs; kk++ {
		piv := a[(off+kk)*n+off+kk]
		for i := kk + 1; i < bs; i++ {
			a[(off+i)*n+off+kk] /= piv
			lik := a[(off+i)*n+off+kk]
			for j := kk + 1; j < bs; j++ {
				a[(off+i)*n+off+j] -= float32(lik * a[(off+kk)*n+off+j])
			}
		}
	}
}

// rowPanel computes U(k,j) = L(k,k)⁻¹·A(k,j) using the dia temporary.
func (l *LUD) rowPanel(dia *state.Buf[float32], k, j, bs, n int) {
	a := l.a.Data
	r0, c0 := k*bs, j*bs
	for kk := 0; kk < bs; kk++ {
		for i := kk + 1; i < bs; i++ {
			lik := dia.At(kk, i, 0)
			for c := 0; c < bs; c++ {
				a[(r0+i)*n+c0+c] -= float32(lik * a[(r0+kk)*n+c0+c])
			}
		}
	}
}

// colPanel computes L(i,k) = A(i,k)·U(k,k)⁻¹ using the dia temporary.
func (l *LUD) colPanel(dia *state.Buf[float32], k, i, bs, n int) {
	a := l.a.Data
	r0, c0 := i*bs, k*bs
	for kk := 0; kk < bs; kk++ {
		ukk := dia.At(kk, kk, 0)
		for r := 0; r < bs; r++ {
			a[(r0+r)*n+c0+kk] /= ukk
			lrk := a[(r0+r)*n+c0+kk]
			for c := kk + 1; c < bs; c++ {
				a[(r0+r)*n+c0+c] -= float32(lrk * dia.At(c, kk, 0))
			}
		}
	}
}

// internal applies A(bi,bj) -= L(bi,k)·U(k,bj).
func (l *LUD) internal(k, bi, bj, bs, n int) {
	a := l.a.Data
	li0, u0 := bi*bs, k*bs
	for i := 0; i < bs; i++ {
		for kk := 0; kk < bs; kk++ {
			lik := a[(li0+i)*n+k*bs+kk]
			for j := 0; j < bs; j++ {
				a[(li0+i)*n+bj*bs+j] -= float32(lik * a[(u0+kk)*n+bj*bs+j])
			}
		}
	}
}

// Output implements bench.Benchmark: the packed L\U matrix.
func (l *LUD) Output(dst []float64) bench.Output {
	dst = bench.GrowVals(dst, len(l.a.Data))
	for i, v := range l.a.Data {
		dst[i] = float64(v)
	}
	return bench.Output{Vals: dst, Shape: l.a.Shape}
}

// Size returns the matrix dimension.
func (l *LUD) Size() int { return l.cfg.N }

func init() {
	bench.Register("LUD", func(seed uint64) bench.Benchmark {
		return New(DefaultConfig(), seed)
	})
}
