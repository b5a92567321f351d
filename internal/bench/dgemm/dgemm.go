// Package dgemm ports the paper's DGEMM benchmark: a blocked, parallel
// double-precision matrix multiplication C = A×B (paper §3.2: "an optimized
// version of a matrix multiplication algorithm ... compute-bound program
// often used to rank supercomputers").
//
// Injectable structure mirrors the paper's analysis targets:
//
//   - the three matrices A, B, C (region "matrix");
//   - nine integer loop-control variables *per worker* (region "control"):
//     block starts/ends and running indices for the i/j/k loop nest. The
//     paper stresses that each of the 228 hardware threads keeps its own
//     copy of these nine variables, which multiplies their memory footprint
//     and hence their share of injections under the by-bytes policy.
package dgemm

import (
	"fmt"
	"math"

	"phirel/internal/bench"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// Config sizes the workload.
type Config struct {
	// N is the matrix dimension (N×N).
	N int
	// Block is the tile edge for the blocked loops.
	Block int
	// Workers is the parallel width (the Xeon Phi ran 228 threads; the port
	// defaults to a small pool and scales the per-worker control variables
	// with it).
	Workers int
}

// DefaultConfig returns the campaign-scale configuration (~1 ms per run).
func DefaultConfig() Config { return Config{N: 96, Block: 16, Workers: 4} }

// worker holds the nine per-thread loop-control variables the paper calls
// out. They are genuinely load-bearing: the loops below read bounds and
// indices through these cells, so corrupting one skips work, repeats work,
// overwrites other tiles, walks out of bounds (DUE-crash) or spins into the
// watchdog (DUE-hang).
type worker [nCells]*state.Cell[int]

// Indices into worker (and tileLoads), in registration order.
const (
	iStart = iota
	iEnd
	iCur
	jStart
	jEnd
	jCur
	kStart
	kEnd
	kCur
	nCells
)

var cellNames = [nCells]string{"iStart", "iEnd", "iCur", "jStart", "jEnd", "jCur", "kStart", "kEnd", "kCur"}

// DGEMM implements bench.Benchmark.
type DGEMM struct {
	cfg     Config
	reg     *state.Registry
	a, b, c *state.Buf[float64]
	a0, b0  []float64 // pristine inputs for Reset
	// bt shadows B transposed so the plain loop's k-loop streams both
	// operands sequentially. Refreshed from B each section (B may have been
	// corrupted at the preceding tick); never read by the cell-driven loop.
	bt      []float64
	workers []worker
}

// New builds a DGEMM instance with deterministic pseudo-random inputs.
func New(cfg Config, seed uint64) *DGEMM {
	if cfg.N <= 0 || cfg.Block <= 0 || cfg.Workers <= 0 {
		panic(fmt.Sprintf("dgemm: bad config %+v", cfg))
	}
	d := &DGEMM{cfg: cfg, reg: state.NewRegistry()}
	shape := state.Dims2(cfg.N, cfg.N)
	d.a = state.NewBuf[float64]("A", "matrix", shape)
	d.b = state.NewBuf[float64]("B", "matrix", shape)
	d.c = state.NewBuf[float64]("C", "matrix", shape)
	r := stats.NewRNG(seed)
	for i := range d.a.Data {
		d.a.Data[i] = 2*r.Float64() - 1
		d.b.Data[i] = 2*r.Float64() - 1
	}
	d.a0 = append([]float64(nil), d.a.Data...)
	d.b0 = append([]float64(nil), d.b.Data...)
	d.bt = make([]float64, cfg.N*cfg.N)
	d.reg.Global().Register(d.a, d.b, d.c)
	d.workers = make([]worker, cfg.Workers)
	for w := range d.workers {
		for i, v := range cellNames {
			c := state.NewCell(fmt.Sprintf("w%d.%s", w, v), "control", 0)
			d.reg.Global().Register(c)
			d.workers[w][i] = c
		}
	}
	return d
}

// Name implements bench.Benchmark.
func (d *DGEMM) Name() string { return "DGEMM" }

// Class implements bench.Benchmark.
func (d *DGEMM) Class() bench.Class { return bench.Algebraic }

// Windows implements bench.Benchmark (paper: DGEMM split into 5 windows).
func (d *DGEMM) Windows() int { return 5 }

// Registry implements bench.Benchmark.
func (d *DGEMM) Registry() *state.Registry { return d.reg }

// Reset implements bench.Benchmark.
func (d *DGEMM) Reset() {
	d.reg.PopAll()
	d.reg.DisarmAll()
	copy(d.a.Data, d.a0)
	copy(d.b.Data, d.b0)
	for i := range d.c.Data {
		d.c.Data[i] = 0
	}
	for w := range d.workers {
		for _, c := range d.workers[w] {
			c.Store(0)
		}
	}
}

// Run implements bench.Benchmark. The row-block loop is the tick axis: one
// tick per block row, so injections land uniformly over execution time and
// window attribution is meaningful.
func (d *DGEMM) Run(ctx *bench.Ctx) { d.rowBlocks(ctx, 0) }

// SavePoint implements bench.Resumable. Every row block is a resume point
// and none stores anything: a block row of C is written by its own
// iteration only, so C at a tick is a prefix of the golden output over
// zeros, and the cursors are where the previous block row's last tiles left
// them. bt is refreshed after every tick and is no part of the state.
func (d *DGEMM) SavePoint(int) (*bench.Snapshot, bool) { return nil, true }

// Resume implements bench.Resumable.
func (d *DGEMM) Resume(ctx *bench.Ctx, tick int, _ *bench.Snapshot, golden bench.Output) {
	n, bs := d.cfg.N, d.cfg.Block
	i1 := tick * bs // the block rows above are done
	copy(d.c.Data[:i1*n], golden.Vals)
	ctx.ParallelFor(d.cfg.Workers, (n+bs-1)/bs, func(w, _, endCol int) {
		j0 := (endCol - 1) * bs // the lane's last tile of the block row above
		j1 := min(j0+bs, n)
		for c, v := range [nCells]int{
			iStart: i1 - bs, iEnd: i1, iCur: i1,
			jStart: j0, jEnd: j1, jCur: j1,
			kStart: 0, kEnd: n, kCur: n,
		} {
			d.workers[w][c].Store(v)
		}
	})
	d.rowBlocks(ctx, i1)
}

// Converged implements bench.Convergent. The block rows from tick on read
// their own rows of A, which must be Reset's, and of C, which must be +0 as
// Reset left them, and all of B. The rows of C before the tick, which the
// rest never writes, are kept as they are. Left out: A's rows before the
// tick, which no later block row reads, bt, which every tick refreshes
// before reading it, and the workers' cells, whose bounds and cursors every
// tile stores before it reads them.
func (d *DGEMM) Converged(tick int, _ *bench.Snapshot, _ bench.Output) (kept int, ok bool) {
	i0 := tick * d.cfg.Block * d.cfg.N
	if !bench.SameBits(d.b.Data, d.b0) || !bench.SameBits(d.a.Data[i0:], d.a0[i0:]) {
		return i0, false
	}
	for _, v := range d.c.Data[i0:] {
		if math.Float64bits(v) != 0 {
			return i0, false
		}
	}
	return i0, true
}

// rowBlocks runs the block rows from row ib on.
func (d *DGEMM) rowBlocks(ctx *bench.Ctx, ib int) {
	n, bs := d.cfg.N, d.cfg.Block
	for ; ib < n; ib += bs {
		ctx.Tick()
		// Refresh the transposed shadow of B: the tick above may have
		// corrupted B in place (buffer faults are immediate).
		bd := d.b.Data
		for k := 0; k < n; k++ {
			row := bd[k*n : k*n+n]
			for j, v := range row {
				d.bt[j*n+k] = v
			}
		}
		// Parallelise over the column blocks of this row block; each worker
		// walks its own block range through its own control cells.
		nCols := (n + bs - 1) / bs
		ctx.ParallelFor(d.cfg.Workers, nCols, func(w, startCol, endCol int) {
			for jb := startCol * bs; jb < endCol*bs && jb < n; jb += bs {
				d.tile(ctx, w, ib, jb, min(ib+bs, n), min(jb+bs, n))
			}
		})
	}
}

// tileLoads is how many Loads the cell-driven loops of tile perform on each
// of a worker's cells for uncorrupted spans I×J×K: each bound is read once by
// the span check and once per entry (start) or per test (end) of its loop,
// each cursor once per test and once per body.
func tileLoads(I, J, K int64) [nCells]int64 {
	return [nCells]int64{
		iStart: 2, iEnd: I + 2, iCur: 2*I + 1,
		jStart: I + 1, jEnd: I*(J+1) + 1, jCur: I * (2*J + 1),
		kStart: I*J + 1, kEnd: I*J*(K+1) + 1, kCur: I * J * (2*K + 1),
	}
}

// tile computes C[i0:i1, j0:j1] += A[i0:i1, :]·B[:, j0:j1] with every loop
// driven by corruptible control cells. When no corruption pending on this
// lane's cells can fire within the tile, its loads are debited from the
// countdowns and the cell-driven loops are replaced by plain ones with
// identical arithmetic, work accounting, and final cell state: an armed,
// unfired cell reads as what was last stored, so the corruption later fires
// on the same load with the same value as if every load had been performed.
func (d *DGEMM) tile(ctx *bench.Ctx, w int, i0, j0, i1, j1 int) {
	wk := &d.workers[w]
	n := d.cfg.N
	a, b, c := d.a.Data, d.b.Data, d.c.Data
	wk[iStart].Store(i0)
	wk[iEnd].Store(i1)
	wk[jStart].Store(j0)
	wk[jEnd].Store(j1)
	wk[kStart].Store(0)
	wk[kEnd].Store(n)

	loads := tileLoads(int64(i1-i0), int64(j1-j0), int64(n))
	if ctx.DebitLoads(wk[:], loads[:]) {
		ctx.WorkLane(w, int64(i1-i0)*int64(j1-j0)*int64(n)+1)
		for i := i0; i < i1; i++ {
			ar := a[i*n : i*n+n]
			cr := c[i*n : i*n+n]
			// The cell-driven loop's multiplies and adds, each sum in the
			// same k order, for four columns per pass: the four add chains
			// overlap and every value keeps its bits. bt streams B's
			// columns. float64(x*y) rounds each product before its add, as
			// the language requires of an explicit conversion, so no
			// architecture fuses the two (make fusion-check).
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0, b1, b2, b3 := d.bt[j*n:][:n], d.bt[(j+1)*n:][:n], d.bt[(j+2)*n:][:n], d.bt[(j+3)*n:][:n]
				var s0, s1, s2, s3 float64
				for k, x := range ar {
					s0 += float64(x * b0[k])
					s1 += float64(x * b1[k])
					s2 += float64(x * b2[k])
					s3 += float64(x * b3[k])
				}
				cr[j] += s0
				cr[j+1] += s1
				cr[j+2] += s2
				cr[j+3] += s3
			}
			for ; j < j1; j++ {
				bj := d.bt[j*n:][:n]
				sum := 0.0
				for k, x := range ar {
					sum += float64(x * bj[k])
				}
				cr[j] += sum
			}
		}
		// Leave the cursors exactly as the cell-driven loops would.
		wk[iCur].Store(i1)
		wk[jCur].Store(j1)
		wk[kCur].Store(n)
		return
	}

	iSpan := int64(wk[iEnd].Load() - wk[iStart].Load())
	jSpan := int64(wk[jEnd].Load() - wk[jStart].Load())
	kSpan := int64(wk[kEnd].Load() - wk[kStart].Load())
	if iSpan < 0 || jSpan < 0 || kSpan < 0 {
		// A corrupted bound can invert a range; the real code would simply
		// not enter the loop.
		return
	}
	ctx.WorkLane(w, iSpan*jSpan*kSpan+1)

	for wk[iCur].Store(wk[iStart].Load()); wk[iCur].Load() < wk[iEnd].Load(); wk[iCur].Add(1) {
		i := wk[iCur].Load()
		for wk[jCur].Store(wk[jStart].Load()); wk[jCur].Load() < wk[jEnd].Load(); wk[jCur].Add(1) {
			j := wk[jCur].Load()
			sum := 0.0
			for wk[kCur].Store(wk[kStart].Load()); wk[kCur].Load() < wk[kEnd].Load(); wk[kCur].Add(1) {
				k := wk[kCur].Load()
				sum += float64(a[i*n+k] * b[k*n+j]) // rounded: never fused
			}
			// Corrupted cursors wandering outside this worker's tile would
			// stomp another thread's output; abort at the boundary (the
			// tile bounds are uncorruptible locals, keeping writes disjoint).
			if i < i0 || i >= i1 || j < j0 || j >= j1 {
				panic(fmt.Sprintf("dgemm: write (%d,%d) outside tile [%d,%d)x[%d,%d)", i, j, i0, i1, j0, j1))
			}
			c[i*n+j] += sum
		}
	}
}

// Output implements bench.Benchmark.
func (d *DGEMM) Output() bench.Output { return d.OutputInto(nil) }

// OutputInto implements bench.OutputInto.
func (d *DGEMM) OutputInto(dst []float64) bench.Output {
	dst = bench.GrowVals(dst, len(d.c.Data))
	copy(dst, d.c.Data)
	return bench.Output{Vals: dst, Shape: d.c.Shape}
}

// A exposes the input matrix for mitigation tests (ABFT wraps DGEMM).
func (d *DGEMM) A() *state.Buf[float64] { return d.a }

// B exposes the input matrix for mitigation tests.
func (d *DGEMM) B() *state.Buf[float64] { return d.b }

// C exposes the output matrix for mitigation tests.
func (d *DGEMM) C() *state.Buf[float64] { return d.c }

// Size returns the matrix dimension.
func (d *DGEMM) Size() int { return d.cfg.N }

func init() {
	bench.Register("DGEMM", func(seed uint64) bench.Benchmark {
		return New(DefaultConfig(), seed)
	})
}
