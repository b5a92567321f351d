// Package nw ports the Rodinia Needleman-Wunsch benchmark used by the
// paper: global alignment of two random residue sequences by dynamic
// programming over an int32 score matrix (paper §3.2: "representative of
// dynamic programming techniques that construct a new output using previous
// results").
//
// NW is the paper's only integer benchmark, which drives its fault-model
// signature: the score matrix is full of zeros and small values, so the
// Zero model is almost always masked, Single flips perturb scores slightly
// (SDCs that survive the max-propagation), and Double/Random create huge
// magnitudes.
//
// As in the real pipeline, the DP interior is scratch: the consumed result
// is the final row/column of scores plus the traceback path, and that is
// what Output exposes for golden comparison. The traceback re-derives each
// step from the stored scores and crashes on an inconsistent cell — which is
// how hugely corrupted values (Double/Random) turn into DUEs ("NW will most
// likely crash when the value is largely different from the expected one",
// paper §6), while small or zero corruptions off the optimal path stay
// masked.
package nw

import (
	"fmt"

	"phirel/internal/bench"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// alphabet is the residue count of the synthetic substitution matrix
// (matches the 24 symbols of BLOSUM-family tables).
const alphabet = 24

// substitution is a fixed BLOSUM-like score table: strong positive on the
// diagonal, mildly negative off-diagonal. Built deterministically once so
// every NW instance agrees.
var substitution = buildSubstitution()

func buildSubstitution() [alphabet][alphabet]int32 {
	r := stats.NewRNG(0xB105)
	var t [alphabet][alphabet]int32
	for i := 0; i < alphabet; i++ {
		for j := i; j < alphabet; j++ {
			var v int32
			if i == j {
				v = int32(5 + r.Intn(5)) // match: +5..+9
			} else {
				v = int32(r.Intn(7)) - 4 // mismatch: -4..+2
			}
			t[i][j], t[j][i] = v, v
		}
	}
	return t
}

// Config sizes the workload.
type Config struct {
	// N is the sequence length; the DP matrix is (N+1)×(N+1).
	N int
	// Penalty is the gap penalty (positive).
	Penalty int
	// Workers is the parallel width across an anti-diagonal.
	Workers int
}

// DefaultConfig returns the campaign-scale configuration.
func DefaultConfig() Config { return Config{N: 160, Penalty: 10, Workers: 4} }

// worker holds per-thread control cells for the anti-diagonal sweep.
type worker [nCells]*state.Cell[int]

// Indices into worker (and chunk's load counts), in registration order.
const (
	cStart = iota
	cEnd
	cCur
	nCells
)

var cellNames = [nCells]string{"cStart", "cEnd", "cCur"}

// NW implements bench.Benchmark.
type NW struct {
	cfg  Config
	reg  *state.Registry
	item *state.Buf[int32] // DP matrix (N+1)×(N+1), region "matrix"
	ref  *state.Buf[int32] // similarity matrix, region "matrix"
	ref0 []int32

	penalty *state.Cell[int] // region "constant"
	diagCur *state.Cell[int] // region "control"

	seqA, seqB []int32 // fixed input sequences (embedded in ref)
	workers    []worker

	// trace holds the traceback directions of the last run: 0 diagonal,
	// 1 left, 2 up, -1 padding.
	trace []int8
}

// New builds an NW instance with deterministic random sequences.
func New(cfg Config, seed uint64) *NW {
	if cfg.N <= 1 || cfg.Penalty <= 0 || cfg.Workers <= 0 {
		panic(fmt.Sprintf("nw: bad config %+v", cfg))
	}
	w := &NW{cfg: cfg, reg: state.NewRegistry()}
	n := cfg.N
	r := stats.NewRNG(seed)
	w.seqA = make([]int32, n)
	w.seqB = make([]int32, n)
	for i := range w.seqA {
		w.seqA[i] = int32(r.Intn(alphabet))
		w.seqB[i] = int32(r.Intn(alphabet))
	}
	shape := state.Dims2(n+1, n+1)
	w.item = state.NewBuf[int32]("itemsets", "matrix", shape)
	w.ref = state.NewBuf[int32]("reference", "matrix", shape)
	w.ref0 = make([]int32, shape.Len())
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			w.ref0[i*(n+1)+j] = substitution[w.seqA[i-1]][w.seqB[j-1]]
		}
	}
	copy(w.ref.Data, w.ref0)
	w.penalty = state.NewCell("penalty", "constant", cfg.Penalty)
	w.diagCur = state.NewCell("diagCur", "control", 0)
	w.reg.Global().Register(w.item, w.ref, w.penalty, w.diagCur)
	w.workers = make([]worker, cfg.Workers)
	for i := range w.workers {
		for k, v := range cellNames {
			c := state.NewCell(fmt.Sprintf("w%d.%s", i, v), "control", 0)
			w.reg.Global().Register(c)
			w.workers[i][k] = c
		}
	}
	w.trace = make([]int8, 2*n+1)
	return w
}

// Name implements bench.Benchmark.
func (w *NW) Name() string { return "NW" }

// Class implements bench.Benchmark.
func (w *NW) Class() bench.Class { return bench.DynProg }

// Windows implements bench.Benchmark (paper: NW split into 4 windows).
func (w *NW) Windows() int { return 4 }

// Registry implements bench.Benchmark.
func (w *NW) Registry() *state.Registry { return w.reg }

// Reset implements bench.Benchmark.
func (w *NW) Reset() {
	w.reg.PopAll()
	w.reg.DisarmAll()
	for i := range w.item.Data {
		w.item.Data[i] = 0
	}
	copy(w.ref.Data, w.ref0)
	w.penalty.Store(w.cfg.Penalty)
	w.diagCur.Store(0)
	for i := range w.workers {
		for _, c := range w.workers[i] {
			c.Store(0)
		}
	}
}

// Run implements bench.Benchmark: one tick per anti-diagonal.
func (w *NW) Run(ctx *bench.Ctx) {
	n := w.cfg.N
	stride := n + 1
	item := w.item.Data
	ref := w.ref.Data

	// Gap initialisation of row 0 and column 0 (part of the measured
	// kernel, as in Rodinia).
	ctx.Tick()
	ctx.Work(int64(2*n) + 1)
	p := int32(w.penalty.Load())
	for i := 1; i <= n; i++ {
		item[i*stride] = -int32(i) * p
		item[i] = -int32(i) * p
	}

	// Anti-diagonal sweep: cells (i,j) with i+j == d are independent.
	for w.diagCur.Store(2); w.diagCur.Load() <= 2*n; w.diagCur.Add(1) {
		d := w.diagCur.Load()
		if d < 2 || d > 2*n {
			panic(fmt.Sprintf("nw: corrupted diagonal %d", d))
		}
		ctx.Tick()
		lo := 1
		if d-n > 1 {
			lo = d - n
		}
		hi := d - 1
		if hi > n {
			hi = n
		}
		count := hi - lo + 1
		if count <= 0 {
			continue
		}
		ctx.Work(int64(count) + 1)
		pen := int32(w.penalty.Load())
		fastSpan := func(start, end int) {
			for c := start; c < end; c++ {
				i := lo + c
				j := d - i
				idx := i*stride + j
				nw := item[idx-stride-1] + ref[idx]
				left := item[idx-1] - pen
				up := item[idx-stride] - pen
				best := nw
				if left > best {
					best = left
				}
				if up > best {
					best = up
				}
				item[idx] = best
			}
		}
		// start/end are uncorruptible chunk bounds: a wandering cursor
		// aborts instead of racing another worker's cells.
		update := func(wk *worker, start, end int) {
			for ; wk[cCur].Load() < wk[cEnd].Load(); wk[cCur].Add(1) {
				c := wk[cCur].Load()
				if c < start || c >= end {
					panic(fmt.Sprintf("nw: cell cursor %d outside chunk [%d,%d)", c, start, end))
				}
				i := lo + c
				j := d - i
				if i < 1 || i > n || j < 1 || j > n {
					panic(fmt.Sprintf("nw: cell (%d,%d) out of range", i, j))
				}
				idx := i*stride + j
				nw := item[idx-stride-1] + ref[idx]
				left := item[idx-1] - pen
				up := item[idx-stride] - pen
				best := nw
				if left > best {
					best = left
				}
				if up > best {
					best = up
				}
				item[idx] = best
			}
		}
		// chunk runs cells [start,end) of the diagonal on one worker. update
		// would Load cEnd once per test and cCur once per test and per body,
		// after startLoads Loads of cStart; when no corruption pending on
		// this worker's cursors can fire within them they are debited and
		// the chunk runs as a plain loop (identical scores, identical final
		// cell state).
		chunk := func(wk *worker, start, end int, startLoads int64) {
			wk[cStart].Store(start)
			wk[cEnd].Store(end)
			span := int64(end - start)
			if ctx.DebitLoads(wk[:], []int64{cStart: startLoads, cEnd: span + 1, cCur: 2*span + 1}) {
				fastSpan(start, end)
				wk[cCur].Store(end)
				return
			}
			cur := start
			if startLoads > 0 {
				cur = wk[cStart].Load()
			}
			wk[cCur].Store(cur)
			update(wk, start, end)
		}
		if count < 32 {
			chunk(&w.workers[0], 0, count, 0)
		} else {
			ctx.ParallelFor(w.cfg.Workers, count, func(wi, start, end int) {
				chunk(&w.workers[wi], start, end, 1)
			})
		}
	}

	// Traceback: walk the optimal alignment from (n,n) to (0,0),
	// re-deriving every step from the stored scores.
	ctx.Tick()
	ctx.Work(int64(2*n) + 1)
	w.traceback(n, stride, item, ref)
}

// traceback fills w.trace. A cell whose stored score matches none of its
// three possible predecessors has been corrupted after it was written; the
// real traceback would follow garbage out of the matrix, which we surface as
// a crash (DUE).
func (w *NW) traceback(n, stride int, item, ref []int32) {
	for i := range w.trace {
		w.trace[i] = -1
	}
	p := int32(w.penalty.Load())
	i, j := n, n
	step := 0
	for i > 0 || j > 0 {
		if step >= len(w.trace) {
			panic("nw: traceback exceeded maximum path length")
		}
		switch {
		case i == 0:
			w.trace[step] = 1
			j--
		case j == 0:
			w.trace[step] = 2
			i--
		default:
			idx := i*stride + j
			cur := item[idx]
			switch {
			case cur == item[idx-stride-1]+ref[idx]:
				w.trace[step] = 0
				i--
				j--
			case cur == item[idx-1]-p:
				w.trace[step] = 1
				j--
			case cur == item[idx-stride]-p:
				w.trace[step] = 2
				i--
			default:
				panic(fmt.Sprintf("nw: traceback inconsistency at (%d,%d)", i, j))
			}
		}
		step++
	}
}

// Output implements bench.Benchmark: the consumed result — final row,
// final column, and traceback directions. Integer scores are exact.
func (w *NW) Output(dst []float64) bench.Output {
	n := w.cfg.N
	stride := n + 1
	out := bench.GrowVals(dst, 2*stride+len(w.trace))[:0]
	for j := 0; j < stride; j++ { // final row
		out = append(out, float64(w.item.Data[n*stride+j]))
	}
	for i := 0; i < stride; i++ { // final column
		out = append(out, float64(w.item.Data[i*stride+n]))
	}
	for _, d := range w.trace {
		out = append(out, float64(d))
	}
	return bench.Output{Vals: out, Shape: state.Dims1(len(out)), Exact: true}
}

func init() {
	bench.Register("NW", func(seed uint64) bench.Benchmark {
		return New(DefaultConfig(), seed)
	})
}
