package clamr

import (
	"fmt"
	"math/bits"

	"phirel/internal/bench"
)

// quadtree locates cells by Morton key. It is rebuilt every step by
// recursive bisection of the Z-sorted key array — the structure the paper's
// "Tree" criticality region corresponds to. All node arrays are injectable
// while the tree frame is live.
type quadtree struct {
	lo    []int // node key-range start
	size  []int // node key-range width
	child []int // 4 per node; -1 = none
	cell  []int // leaf: cell index; -1 = internal or invalid
	keys  []int // per-cell Morton keys of the current step
	n     int   // allocated node count
	root  int
}

func (q *quadtree) init(capCells int) {
	maxNodes := 2*capCells + 64
	q.lo = make([]int, maxNodes)
	q.size = make([]int, maxNodes)
	q.child = make([]int, 4*maxNodes)
	q.cell = make([]int, maxNodes)
	q.keys = make([]int, capCells)
}

func (q *quadtree) alloc(lo, size int) int {
	if q.n >= len(q.lo) {
		panic("clamr: quadtree overflow")
	}
	idx := q.n
	q.n++
	q.lo[idx] = lo
	q.size[idx] = size
	q.cell[idx] = -1
	for c := 0; c < 4; c++ {
		q.child[4*idx+c] = -1
	}
	return idx
}

// build constructs the tree over cells [ilo,ihi) covering key range
// [a,a+size). The cells must be Z-sorted; a corrupted sort breaks the
// bisection invariants and surfaces as invalid leaves, which queries turn
// into aborts.
func (q *quadtree) build(cov func(int) int, a, size, ilo, ihi int) int {
	idx := q.alloc(a, size)
	count := ihi - ilo
	if count == 0 {
		return idx // empty: queries landing here abort
	}
	if count == 1 && q.keys[ilo] == a && cov(ilo) == size {
		q.cell[idx] = ilo
		return idx
	}
	if size <= 1 {
		return idx // inconsistent (duplicate or mis-keyed cells)
	}
	quarter := size / 4
	pos := ilo
	for ch := 0; ch < 4; ch++ {
		qa := a + ch*quarter
		qb := qa + quarter
		end := pos
		for end < ihi && q.keys[end] < qb {
			end++
		}
		q.child[4*idx+ch] = q.build(cov, qa, quarter, pos, end)
		pos = end
	}
	return idx
}

// query descends to the leaf containing key and returns its cell index.
// Guards convert corrupted node arrays (cycles, wild links, empty leaves)
// into deterministic aborts — the paper's Tree-region DUEs.
func (q *quadtree) query(key int) int {
	node := q.root
	for steps := 0; ; steps++ {
		if steps > 64 {
			panic("clamr: quadtree traversal diverged")
		}
		if node < 0 || node >= q.n {
			panic(fmt.Sprintf("clamr: quadtree link %d out of range", node))
		}
		if c := q.cell[node]; c >= 0 {
			return c
		}
		size := q.size[node]
		if size < 4 {
			panic("clamr: quadtree leaf without cell")
		}
		off := key - q.lo[node]
		if off < 0 || off >= size {
			panic(fmt.Sprintf("clamr: key %d outside node range", key))
		}
		// Quarter widths are powers of two on every tree build ever produces,
		// where the hot division is a shift; the division stays as the
		// fallback so corrupted node sizes keep their exact old behaviour.
		quarter := size >> 2
		var ch int
		if quarter&(quarter-1) == 0 {
			ch = off >> uint(bits.Len(uint(quarter))-1)
		} else {
			ch = off / quarter
		}
		node = q.child[4*node+ch]
	}
}

// treePhase rebuilds the quadtree and resolves the four face neighbours of
// every cell. Node arrays and keys are live in the "tree" frame for the
// duration of the phase.
func (c *CLAMR) treePhase(ctx *bench.Ctx, n int) {
	c.reg.Push(c.treeFrame)
	q := &c.qt
	q.n = 0
	for i := 0; i < n; i++ {
		q.keys[i] = c.key(i)
	}
	ctx.Work(int64(n)*30 + 1)
	domain := c.fine * c.fine
	q.root = q.build(c.coverage, 0, domain, 0, n)
	// The phase tick fires after the build, when the node arrays are live
	// and about to be consumed by every neighbour query — the state a
	// GDB interrupt would find for most of the phase's duration.
	ctx.Tick()

	// Neighbour resolution, parallel over cells. The live cell count is read
	// once here, before the lanes: ncell is armable and a pending corruption
	// counts Loads, so where it is read is part of every CLAMR record.
	live := c.ncell.Load()
	// Nothing armed ⇒ nothing fires mid-phase; plain neighbour loop with
	// identical queries and section-final cursor state.
	fast := !c.reg.AnyArmed()
	ctx.ParallelFor(c.cfg.Workers, n, func(w, start, end int) {
		wk := &c.workers[w]
		wk.cStart.Store(start)
		wk.cEnd.Store(end)
		if fast {
			for i := start; i < end; i++ {
				c.findNeighbours(i, live)
			}
			wk.cCur.Store(end)
			return
		}
		for wk.cCur.Store(wk.cStart.Load()); wk.cCur.Load() < wk.cEnd.Load(); wk.cCur.Add(1) {
			i := wk.cCur.Load()
			// start/end are uncorruptible chunk bounds: a wandering cursor
			// aborts instead of racing another worker's neighbour slots.
			if i < start || i >= end {
				panic(fmt.Sprintf("clamr: neighbour cursor %d outside chunk [%d,%d)", i, start, end))
			}
			c.findNeighbours(i, live)
		}
	})
	c.reg.Pop()
}

// findNeighbours fills nbE/W/N/S for cell i (-1 = domain boundary). Every
// query result is validated against the cell's actual extent; a mismatch
// means mesh or tree corruption and aborts, as the real code's neighbour
// consistency checks do.
func (c *CLAMR) findNeighbours(i, live int) {
	lev := c.clev.Data[i]
	if lev < 0 || lev > c.cfg.MaxLevel {
		panic(fmt.Sprintf("clamr: corrupted cell level %d", lev))
	}
	size := 1 << (c.cfg.MaxLevel - lev)
	x0, y0 := c.ci.Data[i]*size, c.cj.Data[i]*size
	c.nbE.Data[i] = c.locate(x0+size, y0, live)
	c.nbW.Data[i] = c.locate(x0-1, y0, live)
	c.nbN.Data[i] = c.locate(x0, y0+size, live)
	c.nbS.Data[i] = c.locate(x0, y0-1, live)
}

// locate returns the cell containing fine coordinate (x,y), or -1 outside
// the domain. live is the cell count read at phase start (see treePhase).
func (c *CLAMR) locate(x, y, live int) int {
	if x < 0 || x >= c.fine || y < 0 || y >= c.fine {
		return -1
	}
	idx := c.qt.query(morton(x, y))
	if idx < 0 || idx >= live {
		panic(fmt.Sprintf("clamr: quadtree returned cell %d of %d", idx, live))
	}
	lev := c.clev.Data[idx]
	if lev < 0 || lev > c.cfg.MaxLevel {
		panic(fmt.Sprintf("clamr: neighbour has corrupted level %d", lev))
	}
	sz := 1 << (c.cfg.MaxLevel - lev)
	cx, cy := c.ci.Data[idx]*sz, c.cj.Data[idx]*sz
	if x < cx || x >= cx+sz || y < cy || y >= cy+sz {
		panic(fmt.Sprintf("clamr: inconsistent neighbour for (%d,%d)", x, y))
	}
	return idx
}
