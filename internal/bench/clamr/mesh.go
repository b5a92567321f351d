package clamr

import (
	"fmt"
	"slices"

	"phirel/internal/bench"
	"phirel/internal/state"
)

// morton interleaves the bits of x (even positions) and y (odd positions).
// Coordinates are fine-grid cell indices, well below 2^16.
func morton(x, y int) int {
	return spread(x) | spread(y)<<1
}

func spread(v int) int {
	x := v & 0xffff
	x = (x | x<<8) & 0x00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f
	x = (x | x<<2) & 0x33333333
	x = (x | x<<1) & 0x55555555
	return x
}

// key returns the Morton key of cell idx in fine coordinates. A cell at
// level L covers the contiguous key range [key, key+4^(MaxLevel-L)).
func (c *CLAMR) key(idx int) int {
	shift := c.cfg.MaxLevel - c.clev.Data[idx]
	return morton(c.ci.Data[idx]<<shift, c.cj.Data[idx]<<shift)
}

// coverage returns the key-range width of cell idx.
func (c *CLAMR) coverage(idx int) int {
	shift := c.cfg.MaxLevel - c.clev.Data[idx]
	if shift < 0 || shift > 30 {
		panic(fmt.Sprintf("clamr: corrupted level %d", c.clev.Data[idx]))
	}
	return 1 << (2 * shift)
}

// sortPhase re-sorts the cell arrays into Z-order. The Morton keys, the
// permutation, and the merge-sort scratch all live in the "sort" frame, so
// injections during this tick land in the paper's mesh.sort region. The
// scratch halves are zeroed: they are live but not yet written at the tick.
func (c *CLAMR) sortPhase(ctx *bench.Ctx, n int) {
	c.reg.Push(c.sortFrame)
	for _, b := range c.sortBufs {
		b.Data, b.Shape = b.Data[:n], state.Dims1(n)
	}
	keys, perm, scratchK, scratchP := c.sortBufs[0].Data, c.sortBufs[1].Data, c.sortBufs[2].Data, c.sortBufs[3].Data
	clear(scratchK)
	clear(scratchP)
	for i := 0; i < n; i++ {
		keys[i] = c.key(i)
		perm[i] = i
	}
	ctx.Tick() // sort phase: keys/perm/scratch are live and filled
	ctx.Work(int64(n)*20 + 1)
	// Remesh emits the cells in Z-order, so after the first step the keys
	// arrive sorted and the permutation stays the identity, which permutes
	// nothing.
	shortcuts := ctx.Shortcuts()
	zSort(keys, perm, scratchK, scratchP, shortcuts)
	if !shortcuts || !identity(perm) {
		c.applyPerm(perm, n)
	}
	c.reg.Pop()
}

// zSort is mergeSort, except that with shortcuts it leaves non-decreasing
// keys as they are: a stable sort of them moves nothing, so keys and perm
// are what mergeSort would leave, and only the scratch halves, dead once the
// sort frame pops, go unwritten.
func zSort(keys, perm, sk, sp []int, shortcuts bool) {
	if shortcuts && slices.IsSorted(keys) {
		return
	}
	mergeSort(keys, perm, sk, sp)
}

// identity reports whether perm maps every position to itself.
func identity(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

// mergeSort is a bottom-up merge sort of keys with a parallel permutation
// payload. All four slices have equal length.
func mergeSort(keys, perm, sk, sp []int) {
	n := len(keys)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			merge(keys, perm, sk, sp, lo, mid, hi)
		}
	}
}

func merge(keys, perm, sk, sp []int, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if keys[i] <= keys[j] {
			sk[k], sp[k] = keys[i], perm[i]
			i++
		} else {
			sk[k], sp[k] = keys[j], perm[j]
			j++
		}
		k++
	}
	for i < mid {
		sk[k], sp[k] = keys[i], perm[i]
		i++
		k++
	}
	for j < hi {
		sk[k], sp[k] = keys[j], perm[j]
		j++
		k++
	}
	copy(keys[lo:hi], sk[lo:hi])
	copy(perm[lo:hi], sp[lo:hi])
}

// applyPerm reorders the cell arrays by the sorted permutation. Corrupted
// permutation entries index out of range (crash) or duplicate cells (mesh
// corruption → SDC or downstream tree abort), the Sort failure modes the
// paper reports.
func (c *CLAMR) applyPerm(perm []int, n int) {
	for i := 0; i < n; i++ {
		src := perm[i]
		if src < 0 || src >= n {
			panic(fmt.Sprintf("clamr: sort permutation entry %d out of range", src))
		}
		c.tmpI[i], c.tmpJ[i], c.tmpLev[i] = c.ci.Data[src], c.cj.Data[src], c.clev.Data[src]
		c.tmpH[i], c.tmpU[i], c.tmpV[i] = c.h.Data[src], c.u.Data[src], c.v.Data[src]
	}
	copy(c.ci.Data[:n], c.tmpI[:n])
	copy(c.cj.Data[:n], c.tmpJ[:n])
	copy(c.clev.Data[:n], c.tmpLev[:n])
	copy(c.h.Data[:n], c.tmpH[:n])
	copy(c.u.Data[:n], c.tmpU[:n])
	copy(c.v.Data[:n], c.tmpV[:n])
}

// remeshPhase marks cells by |ΔH| gradient and rebuilds the mesh: marked
// cells split into four Z-ordered children; Z-adjacent sibling quadruples
// that are all quiet merge into their parent. Operating on the sorted order
// is what makes coarsening correct — another way the Sort phase is
// load-bearing.
func (c *CLAMR) remeshPhase(ctx *bench.Ctx, n int) {
	ctx.Tick()
	ctx.Work(int64(n)*8 + 1)
	// Refinement pauses once the mesh reaches its cap, which is what makes
	// the active cell count saturate ("its maximum value, which can be
	// automatically set by the algorithm itself", paper §6 CLAMR).
	refineAllowed := n < int(c.cfg.MaxCellsFrac*float64(c.cap))
	// Mark pass (uses the neighbour arrays of this step).
	for i := 0; i < n; i++ {
		g := 0.0
		for _, nb := range [4]int{c.nbE.Data[i], c.nbW.Data[i], c.nbN.Data[i], c.nbS.Data[i]} {
			if nb < 0 || nb >= n {
				continue
			}
			d := c.h.Data[i] - c.h.Data[nb]
			if d < 0 {
				d = -d
			}
			if d > g {
				g = d
			}
		}
		switch {
		case refineAllowed && g > c.cfg.RefineThresh && c.clev.Data[i] < c.cfg.MaxLevel:
			c.marks[i] = 1
		case g < c.cfg.CoarsenThresh && c.clev.Data[i] > 0:
			c.marks[i] = -1
		default:
			c.marks[i] = 0
		}
	}
	// Rebuild pass.
	out := 0
	emit := func(i, j, lev int, h, u, v float64) {
		if out >= c.cap {
			panic("clamr: mesh overflow")
		}
		c.tmpI[out], c.tmpJ[out], c.tmpLev[out] = i, j, lev
		c.tmpH[out], c.tmpU[out], c.tmpV[out] = h, u, v
		out++
	}
	for i := 0; i < n; {
		if c.siblingGroupAt(i, n) {
			// Merge four Z-adjacent siblings into their parent.
			h := (c.h.Data[i] + c.h.Data[i+1] + c.h.Data[i+2] + c.h.Data[i+3]) / 4
			u := (c.u.Data[i] + c.u.Data[i+1] + c.u.Data[i+2] + c.u.Data[i+3]) / 4
			v := (c.v.Data[i] + c.v.Data[i+1] + c.v.Data[i+2] + c.v.Data[i+3]) / 4
			emit(c.ci.Data[i]/2, c.cj.Data[i]/2, c.clev.Data[i]-1, h, u, v)
			i += 4
			continue
		}
		if c.marks[i] == 1 {
			// Split into four children in local Z order.
			ci2, cj2, lev := c.ci.Data[i]*2, c.cj.Data[i]*2, c.clev.Data[i]+1
			for _, d := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
				emit(ci2+d[0], cj2+d[1], lev, c.h.Data[i], c.u.Data[i], c.v.Data[i])
			}
		} else {
			emit(c.ci.Data[i], c.cj.Data[i], c.clev.Data[i], c.h.Data[i], c.u.Data[i], c.v.Data[i])
		}
		i++
	}
	copy(c.ci.Data[:out], c.tmpI[:out])
	copy(c.cj.Data[:out], c.tmpJ[:out])
	copy(c.clev.Data[:out], c.tmpLev[:out])
	copy(c.h.Data[:out], c.tmpH[:out])
	copy(c.u.Data[:out], c.tmpU[:out])
	copy(c.v.Data[:out], c.tmpV[:out])
	c.ncell.Store(out)
}

// siblingGroupAt reports whether cells i..i+3 are a complete coarsenable
// sibling quadruple (same parent, all marked -1). Z-order sorting makes
// siblings adjacent, so only a 4-wide window is needed.
func (c *CLAMR) siblingGroupAt(i, n int) bool {
	if i+3 >= n {
		return false
	}
	lev := c.clev.Data[i]
	if lev <= 0 {
		return false
	}
	pi, pj := c.ci.Data[i]/2, c.cj.Data[i]/2
	for k := 0; k < 4; k++ {
		if c.marks[i+k] != -1 || c.clev.Data[i+k] != lev ||
			c.ci.Data[i+k]/2 != pi || c.cj.Data[i+k]/2 != pj {
			return false
		}
	}
	return true
}
