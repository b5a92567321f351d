package clamr

import (
	"fmt"

	"phirel/internal/bench"
)

// physicsPhase advances the shallow-water state one step with a first-order
// Lax-Friedrichs finite-volume update on the adaptive mesh. Conserved
// variables are H (height), U (x-momentum H·u), V (y-momentum H·v); domain
// boundaries are reflective.
func (c *CLAMR) physicsPhase(ctx *bench.Ctx, n int) {
	ctx.Tick() // physics phase
	ctx.Work(int64(n)*16 + 1)
	dt, g, lam := c.dt.Load(), c.grav.Load(), c.lam.Load()
	// Nothing armed ⇒ nothing fires mid-phase; plain cell loop with
	// identical updates and section-final cursor state.
	fast := !c.reg.AnyArmed()
	ctx.ParallelFor(c.cfg.Workers, n, func(w, start, end int) {
		wk := &c.workers[w]
		wk.cStart.Store(start)
		wk.cEnd.Store(end)
		if fast {
			for i := start; i < end; i++ {
				c.updateCell(i, n, dt, g, lam)
			}
			wk.cCur.Store(end)
			return
		}
		for wk.cCur.Store(wk.cStart.Load()); wk.cCur.Load() < wk.cEnd.Load(); wk.cCur.Add(1) {
			i := wk.cCur.Load()
			// start/end are uncorruptible chunk bounds: a wandering cursor
			// aborts instead of racing another worker's next-step cells.
			if i < start || i >= end {
				panic(fmt.Sprintf("clamr: physics cursor %d outside chunk [%d,%d)", i, start, end))
			}
			c.updateCell(i, n, dt, g, lam)
		}
	})
	copy(c.h.Data[:n], c.h2.Data[:n])
	copy(c.u.Data[:n], c.u2.Data[:n])
	copy(c.v.Data[:n], c.v2.Data[:n])
}

// sample returns the (H,U,V) state of neighbour nb of cell i, generating a
// reflective ghost when nb is the domain boundary. mirrorX/mirrorY select
// which momentum component flips.
func (c *CLAMR) sample(i, nb, n int, mirrorX, mirrorY bool) (h, u, v float64) {
	if nb < 0 || nb >= n {
		h, u, v = c.h.Data[i], c.u.Data[i], c.v.Data[i]
		if mirrorX {
			u = -u
		}
		if mirrorY {
			v = -v
		}
		return
	}
	return c.h.Data[nb], c.u.Data[nb], c.v.Data[nb]
}

// fluxX computes the Lax-Friedrichs shallow-water flux across a face with
// x-normal, between left state (hL,uL,vL) and right state (hR,uR,vR). Here
// and in updateCell, float64(…) rounds each product before its sum, so no
// target fuses the two into one multiply-add that rounds once (make
// fusion-check); on amd64 the conversions change nothing.
func fluxX(hL, uL, vL, hR, uR, vR, g, lam float64) (fH, fU, fV float64) {
	fH = float64(0.5*(uL+uR)) - float64(0.5*lam*(hR-hL))
	fU = float64(0.5*(uL*uL/hL+float64(0.5*g*hL*hL)+uR*uR/hR+float64(0.5*g*hR*hR))) - float64(0.5*lam*(uR-uL))
	fV = float64(0.5*(uL*vL/hL+uR*vR/hR)) - float64(0.5*lam*(vR-vL))
	return
}

// fluxY is the y-normal analogue of fluxX.
func fluxY(hL, uL, vL, hR, uR, vR, g, lam float64) (fH, fU, fV float64) {
	fH = float64(0.5*(vL+vR)) - float64(0.5*lam*(hR-hL))
	fU = float64(0.5*(uL*vL/hL+uR*vR/hR)) - float64(0.5*lam*(uR-uL))
	fV = float64(0.5*(vL*vL/hL+float64(0.5*g*hL*hL)+vR*vR/hR+float64(0.5*g*hR*hR))) - float64(0.5*lam*(vR-vL))
	return
}

// updateCell writes the next-step state of cell i into the scratch fields.
func (c *CLAMR) updateCell(i, n int, dt, g, lam float64) {
	lev := c.clev.Data[i]
	if lev < 0 || lev > c.cfg.MaxLevel {
		panic(fmt.Sprintf("clamr: corrupted level %d in physics", lev))
	}
	dx := float64(int(1) << (c.cfg.MaxLevel - lev))
	hc, uc, vc := c.h.Data[i], c.u.Data[i], c.v.Data[i]

	hE, uE, vE := c.sample(i, c.nbE.Data[i], n, true, false)
	hW, uW, vW := c.sample(i, c.nbW.Data[i], n, true, false)
	hN, uN, vN := c.sample(i, c.nbN.Data[i], n, false, true)
	hS, uS, vS := c.sample(i, c.nbS.Data[i], n, false, true)

	feH, feU, feV := fluxX(hc, uc, vc, hE, uE, vE, g, lam)
	fwH, fwU, fwV := fluxX(hW, uW, vW, hc, uc, vc, g, lam)
	gnH, gnU, gnV := fluxY(hc, uc, vc, hN, uN, vN, g, lam)
	gsH, gsU, gsV := fluxY(hS, uS, vS, hc, uc, vc, g, lam)

	r := dt / dx
	c.h2.Data[i] = hc - float64(r*(feH-fwH)) - float64(r*(gnH-gsH))
	c.u2.Data[i] = uc - float64(r*(feU-fwU)) - float64(r*(gnU-gsU))
	c.v2.Data[i] = vc - float64(r*(feV-fwV)) - float64(r*(gnV-gsV))
}
