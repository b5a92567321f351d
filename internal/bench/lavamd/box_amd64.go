package lavamd

// pairsSSE2 adds to acc the interactions of the home particles at h[0:3]
// and h[3:6] (accumulators acc[0:4] and acc[4:8]) with the particles of
// rvj and qvj in order, two home particles per instruction
// (pairs_amd64.s), and returns how many it did: it stops before the first
// pair whose exp argument lies outside (−700, −2**-28) in either lane or
// whose charge is not below 2**100 in magnitude. rvj holds at least
// 3·len(qvj) values; a2 is below 2**100.
//
//go:noescape
func pairsSSE2(h *[6]float64, rvj, qvj []float64, a2 float64, acc *[8]float64) (done int)

// box computes the forces of home box b's particles two at a time with the
// amd64 kernel, whose packed operations round each lane as interact's
// scalar ones do, in the same order and on the same operands, and whose exp
// is stats.Exp's, so every particle gets boxGo's bits. A pair the kernel
// stops at is done by interact for both lanes. An odd last particle stays
// on boxGo, and so does the whole box when b or one of its neighbour
// indices is out of range (boxGo reads, wraps and fails on them) or a2 is
// not below 2**100.
func (l *LavaMD) box(b, ppb int, a2 float64) {
	rv, qv, fv, nn := l.rv.Data, l.qv.Data, l.fv.Data, l.nn.Data
	boxes := len(qv) / ppb
	if uint(b) >= uint(boxes) || !(a2 < 0x1p100) {
		l.boxGo(b, 0, ppb, a2)
		return
	}
	for _, nbIdx := range nn[27*b : 27*b+27] {
		if nbIdx >= boxes {
			l.boxGo(b, 0, ppb, a2)
			return
		}
	}
	p := 0
	for ; p+1 < ppb; p += 2 {
		i := b*ppb + p
		h := (*[6]float64)(rv[3*i : 3*i+6])
		var acc [8]float64 // fvV…fvZ of particle i, then of i+1
		f0, f1 := (*[4]float64)(acc[:4]), (*[4]float64)(acc[4:])
		for _, nbIdx := range nn[27*b : 27*b+27] {
			if nbIdx < 0 {
				continue // clamped edge
			}
			rvj, qvj := rv[3*ppb*nbIdx:3*ppb*(nbIdx+1)], qv[ppb*nbIdx:ppb*(nbIdx+1)]
			for q := 0; ; q++ {
				q += pairsSSE2(h, rvj[3*q:], qvj[q:], a2, &acc)
				if q == ppb {
					break
				}
				interact(f0, h[0], h[1], h[2], rvj[3*q], rvj[3*q+1], rvj[3*q+2], qvj[q], a2)
				interact(f1, h[3], h[4], h[5], rvj[3*q], rvj[3*q+1], rvj[3*q+2], qvj[q], a2)
			}
		}
		copy(fv[4*i:4*i+8], acc[:])
	}
	if p < ppb {
		l.boxGo(b, p, ppb, a2)
	}
}
