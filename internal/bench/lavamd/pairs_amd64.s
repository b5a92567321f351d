#include "textflag.h"

// Two copies of each constant pairsSSE2 uses, one per lane. The table is
// 256 bytes, so the linker aligns it to 32 and the packed ops may take its
// entries as memory operands.
DATA lavaconst<>+0x00(SB)/8, $0x8000000000000000 // sign bit
DATA lavaconst<>+0x08(SB)/8, $0x8000000000000000
DATA lavaconst<>+0x10(SB)/8, $0x7fffffffffffffff // all but the sign bit
DATA lavaconst<>+0x18(SB)/8, $0x7fffffffffffffff
DATA lavaconst<>+0x20(SB)/8, $0x3e30000000000000 // 2**-28, exp's NearZero
DATA lavaconst<>+0x28(SB)/8, $0x3e30000000000000
DATA lavaconst<>+0x30(SB)/8, $0x4085e00000000000 // 700
DATA lavaconst<>+0x38(SB)/8, $0x4085e00000000000
DATA lavaconst<>+0x40(SB)/8, $0x4630000000000000 // 2**100
DATA lavaconst<>+0x48(SB)/8, $0x4630000000000000
DATA lavaconst<>+0x50(SB)/8, $0x3ff71547652b82fe // Log2e
DATA lavaconst<>+0x58(SB)/8, $0x3ff71547652b82fe
DATA lavaconst<>+0x60(SB)/8, $0x3fe0000000000000 // 0.5
DATA lavaconst<>+0x68(SB)/8, $0x3fe0000000000000
DATA lavaconst<>+0x70(SB)/8, $0x3fe62e42fee00000 // Ln2Hi
DATA lavaconst<>+0x78(SB)/8, $0x3fe62e42fee00000
DATA lavaconst<>+0x80(SB)/8, $0x3dea39ef35793c76 // Ln2Lo
DATA lavaconst<>+0x88(SB)/8, $0x3dea39ef35793c76
DATA lavaconst<>+0x90(SB)/8, $0x3e66376972bea4d0 // P5
DATA lavaconst<>+0x98(SB)/8, $0x3e66376972bea4d0
DATA lavaconst<>+0xa0(SB)/8, $0xbebbbd41c5d26bf1 // P4
DATA lavaconst<>+0xa8(SB)/8, $0xbebbbd41c5d26bf1
DATA lavaconst<>+0xb0(SB)/8, $0x3f11566aaf25de2c // P3
DATA lavaconst<>+0xb8(SB)/8, $0x3f11566aaf25de2c
DATA lavaconst<>+0xc0(SB)/8, $0xbf66c16c16bebd93 // P2
DATA lavaconst<>+0xc8(SB)/8, $0xbf66c16c16bebd93
DATA lavaconst<>+0xd0(SB)/8, $0x3fc5555555555555 // P1
DATA lavaconst<>+0xd8(SB)/8, $0x3fc5555555555555
DATA lavaconst<>+0xe0(SB)/8, $0x3ff0000000000000 // 1
DATA lavaconst<>+0xe8(SB)/8, $0x3ff0000000000000
DATA lavaconst<>+0xf0(SB)/8, $0x4000000000000000 // 2
DATA lavaconst<>+0xf8(SB)/8, $0x4000000000000000
GLOBL lavaconst<>(SB), RODATA|NOPTR, $256

// func pairsSSE2(h *[6]float64, rvj, qvj []float64, a2 float64, acc *[8]float64) (done int)
//
// Lane 0 is the home particle at h[0:3] with accumulators acc[0:4], lane 1
// the one at h[3:6] with acc[4:8]. Each pair j makes, in both lanes, the
// ops of pair and stats.Exp in their order and on their operands:
//
//	dx = xi − xj (dy, dz alike)
//	u2 = a2·((dx·dx + dy·dy) + dz·dz)
//	x  = −u2;  k = int(Log2e·x − 0.5)
//	hi = x − k·Ln2Hi;  lo = k·Ln2Lo;  r = hi − lo;  t = r·r
//	c  = r − t·(P1 + t·(P2 + t·(P3 + t·(P4 + t·P5))))
//	v  = (1 − ((lo − r·c/(2 − c)) − hi))·2**k
//	fvV += qj·v;  fvX += (qj·((2·a2)·v))·dx (fvY, fvZ alike)
//
// A pair runs here only if 2**-28 < u2 < 700 in both lanes and |qj| <
// 2**100: then exp takes its x < 0 branch, 2**k·(1 − …) is a normal number
// so adding k to the exponent bits is Ldexp exactly, and with a2 < 2**100
// (the caller's part) every product is finite, so no op meets two NaNs.
// The walk stops at the first pair that fails and returns its index.
TEXT ·pairsSSE2(SB), NOSPLIT, $48-80
	MOVQ   h+0(FP), AX
	MOVSD  0(AX), X9
	MOVHPD 24(AX), X9
	MOVUPD X9, 0(SP)    // xi
	MOVSD  8(AX), X9
	MOVHPD 32(AX), X9
	MOVUPD X9, 16(SP)   // yi
	MOVSD  16(AX), X9
	MOVHPD 40(AX), X9
	MOVUPD X9, 32(SP)   // zi
	MOVQ   rvj_base+8(FP), SI
	MOVQ   qvj_base+32(FP), DI
	MOVQ   qvj_len+40(FP), CX
	MOVSD  a2+56(FP), X4
	UNPCKLPD X4, X4
	MOVAPD X4, X5
	ADDPD  X4, X5       // 2·a2
	MOVQ   acc+64(FP), DX
	MOVSD  0(DX), X0
	MOVHPD 32(DX), X0   // fvV
	MOVSD  8(DX), X1
	MOVHPD 40(DX), X1   // fvX
	MOVSD  16(DX), X2
	MOVHPD 48(DX), X2   // fvY
	MOVSD  24(DX), X3
	MOVHPD 56(DX), X3   // fvZ
	XORQ   BX, BX

loop:
	CMPQ     BX, CX
	JAE      done
	MOVSD    0(SI), X9
	UNPCKLPD X9, X9
	MOVUPD   0(SP), X6
	SUBPD    X9, X6     // dx
	MOVSD    8(SI), X9
	UNPCKLPD X9, X9
	MOVUPD   16(SP), X7
	SUBPD    X9, X7     // dy
	MOVSD    16(SI), X9
	UNPCKLPD X9, X9
	MOVUPD   32(SP), X8
	SUBPD    X9, X8     // dz
	MOVAPD   X6, X9
	MULPD    X6, X9
	MOVAPD   X7, X10
	MULPD    X7, X10
	ADDPD    X10, X9
	MOVAPD   X8, X10
	MULPD    X8, X10
	ADDPD    X10, X9    // r2
	MULPD    X4, X9     // u2

	MOVUPD   lavaconst<>+0x20(SB), X10
	CMPPD    X9, X10, $1                  // 2**-28 < u2
	MOVAPD   X9, X11
	CMPPD    lavaconst<>+0x30(SB), X11, $1 // u2 < 700
	ANDPD    X11, X10
	MOVSD    (DI), X11
	UNPCKLPD X11, X11
	ANDPD    lavaconst<>+0x10(SB), X11
	CMPPD    lavaconst<>+0x40(SB), X11, $1 // |qj| < 2**100
	ANDPD    X11, X10
	MOVMSKPD X10, AX
	CMPQ     AX, $3
	JNE      done

	XORPD     lavaconst<>+0x00(SB), X9 // x = −u2
	MOVAPD    X9, X10
	MULPD     lavaconst<>+0x50(SB), X10
	SUBPD     lavaconst<>+0x60(SB), X10
	CVTTPD2PL X10, X11                 // k
	CVTPL2PD  X11, X10
	MOVAPD    X10, X12
	MULPD     lavaconst<>+0x70(SB), X12
	SUBPD     X12, X9                  // hi
	MULPD     lavaconst<>+0x80(SB), X10 // lo
	MOVAPD    X9, X12
	SUBPD     X10, X12                 // r
	MOVAPD    X12, X13
	MULPD     X12, X13                 // t
	MOVAPD    X13, X14
	MULPD     lavaconst<>+0x90(SB), X14
	ADDPD     lavaconst<>+0xa0(SB), X14
	MULPD     X13, X14
	ADDPD     lavaconst<>+0xb0(SB), X14
	MULPD     X13, X14
	ADDPD     lavaconst<>+0xc0(SB), X14
	MULPD     X13, X14
	ADDPD     lavaconst<>+0xd0(SB), X14
	MULPD     X13, X14
	MOVAPD    X12, X13
	SUBPD     X14, X13                 // c
	MULPD     X13, X12                 // r·c
	MOVUPD    lavaconst<>+0xf0(SB), X14
	SUBPD     X13, X14                 // 2 − c
	DIVPD     X14, X12
	SUBPD     X12, X10
	SUBPD     X9, X10
	MOVUPD    lavaconst<>+0xe0(SB), X15
	SUBPD     X10, X15                 // 1 − ((lo − r·c/(2 − c)) − hi)
	PSHUFD    $0x50, X11, X11
	PSLLQ     $52, X11
	PADDQ     X11, X15                 // v: the exponent plus k

	MOVAPD   X5, X9
	MULPD    X15, X9    // fs = 2·a2·v
	MOVSD    (DI), X10
	UNPCKLPD X10, X10   // qj
	MULPD    X10, X15
	ADDPD    X15, X0
	MULPD    X9, X10    // qj·fs
	MULPD    X10, X6
	ADDPD    X6, X1
	MULPD    X10, X7
	ADDPD    X7, X2
	MULPD    X10, X8
	ADDPD    X8, X3
	ADDQ     $24, SI
	ADDQ     $8, DI
	INCQ     BX
	JMP      loop

done:
	MOVSD  X0, 0(DX)
	MOVHPD X0, 32(DX)
	MOVSD  X1, 8(DX)
	MOVHPD X1, 40(DX)
	MOVSD  X2, 16(DX)
	MOVHPD X2, 48(DX)
	MOVSD  X3, 24(DX)
	MOVHPD X3, 56(DX)
	MOVQ   BX, done+72(FP)
	RET
