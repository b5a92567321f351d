#include "textflag.h"

// STENCIL4 writes the update of the four columns at byte offset BX to d,
// given their temperatures t in X0 and their west and east neighbours in X1
// and X2. It makes the Go row's ops in the Go row's order:
//
//	acc = ((e+w) - (t+t))·cx + t
//	acc = acc + ((n+so) - (t+t))·cy
//	acc = acc + (amb-t)·cz
//	d   = p·cp + acc
//
// Each left operand is the one the compiled Go row's op overwrites, so a
// lane returns the NaN the scalar op would when both operands are NaNs.
#define STENCIL4 \
	ADDPS  X1, X2; \
	MOVAPS X0, X3; \
	ADDPS  X0, X3; \
	SUBPS  X3, X2; \
	MULPS  X8, X2; \
	ADDPS  X0, X2; \
	MOVUPS (R8)(BX*1), X4; \
	MOVUPS (R9)(BX*1), X5; \
	ADDPS  X5, X4; \
	SUBPS  X3, X4; \
	MULPS  X9, X4; \
	ADDPS  X4, X2; \
	MOVAPS X12, X5; \
	SUBPS  X0, X5; \
	MULPS  X10, X5; \
	ADDPS  X5, X2; \
	MOVUPS (R10)(BX*1), X6; \
	MULPS  X11, X6; \
	ADDPS  X2, X6; \
	MOVUPS X6, (DI)(BX*1)

// func stencilRowSSE2(d, s, n, so, p []float32, cx, cy, cz, cp, amb float32)
//
// The first group of four columns takes its west neighbours from its own
// temperatures, the west edge clamped; the last group, at column len(s)-4,
// its east ones, the east edge clamped. The groups between load both. The
// last group may overlap the one before it and write the same values again.
TEXT ·stencilRowSSE2(SB), NOSPLIT, $0-140
	MOVQ d_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ s_len+32(FP), DX
	MOVQ n_base+48(FP), R8
	MOVQ so_base+72(FP), R9
	MOVQ p_base+96(FP), R10
	MOVSS  cx+120(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  cy+124(FP), X9
	SHUFPS $0x00, X9, X9
	MOVSS  cz+128(FP), X10
	SHUFPS $0x00, X10, X10
	MOVSS  cp+132(FP), X11
	SHUFPS $0x00, X11, X11
	MOVSS  amb+136(FP), X12
	SHUFPS $0x00, X12, X12
	SHLQ $2, DX
	SUBQ $16, DX // DX = byte offset of the last group

	XORQ   BX, BX
	MOVUPS (SI), X0
	PSHUFD $0x90, X0, X1 // t0 t0 t1 t2
	MOVUPS 4(SI), X2
	STENCIL4
	MOVQ $16, BX

loop:
	CMPQ   BX, DX
	JAE    last
	MOVUPS (SI)(BX*1), X0
	MOVUPS -4(SI)(BX*1), X1
	MOVUPS 4(SI)(BX*1), X2
	STENCIL4
	ADDQ   $16, BX
	JMP    loop

last:
	MOVQ   DX, BX
	MOVUPS (SI)(BX*1), X0
	MOVUPS -4(SI)(BX*1), X1
	PSHUFD $0xF9, X0, X2 // t1 t2 t3 t3
	STENCIL4
	RET
