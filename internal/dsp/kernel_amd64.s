#include "textflag.h"
#include "go_asm.h"

// AVX2 kernels for the radix-2 butterflies and the band-pass cascade.
// Each one performs, lane by lane, the same IEEE operations in the same
// order as the Go loop it replaces (no FMA), so the results are
// bit-identical; only the operands of one addition or multiplication
// may swap, which changes no bit.
//
// A complex product t = b·w is Go's (br·wr − bi·wi, br·wi + bi·wr):
// VMOVDDUP and VPERMILPD $15 spread w's real and imaginary parts,
// VPERMILPD $5 swaps b's halves, and VADDSUBPD subtracts in the real
// lanes and adds in the imaginary ones.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// CMUL sets t = b·w, where wr and wi hold w's real and imaginary parts
// in both halves of each 128-bit lane; sw is scratch.
#define CMUL(b, wr, wi, sw, t) \
	VPERMILPD $5, b, sw;  \
	VMULPD    wr, b, t;   \
	VMULPD    wi, sw, sw; \
	VADDSUBPD sw, t, t

// func stagePairAVX2(x, w []complex128, h int)
//
// Per block of 4h values, with x0..x3 its quarters, w1 = w[:h],
// w2a = w[h:2h] and w2b = w[2h:3h], two indices j per iteration:
//   t = x1·w1; a, b = x0+t, x0−t
//   t = x3·w1; c, d = x2+t, x2−t
//   t = c·w2a; x0, x2 = a+t, a−t
//   t = d·w2b; x1, x3 = b+t, b−t
TEXT ·stagePairAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ h+48(FP), DX
	SHLQ $4, DX               // quarter size in bytes
	SHLQ $4, CX
	ADDQ DI, CX               // end of x
	LEAQ (SI)(DX*1), R8       // w2a
	LEAQ (R8)(DX*1), R9       // w2b

block:
	CMPQ DI, CX
	JAE  done
	LEAQ (DI)(DX*1), R10      // x1
	LEAQ (R10)(DX*1), R11     // x2
	LEAQ (R11)(DX*1), R12     // x3
	XORQ AX, AX

pair:
	VMOVUPD   (DI)(AX*1), Y0
	VMOVUPD   (R10)(AX*1), Y1
	VMOVUPD   (R11)(AX*1), Y2
	VMOVUPD   (R12)(AX*1), Y3
	VMOVDDUP  (SI)(AX*1), Y4
	VPERMILPD $15, (SI)(AX*1), Y5
	CMUL(Y1, Y4, Y5, Y6, Y7)
	VSUBPD    Y7, Y0, Y1      // b = x0 − t
	VADDPD    Y7, Y0, Y0      // a = x0 + t
	CMUL(Y3, Y4, Y5, Y6, Y7)
	VSUBPD    Y7, Y2, Y3      // d = x2 − t
	VADDPD    Y7, Y2, Y2      // c = x2 + t
	VMOVDDUP  (R8)(AX*1), Y4
	VPERMILPD $15, (R8)(AX*1), Y5
	CMUL(Y2, Y4, Y5, Y6, Y7)
	VADDPD    Y7, Y0, Y8
	VSUBPD    Y7, Y0, Y9
	VMOVUPD   Y8, (DI)(AX*1)
	VMOVUPD   Y9, (R11)(AX*1)
	VMOVDDUP  (R9)(AX*1), Y4
	VPERMILPD $15, (R9)(AX*1), Y5
	CMUL(Y3, Y4, Y5, Y6, Y7)
	VADDPD    Y7, Y1, Y8
	VSUBPD    Y7, Y1, Y9
	VMOVUPD   Y8, (R10)(AX*1)
	VMOVUPD   Y9, (R12)(AX*1)
	ADDQ      $32, AX
	CMPQ      AX, DX
	JB        pair
	LEAQ      (DI)(DX*4), DI
	JMP       block

done:
	VZEROUPPER
	RET

// func stagePair1AVX2(x, w []complex128)
//
// stagePairAVX2 for h = 1 over w = tw[0:3]: each block of four values
// has one index, so two blocks share the registers, x0 of both in one
// register, x1 of both in the next, and so on.
TEXT ·stagePair1AVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	SHRQ $3, CX               // pairs of blocks
	JZ   none
	VBROADCASTSD 0(SI), Y10   // w1
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD 16(SI), Y12  // w2a
	VBROADCASTSD 24(SI), Y13
	VBROADCASTSD 32(SI), Y14  // w2b
	VBROADCASTSD 40(SI), Y15

loop:
	VMOVUPD    0(DI), Y4
	VMOVUPD    32(DI), Y5
	VMOVUPD    64(DI), Y6
	VMOVUPD    96(DI), Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x31, Y6, Y4, Y1
	VPERM2F128 $0x20, Y7, Y5, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	CMUL(Y1, Y10, Y11, Y6, Y7)
	VSUBPD     Y7, Y0, Y1
	VADDPD     Y7, Y0, Y0
	CMUL(Y3, Y10, Y11, Y6, Y7)
	VSUBPD     Y7, Y2, Y3
	VADDPD     Y7, Y2, Y2
	CMUL(Y2, Y12, Y13, Y6, Y7)
	VADDPD     Y7, Y0, Y8
	VSUBPD     Y7, Y0, Y9
	CMUL(Y3, Y14, Y15, Y6, Y7)
	VADDPD     Y7, Y1, Y4
	VSUBPD     Y7, Y1, Y5
	VPERM2F128 $0x20, Y4, Y8, Y0
	VPERM2F128 $0x20, Y5, Y9, Y1
	VPERM2F128 $0x31, Y4, Y8, Y2
	VPERM2F128 $0x31, Y5, Y9, Y3
	VMOVUPD    Y0, 0(DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	ADDQ       $128, DI
	DECQ       CX
	JNZ        loop
	VZEROUPPER

none:
	RET

// func stage1AVX2(x []complex128, w complex128)
//
// The lone stage of half-size 1 on two index pairs per iteration: for
// each pair, t = x1·w; x0, x1 = x0+t, x0−t.
TEXT ·stage1AVX2(SB), NOSPLIT, $0-40
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	JZ   none
	VBROADCASTSD w_real+24(FP), Y10
	VBROADCASTSD w_imag+32(FP), Y11

loop:
	VMOVUPD    0(DI), Y4
	VMOVUPD    32(DI), Y5
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	CMUL(Y1, Y10, Y11, Y6, Y7)
	VADDPD     Y7, Y0, Y8
	VSUBPD     Y7, Y0, Y9
	VPERM2F128 $0x20, Y9, Y8, Y4
	VPERM2F128 $0x31, Y9, Y8, Y5
	VMOVUPD    Y4, 0(DI)
	VMOVUPD    Y5, 32(DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        loop
	VZEROUPPER

none:
	RET

// func butterfliesAVX2(lo, hi, w []complex128)
//
// For the first len(lo)&^1 indices j: t = hi[j]·w[j];
// lo[j], hi[j] = lo[j]+t, lo[j]−t.
TEXT ·butterfliesAVX2(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), DI
	MOVQ lo_len+8(FP), CX
	MOVQ hi_base+24(FP), R10
	MOVQ w_base+48(FP), SI
	SHRQ $1, CX
	JZ   none
	XORQ AX, AX

loop:
	VMOVUPD   (DI)(AX*1), Y0
	VMOVUPD   (R10)(AX*1), Y1
	VMOVDDUP  (SI)(AX*1), Y4
	VPERMILPD $15, (SI)(AX*1), Y5
	CMUL(Y1, Y4, Y5, Y6, Y7)
	VADDPD    Y7, Y0, Y8
	VSUBPD    Y7, Y0, Y9
	VMOVUPD   Y8, (DI)(AX*1)
	VMOVUPD   Y9, (R10)(AX*1)
	ADDQ      $32, AX
	DECQ      CX
	JNZ       loop
	VZEROUPPER

none:
	RET

// func cascadeAVX2(c *cascadeLanes, out, in []float64)
//
// Lane j runs section j of the cascade on the sample j steps behind
// lane 0, so one step advances every section by one sample:
//   y  = b0·v + z1
//   z1 = b1·v − a1·y + z2
//   z2 = b2·v − a2·y
// Lanes 0-3 sit in the low registers, lanes 4-7 in the high ones.
// After a step, lane j's next input v is lane j−1's output y and lane
// 0's is the next sample.
TEXT ·cascadeAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), AX
	MOVQ out_base+8(FP), DI
	MOVQ out_len+16(FP), CX
	MOVQ in_base+32(FP), SI
	TESTQ CX, CX
	JZ   none
	MOVQ    cascadeLanes_hi(AX), BX
	VMOVUPD cascadeLanes_b0(AX), Y12
	VMOVUPD cascadeLanes_b0+32(AX), Y13
	VMOVUPD cascadeLanes_z1(AX), Y2
	VMOVUPD cascadeLanes_z1+32(AX), Y3
	VMOVUPD cascadeLanes_z2(AX), Y4
	VMOVUPD cascadeLanes_z2+32(AX), Y5
	VMOVUPD cascadeLanes_y(AX), Y0
	VMOVUPD cascadeLanes_y+32(AX), Y1
	VMOVDQU cascadeLanes_sel(AX), Y14

step:
	VMULPD Y12, Y0, Y6
	VMULPD Y13, Y1, Y7
	VADDPD Y2, Y6, Y6
	VADDPD Y3, Y7, Y7
	VMULPD cascadeLanes_b1(AX), Y0, Y8
	VMULPD cascadeLanes_b1+32(AX), Y1, Y9
	VMULPD cascadeLanes_a1(AX), Y6, Y10
	VMULPD cascadeLanes_a1+32(AX), Y7, Y11
	VSUBPD Y10, Y8, Y8
	VSUBPD Y11, Y9, Y9
	VADDPD Y4, Y8, Y2
	VADDPD Y5, Y9, Y3
	VMULPD cascadeLanes_b2(AX), Y0, Y8
	VMULPD cascadeLanes_b2+32(AX), Y1, Y9
	VMULPD cascadeLanes_a2(AX), Y6, Y10
	VMULPD cascadeLanes_a2+32(AX), Y7, Y11
	VSUBPD Y10, Y8, Y4
	VSUBPD Y11, Y9, Y5

	// The last section's output is the cascade's output.
	TESTQ BX, BX
	JNZ   outhi
	VPERMPS Y6, Y14, Y8
	JMP   store

outhi:
	VPERMPS Y7, Y14, Y8

store:
	VMOVSD X8, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JZ     done
	VPERMPD      $0x93, Y6, Y8 // y3 y0 y1 y2
	VPERMPD      $0x93, Y7, Y9 // y7 y4 y5 y6
	VBROADCASTSD (SI), Y15
	ADDQ         $8, SI
	VBLENDPD     $1, Y8, Y9, Y1 // y3 y4 y5 y6
	VBLENDPD     $1, Y15, Y8, Y0 // in y0 y1 y2
	JMP          step

done:
	VMOVUPD Y2, cascadeLanes_z1(AX)
	VMOVUPD Y3, cascadeLanes_z1+32(AX)
	VMOVUPD Y4, cascadeLanes_z2(AX)
	VMOVUPD Y5, cascadeLanes_z2+32(AX)
	VMOVUPD Y6, cascadeLanes_y(AX)
	VMOVUPD Y7, cascadeLanes_y+32(AX)
	VZEROUPPER

none:
	RET
