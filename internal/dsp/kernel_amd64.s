#include "textflag.h"
#include "go_asm.h"

// AVX2 kernels for the radix-2 butterflies, the real-FFT unpack and
// repack, the Welch window and periodogram, and the band-pass cascade.
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

// Constants of the real-transform kernels, one per 64-bit lane.
DATA conjMask<>+0(SB)/8, $0
DATA conjMask<>+8(SB)/8, $0x8000000000000000
DATA conjMask<>+16(SB)/8, $0
DATA conjMask<>+24(SB)/8, $0x8000000000000000
GLOBL conjMask<>(SB), RODATA|NOPTR, $32

DATA half<>+0(SB)/8, $0x3fe0000000000000
DATA half<>+8(SB)/8, $0x3fe0000000000000
DATA half<>+16(SB)/8, $0x3fe0000000000000
DATA half<>+24(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $32

DATA negHalf<>+0(SB)/8, $0xbfe0000000000000
DATA negHalf<>+8(SB)/8, $0xbfe0000000000000
DATA negHalf<>+16(SB)/8, $0xbfe0000000000000
DATA negHalf<>+24(SB)/8, $0xbfe0000000000000
GLOBL negHalf<>(SB), RODATA|NOPTR, $32

DATA one<>+0(SB)/8, $0x3ff0000000000000
DATA one<>+8(SB)/8, $0x3ff0000000000000
DATA one<>+16(SB)/8, $0x3ff0000000000000
DATA one<>+24(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $32

// func unpackAVX2(lo, hi, w []complex128)
//
// The real-FFT unpack on two bins k per iteration, lo[i] holding Z[k]
// and hi[len(hi)-1-i] its partner Z[n/2-k]:
//   zc = conj(partner)
//   e = (Z[k]+zc)·(0.5+0i), o = (Z[k]−zc)·(0−0.5i), t = o·w[i]
//   lo[i] = e+t, partner = conj(e−t)
// The multiplies by the constants are full complex products, as Go's.
TEXT ·unpackAVX2(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), DI
	MOVQ lo_len+8(FP), CX
	MOVQ hi_base+24(FP), R10
	MOVQ w_base+48(FP), SI
	SHRQ $1, CX
	JZ   none
	MOVQ CX, AX
	SHLQ $5, AX
	LEAQ -32(R10)(AX*1), R10  // the last pair of hi
	VMOVUPD conjMask<>(SB), Y13
	VMOVUPD half<>(SB), Y10
	VMOVUPD negHalf<>(SB), Y12
	VXORPD  Y11, Y11, Y11     // +0

loop:
	VMOVUPD    (DI), Y0
	VMOVUPD    (R10), Y1
	VPERM2F128 $0x01, Y1, Y1, Y1
	VXORPD     Y13, Y1, Y1    // zc
	VADDPD     Y1, Y0, Y2
	VSUBPD     Y1, Y0, Y3
	CMUL(Y2, Y10, Y11, Y6, Y4) // e
	CMUL(Y3, Y11, Y12, Y6, Y5) // o
	VMOVDDUP   (SI), Y7
	VPERMILPD  $15, (SI), Y8
	CMUL(Y5, Y7, Y8, Y6, Y9)   // t
	VADDPD     Y9, Y4, Y0
	VSUBPD     Y9, Y4, Y1
	VXORPD     Y13, Y1, Y1
	VPERM2F128 $0x01, Y1, Y1, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, (R10)
	ADDQ       $32, DI
	ADDQ       $32, SI
	SUBQ       $32, R10
	DECQ       CX
	JNZ        loop
	VZEROUPPER

none:
	RET

// func repackAVX2(z, lo, hi, w []complex128, plo, phi []int32)
//
// The inverse real-FFT repack on two bins k per iteration, lo[i]
// holding X[k] and hi[len(hi)-1-i] its partner X[n/2-k]:
//   xc = conj(partner)
//   e = (X[k]+xc)·(0.5+0i), d = (X[k]−xc)·(0.5+0i)
//   o = d·conj(w[i]), io = o·(0+1i)
//   z[plo[i]] = e+io, z[phi[len(phi)-1-i]] = conj(e−io)
TEXT ·repackAVX2(SB), NOSPLIT, $0-144
	MOVQ z_base+0(FP), DX
	MOVQ lo_base+24(FP), DI
	MOVQ lo_len+32(FP), CX
	MOVQ hi_base+48(FP), R10
	MOVQ w_base+72(FP), SI
	MOVQ plo_base+96(FP), R12
	MOVQ phi_base+120(FP), R13
	SHRQ $1, CX
	JZ   none
	MOVQ CX, AX
	SHLQ $5, AX
	LEAQ -32(R10)(AX*1), R10  // the last pair of hi
	SHRQ $2, AX
	LEAQ -8(R13)(AX*1), R13   // the last pair of phi
	VMOVUPD conjMask<>(SB), Y13
	VMOVUPD half<>(SB), Y10
	VMOVUPD one<>(SB), Y12
	VXORPD  Y11, Y11, Y11     // +0

loop:
	VMOVUPD    (DI), Y0
	VMOVUPD    (R10), Y1
	VPERM2F128 $0x01, Y1, Y1, Y1
	VXORPD     Y13, Y1, Y1    // xc
	VADDPD     Y1, Y0, Y2
	VSUBPD     Y1, Y0, Y3
	CMUL(Y2, Y10, Y11, Y6, Y4) // e
	CMUL(Y3, Y10, Y11, Y6, Y5) // d
	VMOVUPD    (SI), Y7
	VXORPD     Y13, Y7, Y7    // conj(w)
	VMOVDDUP   Y7, Y8
	VPERMILPD  $15, Y7, Y9
	CMUL(Y5, Y8, Y9, Y6, Y2)   // o
	CMUL(Y2, Y11, Y12, Y6, Y3) // io
	VADDPD     Y3, Y4, Y0
	VSUBPD     Y3, Y4, Y1
	VXORPD     Y13, Y1, Y1
	MOVLQSX    0(R12), AX
	MOVLQSX    4(R12), BX
	SHLQ       $4, AX
	SHLQ       $4, BX
	VMOVUPD    X0, (DX)(AX*1)
	VEXTRACTF128 $1, Y0, X0
	VMOVUPD    X0, (DX)(BX*1)
	MOVLQSX    4(R13), AX     // bin n/2-k
	MOVLQSX    0(R13), BX     // bin n/2-k-1
	SHLQ       $4, AX
	SHLQ       $4, BX
	VMOVUPD    X1, (DX)(AX*1)
	VEXTRACTF128 $1, Y1, X1
	VMOVUPD    X1, (DX)(BX*1)
	ADDQ       $32, DI
	ADDQ       $32, SI
	SUBQ       $32, R10
	ADDQ       $8, R12
	SUBQ       $8, R13
	DECQ       CX
	JNZ        loop
	VZEROUPPER

none:
	RET

// func windowAVX2(dst, x, win []float64)
//
// dst[i] = x[i]·win[i] for the first len(dst)&^3 indices.
TEXT ·windowAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ win_base+48(FP), R10
	SHRQ $2, CX
	JZ   none
	XORQ AX, AX

loop:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (R10)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop
	VZEROUPPER

none:
	RET

// func periodogramAVX2(psd []float64, spec []complex128, winPower float64)
//
// psd[i] += (re·re + im·im) / winPower, with re and im the parts of
// spec[i], for the first len(psd)&^3 indices. VHADDPD adds each
// value's re·re and im·im in that order; it interleaves two registers'
// sums, which VPERMPD puts back in bin order.
TEXT ·periodogramAVX2(SB), NOSPLIT, $0-56
	MOVQ psd_base+0(FP), DI
	MOVQ psd_len+8(FP), CX
	MOVQ spec_base+24(FP), SI
	SHRQ $2, CX
	JZ   none
	VBROADCASTSD winPower+48(FP), Y10

loop:
	VMOVUPD  (SI), Y0
	VMOVUPD  32(SI), Y1
	VMULPD   Y0, Y0, Y0
	VMULPD   Y1, Y1, Y1
	VHADDPD  Y1, Y0, Y2       // bins 0 2 1 3
	VPERMPD  $0xd8, Y2, Y2    // bins 0 1 2 3
	VDIVPD   Y10, Y2, Y2
	VMOVUPD  (DI), Y3
	VADDPD   Y2, Y3, Y3
	VMOVUPD  Y3, (DI)
	ADDQ     $32, DI
	ADDQ     $64, SI
	DECQ     CX
	JNZ      loop
	VZEROUPPER

none:
	RET
