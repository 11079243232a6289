// AVX2 squared-L2 kernel: four candidate rows against one query per
// call. See l2_amd64.go for the lane-order argument that makes every
// distance bit-identical to l2SqRaw.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func l2Sq4AVX2(q, r0, r1, r2, r3 *float32, n int, acc *[16]float64)
//
// For k in 0..3, lane j of row k's accumulator Yk sums
// (float64(q[i]) - float64(rk[i]))² over i = j, j+4, ..., j+n-4 in that
// order, with a rounding after every subtract, multiply and add (no
// FMA). n must be a positive multiple of 4. acc[4k+j] receives lane j
// of row k.
TEXT ·l2Sq4AVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ acc+48(FP), DI
	SHLQ $2, CX // float32 count -> byte count
	XORQ AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop:
	VCVTPS2PD (SI)(AX*1), Y4
	VCVTPS2PD (R8)(AX*1), Y5
	VCVTPS2PD (R9)(AX*1), Y6
	VCVTPS2PD (R10)(AX*1), Y7
	VCVTPS2PD (R11)(AX*1), Y8
	VSUBPD Y5, Y4, Y5
	VSUBPD Y6, Y4, Y6
	VSUBPD Y7, Y4, Y7
	VSUBPD Y8, Y4, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  loop

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
