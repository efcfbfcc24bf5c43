#include "textflag.h"

// AVX2 kernels behind axpy, axpy4, axpy4z, dot2x4 and addTo in matmul.go.
// Every product is a VMULPD and every sum a separate VADDPD, never an FMA, so
// each lane rounds exactly like the scalar Go statement it replaces. Lengths
// are multiples of 4; the Go wrappers reslice the operands and run the tails.

// func axpyAVX2(y []float64, a float64, x []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         x_base+32(FP), SI
	MOVQ         x_len+40(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           axpy_vec

axpy_loop16:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     axpy_loop16

axpy_vec:
	CMPQ AX, CX
	JGE  axpy_done

axpy_loop4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     axpy_loop4

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX2(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)
//
// y[j] = (((y[j] + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j], with y held
// in a register across the four steps.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	MOVQ         x0_base+56(FP), R8
	MOVQ         x1_base+80(FP), R9
	MOVQ         x2_base+104(FP), R10
	MOVQ         x3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           axpy4_vec

axpy4_loop8:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  (R8)(AX*8), Y0, Y6
	VMULPD  32(R8)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y1, Y8
	VMULPD  32(R9)(AX*8), Y1, Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMULPD  (R10)(AX*8), Y2, Y10
	VMULPD  32(R10)(AX*8), Y2, Y11
	VADDPD  Y10, Y4, Y4
	VADDPD  Y11, Y5, Y5
	VMULPD  (R11)(AX*8), Y3, Y12
	VMULPD  32(R11)(AX*8), Y3, Y13
	VADDPD  Y12, Y4, Y4
	VADDPD  Y13, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     axpy4_loop8

axpy4_vec:
	CMPQ AX, CX
	JGE  axpy4_done
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y8
	VADDPD  Y8, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y10
	VADDPD  Y10, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y12
	VADDPD  Y12, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)

axpy4_done:
	VZEROUPPER
	RET

// func axpy4zAVX2(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)
//
// y[j] = (((+0 + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j]: axpy4AVX2
// with VXORPD where the loads of y were, so y is written but never read.
TEXT ·axpy4zAVX2(SB), NOSPLIT, $0-152
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	MOVQ         x0_base+56(FP), R8
	MOVQ         x1_base+80(FP), R9
	MOVQ         x2_base+104(FP), R10
	MOVQ         x3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           axpy4z_vec

axpy4z_loop8:
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VMULPD  (R8)(AX*8), Y0, Y6
	VMULPD  32(R8)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y1, Y8
	VMULPD  32(R9)(AX*8), Y1, Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMULPD  (R10)(AX*8), Y2, Y10
	VMULPD  32(R10)(AX*8), Y2, Y11
	VADDPD  Y10, Y4, Y4
	VADDPD  Y11, Y5, Y5
	VMULPD  (R11)(AX*8), Y3, Y12
	VMULPD  32(R11)(AX*8), Y3, Y13
	VADDPD  Y12, Y4, Y4
	VADDPD  Y13, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     axpy4z_loop8

axpy4z_vec:
	CMPQ AX, CX
	JGE  axpy4z_done
	VXORPD  Y4, Y4, Y4
	VMULPD  (R8)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y8
	VADDPD  Y8, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y10
	VADDPD  Y10, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y12
	VADDPD  Y12, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)

axpy4z_done:
	VZEROUPPER
	RET

// func dot2x4AVX2(acc *[32]float64, a0, a1, b0, b1, b2, b3 []float64)
//
// acc[4*(4*r+c)+l] = Σ a_r[k]*b_c[k] over k ≡ l (mod 4), summed in ascending
// k: lane l of the accumulator for (r, c) is exactly dot's partial s_l.
TEXT ·dot2x4AVX2(SB), NOSPLIT, $0-152
	MOVQ   a0_base+8(FP), SI
	MOVQ   a0_len+16(FP), CX
	MOVQ   a1_base+32(FP), DI
	MOVQ   b0_base+56(FP), R8
	MOVQ   b1_base+80(FP), R9
	MOVQ   b2_base+104(FP), R10
	MOVQ   b3_base+128(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   CX, $0
	JEQ    dot_store

dot_loop:
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (DI)(AX*8), Y9
	VMOVUPD (R8)(AX*8), Y10
	VMULPD  Y10, Y8, Y12
	VMULPD  Y10, Y9, Y13
	VADDPD  Y12, Y0, Y0
	VADDPD  Y13, Y4, Y4
	VMOVUPD (R9)(AX*8), Y11
	VMULPD  Y11, Y8, Y14
	VMULPD  Y11, Y9, Y15
	VADDPD  Y14, Y1, Y1
	VADDPD  Y15, Y5, Y5
	VMOVUPD (R10)(AX*8), Y10
	VMULPD  Y10, Y8, Y12
	VMULPD  Y10, Y9, Y13
	VADDPD  Y12, Y2, Y2
	VADDPD  Y13, Y6, Y6
	VMOVUPD (R11)(AX*8), Y11
	VMULPD  Y11, Y8, Y14
	VMULPD  Y11, Y9, Y15
	VADDPD  Y14, Y3, Y3
	VADDPD  Y15, Y7, Y7
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     dot_loop

dot_store:
	MOVQ    acc+0(FP), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	VZEROUPPER
	RET

// func addAVX2(y, x []float64)
//
// y[j] += x[j], one VADDPD per four elements with y as the first operand,
// the order of the scalar y[j] += x[j].
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   add_vec

add_loop16:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VADDPD  (SI)(AX*8), Y0, Y0
	VADDPD  32(SI)(AX*8), Y1, Y1
	VADDPD  64(SI)(AX*8), Y2, Y2
	VADDPD  96(SI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     add_loop16

add_vec:
	CMPQ AX, CX
	JGE  add_done

add_loop4:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     add_loop4

add_done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
