//go:build amd64 && !purego

#include "textflag.h"

// One query against many contiguous rows, returning the bits DotKernel and
// SquaredL2Kernel return for each row (DESIGN.md §9 "Kernels").
//
// The scalar kernels keep four accumulators, s_j summing the elements at
// index ≡ j (mod 4), and reduce them as (s0+s1)+(s2+s3). One YMM register
// per row is exactly that state — lane j is s_j — so a packed multiply
// followed by a packed add performs the scalar loop's roundings in the
// scalar loop's order, and a horizontal add of the lane pairs followed by
// low half + high half is its reduction. What would change the bits is left
// out on purpose: no VFMADD (one rounding where the oracle has two) and no
// wider register (eight lanes are a different summation tree).
//
// A row's adds form one dependency chain, so four rows are interleaved per
// iteration to keep four chains in flight; the query's four elements are
// loaded once and shared by all of them.

// STEP(row, acc, tmp) folds four elements of one row into its accumulator;
// Y4 holds the query's four elements.
#define DOT_STEP(row, acc, tmp) \
	VMULPD row, Y4, tmp; \
	VADDPD tmp, acc, acc

#define L2_STEP(row, acc, tmp) \
	VSUBPD row, Y4, tmp; \
	VMULPD tmp, tmp, tmp; \
	VADDPD tmp, acc, acc

// ROWS_BODY expects AX = q, BX = rows, DI = out, R8 = dim (a positive
// multiple of 4), DX = n.
#define ROWS_BODY(STEP) \
	SHLQ $3, R8; /* row stride in bytes */ \
four: \
	CMPQ DX, $4; \
	JLT  one; \
	LEAQ (BX)(R8*1), R10; \
	LEAQ (R10)(R8*1), R11; \
	LEAQ (R11)(R8*1), R12; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	XORQ SI, SI; \
four_inner: \
	VMOVUPD (AX)(SI*1), Y4; \
	STEP((BX)(SI*1), Y0, Y5); \
	STEP((R10)(SI*1), Y1, Y6); \
	STEP((R11)(SI*1), Y2, Y7); \
	STEP((R12)(SI*1), Y3, Y8); \
	ADDQ $32, SI; \
	CMPQ SI, R8; \
	JLT  four_inner; \
	/* rows a..d: [a01 b01 a23 b23], [c01 d01 c23 d23], then low + high */ \
	VHADDPD Y1, Y0, Y0; \
	VHADDPD Y3, Y2, Y2; \
	VPERM2F128 $0x20, Y2, Y0, Y4; \
	VPERM2F128 $0x31, Y2, Y0, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMOVUPD Y4, (DI); \
	ADDQ $32, DI; \
	LEAQ (R12)(R8*1), BX; \
	SUBQ $4, DX; \
	JMP  four; \
one: \
	TESTQ DX, DX; \
	JZ   done; \
	VXORPD Y0, Y0, Y0; \
	XORQ SI, SI; \
one_inner: \
	VMOVUPD (AX)(SI*1), Y4; \
	STEP((BX)(SI*1), Y0, Y5); \
	ADDQ $32, SI; \
	CMPQ SI, R8; \
	JLT  one_inner; \
	VHADDPD Y0, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDSD X1, X0, X0; \
	VMOVSD X0, (DI); \
	ADDQ $8, DI; \
	ADDQ R8, BX; \
	DECQ DX; \
	JMP  one; \
done: \
	VZEROUPPER; \
	RET

// func dotRowsAVX2(q, rows, out *float64, dim, n int)
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), AX
	MOVQ rows+8(FP), BX
	MOVQ out+16(FP), DI
	MOVQ dim+24(FP), R8
	MOVQ n+32(FP), DX
	ROWS_BODY(DOT_STEP)

// func squaredL2RowsAVX2(q, rows, out *float64, dim, n int)
TEXT ·squaredL2RowsAVX2(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), AX
	MOVQ rows+8(FP), BX
	MOVQ out+16(FP), DI
	MOVQ dim+24(FP), R8
	MOVQ n+32(FP), DX
	ROWS_BODY(L2_STEP)

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX reports OSXSAVE and AVX, XCR0 shows the OS
// saves XMM and YMM state, and CPUID.7.0:EBX reports AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM | YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
