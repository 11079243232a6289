package vector

// The AVX2 path of L2SqToMany. One kernel call computes four candidate
// rows against the query with one YMM accumulator (four float64 lanes)
// per row. Lane j of a row's accumulator sums dims j, j+4, j+8, … in
// ascending order — exactly the sequence l2SqRaw's accumulator s_j
// sees — and every step is the same IEEE operation l2SqRaw performs:
// widen both float32 inputs to float64 (VCVTPS2PD, exact), subtract
// (VSUBPD, query minus row), square (VMULPD) and add (VADDPD), each
// rounded on its own with no FMA. The dim%4 tail is then added into
// lane 0 in Go and the lanes are combined as (s0+s1)+(s2+s3), so each
// distance is bit-for-bit what l2SqRaw returns for the same row.

// useAVX2 reports whether the CPU implements AVX2 and the OS saves YMM
// state across context switches; it is detected once at start-up.
var useAVX2 = detectAVX2()

// detectAVX2 reads CPUID leaf 1 (AVX and OSXSAVE), XCR0 (XMM and YMM
// state enabled by the OS) and CPUID leaf 7 (AVX2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

//go:noescape
func l2Sq4AVX2(q, r0, r1, r2, r3 *float32, n int, acc *[16]float64)

// l2SqToMany4 fills dst[k] for the longest prefix of ids whose length is
// a multiple of four and returns that length (0 without AVX2 or when
// dim < 4). The caller has range-checked every id against flat.
func l2SqToMany4(dst []float64, q []float32, flat []float32, dim int, ids []int32) int {
	if !useAVX2 || dim < 4 {
		return 0
	}
	body := dim &^ 3
	var acc [16]float64
	k := 0
	for ; k+4 <= len(ids); k += 4 {
		offs := [4]int{int(ids[k]) * dim, int(ids[k+1]) * dim, int(ids[k+2]) * dim, int(ids[k+3]) * dim}
		l2Sq4AVX2(&q[0], &flat[offs[0]], &flat[offs[1]], &flat[offs[2]], &flat[offs[3]], body, &acc)
		for j, o := range offs {
			s0 := acc[4*j]
			for i := body; i < dim; i++ {
				d := float64(q[i]) - float64(flat[o+i])
				s0 += float64(d * d)
			}
			dst[k+j] = (s0 + acc[4*j+1]) + (acc[4*j+2] + acc[4*j+3])
		}
	}
	return k
}
