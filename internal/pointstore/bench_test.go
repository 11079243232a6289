package pointstore

// Store-level microbenchmarks: the verification pipeline over one
// candidate list, per storage arm. CI runs these with `go test -bench
// Kernel` and archives the output alongside the vector kernels.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/vector"
)

// benchArm pins one verification workload: 1024 random dim-32 points,
// a 512-candidate list, and a radius that keeps ~10% of them.
func benchArm(b *testing.B, verify func(q vector.Dense, ids []int32, out []int32) []int32) {
	b.Helper()
	pts := randDense(1024, 32, 42)
	q := pts[0]
	ids := make([]int32, 512)
	for i := range ids {
		ids[i] = int32(i * 2)
	}
	b.ResetTimer()
	out := make([]int32, 0, 512)
	for i := 0; i < b.N; i++ {
		out = verify(q, ids, out[:0])
	}
	_ = out
}

func BenchmarkKernelVerifyRadius(b *testing.B) {
	pts := randDense(1024, 32, 42)
	// The radius that keeps roughly 10% of the points.
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = math.Sqrt(vector.L2Sq(pts[0], p))
	}
	r := quantile(ds, 0.10)

	rows := make([]vector.Dense, len(pts))
	for i, p := range pts {
		rows[i] = append(vector.Dense(nil), p...)
	}
	flat, err := NewFlatL2(pts, ModeOff)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("rows-sqrt", func(b *testing.B) {
		benchArm(b, func(q vector.Dense, ids, out []int32) []int32 {
			for _, id := range ids {
				var s float64
				p := rows[id]
				for j := range p {
					d := float64(q[j]) - float64(p[j])
					s += d * d
				}
				if math.Sqrt(s) <= r {
					out = append(out, id)
				}
			}
			return out
		})
	})
	b.Run("flat", func(b *testing.B) {
		benchArm(b, func(q vector.Dense, ids, out []int32) []int32 {
			return flat.VerifyRadius(q, ids, r, out)
		})
	})
}

func BenchmarkKernelScanRadius(b *testing.B) {
	pts := randDense(4096, 32, 43)
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = math.Sqrt(vector.L2Sq(pts[0], p))
	}
	r := quantile(ds, 0.05)
	st, err := NewFlatL2(pts, ModeOff)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	out := make([]int32, 0, 512)
	for i := 0; i < b.N; i++ {
		out = st.ScanRadius(pts[0], r, out[:0])
	}
	_ = out
}

func BenchmarkKernelHammingVerify(b *testing.B) {
	pts := randBinary(1024, 256, 44)
	flat, err := NewFlatBinary(pts)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int32, 512)
	for i := range ids {
		ids[i] = int32(i * 2)
	}
	out := make([]int32, 0, 512)
	for i := 0; i < b.N; i++ {
		out = flat.VerifyRadius(pts[0], ids, 110, out[:0])
	}
	_ = out
}

// quantile returns the f-quantile of a copy of values.
func quantile(values []float64, f float64) float64 {
	s := append([]float64(nil), values...)
	slices.Sort(s)
	return s[int(f*float64(len(s)-1))]
}
