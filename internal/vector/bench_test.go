package vector

// Kernel microbenchmarks for the distance hot paths: the unrolled
// kernels against the scalar loops they replaced, the AVX2 four-row
// kernel against both, and the one-to-many batch entry point against
// per-call loops. CI runs these with `go test -bench Kernel` and
// archives the output, so regressions in the raw kernels are visible
// per commit.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// scalarL2Sq is the pre-refactor kernel: a scalar loop with a float64
// widen per element, kept as the benchmark baseline.
func scalarL2Sq(a, b Dense) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func benchDense(dim int, seed uint64) (Dense, Dense) {
	r := rng.New(seed)
	x, y := make(Dense, dim), make(Dense, dim)
	for i := range x {
		x[i], y[i] = float32(r.Normal()), float32(r.Normal())
	}
	return x, y
}

func BenchmarkKernelL2Sq(b *testing.B) {
	for _, dim := range []int{8, 32, 128} {
		x, y := benchDense(dim, uint64(dim))
		b.Run(fmt.Sprintf("scalar-%d", dim), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += scalarL2Sq(x, y)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("unrolled-%d", dim), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += L2Sq(x, y)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("avx2x4-%d", dim), func(b *testing.B) {
			// Four distances per kernel call; ns/dist is the figure
			// comparable with the one-distance arms' ns/op.
			if !useAVX2 {
				b.Skip("CPU lacks AVX2")
			}
			flat := make([]float32, 0, 4*dim)
			for k := 0; k < 4; k++ {
				flat = append(flat, y...)
			}
			ids := []int32{0, 1, 2, 3}
			var dst [4]float64
			for i := 0; i < b.N; i++ {
				L2SqToMany(dst[:], x, flat, dim, ids)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/dist")
		})
		b.Run(fmt.Sprintf("sqrt-%d", dim), func(b *testing.B) {
			// The full pre-refactor candidate check: scalar loop + sqrt.
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += math.Sqrt(scalarL2Sq(x, y))
			}
			_ = sink
		})
	}
}

func BenchmarkKernelDot(b *testing.B) {
	for _, dim := range []int{32, 128} {
		x, y := benchDense(dim, uint64(dim))
		b.Run(fmt.Sprintf("dim-%d", dim), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += x.Dot(y)
			}
			_ = sink
		})
	}
}

// BenchmarkKernelL2SqToMany verifies 900 random candidates of a
// 2 000-row matrix, the shape of one shard's LSH candidate list: the
// batch entry point (the AVX2 four-row kernel where the CPU has it)
// against the per-candidate L2Sq loop it replaced.
func BenchmarkKernelL2SqToMany(b *testing.B) {
	for _, dim := range []int{32, 128} {
		const n, m = 2000, 900
		r := rng.New(3)
		flat := make([]float32, n*dim)
		for i := range flat {
			flat[i] = float32(r.Normal())
		}
		q, _ := benchDense(dim, 4)
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = int32(r.Intn(n))
		}
		dst := make([]float64, m)
		b.Run(fmt.Sprintf("batch-d%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				L2SqToMany(dst, q, flat, dim, ids)
			}
		})
		b.Run(fmt.Sprintf("loop-d%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, id := range ids {
					dst[j] = L2Sq(q, flat[int(id)*dim:(int(id)+1)*dim])
				}
			}
		})
	}
}

func BenchmarkKernelHammingWords(b *testing.B) {
	for _, bits := range []int{64, 256} {
		r := rng.New(uint64(bits))
		words := (bits + 63) / 64
		x, y := make([]uint64, words), make([]uint64, words)
		for i := range x {
			x[i], y[i] = r.Uint64(), r.Uint64()
		}
		b.Run(fmt.Sprintf("bits-%d", bits), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += HammingWords(x, y)
			}
			_ = sink
		})
	}
}

func BenchmarkKernelToDense(b *testing.B) {
	bin := NewBinary(256)
	for i := 0; i < 256; i += 3 {
		bin.SetBit(i, true)
	}
	for i := 0; i < b.N; i++ {
		_ = bin.ToDense()
	}
}
