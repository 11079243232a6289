package vector

// Bit-identity of L2SqToMany's batch kernel against l2SqRaw: on AVX2
// hosts the assembly computes four rows per call, and every distance it
// returns must carry exactly the bits of the scalar loop — the snapshot
// goldens and every reported id depend on it.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// poison fills the matrix slack after the last row: a kernel reading
// past the end of the last row picks it up and the distance moves.
const poison = float32(1e30)

// kernelMatrix returns an n×dim row-major matrix whose backing array
// extends past len(flat) with poison values.
func kernelMatrix(n, dim int, fill func() float32) []float32 {
	backing := make([]float32, n*dim+8)
	for i := range backing {
		backing[i] = poison
	}
	flat := backing[:n*dim]
	for i := range flat {
		flat[i] = fill()
	}
	return flat
}

// checkToMany compares L2SqToMany(q, flat, ids) with l2SqRaw per row,
// bit for bit. The one allowance is a NaN's sign and payload: IEEE 754
// leaves open which NaN operand an add propagates, and the Go compiler
// commutes float adds at will (l2SqRaw's own operand order is a register
// allocation choice), so a NaN result only has to be NaN on both sides.
// A NaN never passes a radius check, whatever its bits.
func checkToMany(t *testing.T, q []float32, flat []float32, dim int, ids []int32) {
	t.Helper()
	dst := make([]float64, len(ids))
	L2SqToMany(dst, q, flat, dim, ids)
	for k, id := range ids {
		row := flat[int(id)*dim : int(id)*dim+dim]
		want := l2SqRaw(q, row)
		if math.IsNaN(want) && math.IsNaN(dst[k]) {
			continue
		}
		if math.Float64bits(dst[k]) != math.Float64bits(want) {
			t.Fatalf("dim %d id %d (slot %d of %d): kernel %v (%#x), l2SqRaw %v (%#x)",
				dim, id, k, len(ids), dst[k], math.Float64bits(dst[k]), want, math.Float64bits(want))
		}
	}
}

// special returns the IEEE edge values the kernel must treat exactly
// as the scalar loop does.
func special() []float32 {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	return []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		3 * math.SmallestNonzeroFloat32, 1e-40, -1e-39, // subnormals
		math.MaxFloat32, -math.MaxFloat32,
		inf, -inf, nan, -nan,
	}
}

func TestL2SqToManyBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2: L2SqToMany runs l2SqRaw itself")
	}
	dims := []int{784}
	for d := 1; d <= 130; d++ {
		dims = append(dims, d)
	}
	edge := special()
	r := rng.New(13)
	for _, dim := range dims {
		for trial := 0; trial < 4; trial++ {
			// Magnitudes from 1e-4 to 1e4, one scale per trial; odd
			// trials sprinkle in the IEEE edge values.
			scale := math.Pow(10, -4+8*r.Float64())
			withEdges := trial%2 == 1
			fill := func() float32 {
				if withEdges && r.Float64() < 0.02 {
					return edge[r.Intn(len(edge))]
				}
				return float32(scale * r.Normal())
			}
			const n = 37
			flat := kernelMatrix(n, dim, fill)
			q := make([]float32, dim)
			for i := range q {
				q[i] = fill()
			}
			// Every row once, then random ids with repeats and the last
			// row in every slot of a four-row group.
			ids := make([]int32, 0, 2*n+8)
			for i := 0; i < n; i++ {
				ids = append(ids, int32(i))
			}
			for i := 0; i < n; i++ {
				ids = append(ids, int32(r.Intn(n)))
			}
			for i := 0; i < 7; i++ {
				ids = append(ids, n-1)
			}
			t.Run(fmt.Sprintf("d%d/t%d", dim, trial), func(t *testing.T) {
				checkToMany(t, q, flat, dim, ids)
			})
		}
	}
}

// TestL2SqToManyEdgePairs puts every pair of edge values into every lane
// position of a short row, so each lane sees NaN/Inf/±0/subnormal
// subtractions on both sides.
func TestL2SqToManyEdgePairs(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2: L2SqToMany runs l2SqRaw itself")
	}
	edge := special()
	const dim = 9 // two kernel iterations plus a one-element tail
	for pos := 0; pos < dim; pos++ {
		for _, a := range edge {
			q := make([]float32, dim)
			for i := range q {
				q[i] = float32(i) * 0.5
			}
			q[pos] = a
			flat := kernelMatrix(len(edge), dim, func() float32 { return 0.25 })
			ids := make([]int32, len(edge))
			for k, b := range edge {
				flat[k*dim+pos] = b
				ids[k] = int32(k)
			}
			checkToMany(t, q, flat, dim, ids)
		}
	}
}

func TestL2SqToManyMatchesL2Sq(t *testing.T) {
	// Runs on every host: whichever path L2SqToMany takes must agree
	// with L2Sq.
	r := rng.New(5)
	for _, dim := range []int{0, 1, 3, 4, 5, 32, 127} {
		const n = 11
		flat := kernelMatrix(n, dim, func() float32 { return float32(r.Normal()) })
		q := make(Dense, dim)
		for i := range q {
			q[i] = float32(r.Normal())
		}
		ids := []int32{10, 0, 3, 3, 7, 10, 1, 2, 9, 5}
		dst := make([]float64, len(ids))
		L2SqToMany(dst, q, flat, dim, ids)
		for k, id := range ids {
			if want := L2Sq(q, flat[int(id)*dim:int(id)*dim+dim]); dst[k] != want {
				t.Fatalf("dim %d id %d: %v, want %v", dim, id, dst[k], want)
			}
		}
	}
}

func TestL2SqToManyPanics(t *testing.T) {
	flat := make([]float32, 4*8)
	q := make(Dense, 8)
	dst := make([]float64, 8)
	// A matrix whose last row is cut short: row 4 starts inside flat but
	// ends past it, so only the explicit range check stops the kernel
	// from reading beyond len(flat).
	partial := make([]float32, 5*8)[:4*8+3]
	for name, call := range map[string]func(){
		"id past the last row": func() { L2SqToMany(dst, q, flat, 8, []int32{0, 1, 2, 4}) },
		"partial last row":     func() { L2SqToMany(dst, q, partial, 8, []int32{0, 1, 2, 4}) },
		"negative id":          func() { L2SqToMany(dst, q, flat, 8, []int32{-1}) },
		"query dim":            func() { L2SqToMany(dst, q[:7], flat, 8, []int32{0}) },
		"short dst":            func() { L2SqToMany(dst[:1], q, flat, 8, []int32{0, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzL2Kernel decodes raw bytes as little-endian float32s — a query
// followed by whole rows — and checks L2SqToMany against l2SqRaw bit for
// bit over every row, forward and backward (every row lands in every
// slot of a four-row group over the two passes when there are enough).
func FuzzL2Kernel(f *testing.F) {
	seed := func(dim uint8, vals ...float32) {
		raw := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		f.Add(dim, raw)
	}
	seed(4, 1, 2, 3, 4, 4, 3, 2, 1, 0, 0, 0, 0, 1e4, -1e4, 1e-4, -1e-4, 5, 5, 5, 5)
	seed(5, special()...)
	f.Fuzz(func(t *testing.T, dimSeed uint8, raw []byte) {
		dim := 1 + int(dimSeed)%130
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		n := len(vals)/dim - 1
		if n < 1 {
			return
		}
		q := vals[:dim]
		flat := vals[dim : dim+n*dim]
		ids := make([]int32, 0, 2*n)
		for i := 0; i < n; i++ {
			ids = append(ids, int32(i))
		}
		for i := n - 1; i >= 0; i-- {
			ids = append(ids, int32(i))
		}
		checkToMany(t, q, flat, dim, ids)
	})
}
