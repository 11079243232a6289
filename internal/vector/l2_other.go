//go:build !amd64

package vector

// Only amd64 has an assembly kernel; every other GOARCH computes
// L2SqToMany with the pure-Go l2SqRaw.
const useAVX2 = false

func l2SqToMany4(dst []float64, q []float32, flat []float32, dim int, ids []int32) int {
	return 0
}
