//go:build amd64 && !purego

package numerics

// firstNonFinite returns the index of the first of xs whose exponent bits
// are all set (a NaN or an infinity), or -1: four floats a compare, eight a
// step (SSE2, which every amd64 CPU has). xs is not empty.
//
//go:noescape
func firstNonFinite(xs []float32) int
