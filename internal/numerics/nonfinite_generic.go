//go:build !amd64 || purego

package numerics

func firstNonFinite(xs []float32) int { return hasNonFiniteGo(xs) }
