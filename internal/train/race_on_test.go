//go:build race

package train_test

// raceEnabled: under the race detector sync.Pool drops items at random (the
// GEMM scratch pool then allocates), so allocation counts mean nothing.
const raceEnabled = true
