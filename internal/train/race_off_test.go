//go:build !race

package train_test

const raceEnabled = false
