//go:build !race

package sim

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
