//go:build race

package harness

// raceEnabled reports a -race build, under which TestGolden skips its
// large section.
const raceEnabled = true
