//go:build race

package sim

// raceEnabled reports a -race build, where sync.Pool drops a share of Puts
// on purpose, so tests cannot count on pooled backings being reused.
const raceEnabled = true
