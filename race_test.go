//go:build race

package repro

// raceEnabled reports a -race build, where sync.Pool drops pooled values
// at random on purpose, so exact allocation counts are not meaningful.
const raceEnabled = true
