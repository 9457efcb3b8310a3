//go:build race

package engine

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random.
const raceEnabled = true
