//go:build race

package relmodel

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random and allocation counts are meaningless.
const raceEnabled = true
