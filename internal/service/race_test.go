//go:build race

package service

// raceEnabled reports a -race build, which runs durable GA jobs over ten
// times slower.
const raceEnabled = true
