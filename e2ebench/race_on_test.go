//go:build race

package main

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of the objects put into it.
const raceEnabled = true
