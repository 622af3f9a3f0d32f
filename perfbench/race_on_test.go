//go:build race

package main

// raceEnabled reports a -race build, whose CPU profiles land in the race
// runtime rather than in the simulator's packages.
const raceEnabled = true
