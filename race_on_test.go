//go:build race

package main_test

// raceEnabled: the race detector instruments every memory access, so
// timings taken under it say nothing about the product's hot paths.
const raceEnabled = true
