//go:build !race

package main_test

// raceEnabled: see race_on_test.go.
const raceEnabled = false
