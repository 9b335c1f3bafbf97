//go:build !race

package repro_test

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
