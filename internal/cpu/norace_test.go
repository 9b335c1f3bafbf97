//go:build !race

package cpu

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
