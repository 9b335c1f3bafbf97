//go:build !race

package nas

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
