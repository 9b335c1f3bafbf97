//go:build race

package repro_test

// raceEnabled reports a -race build, under which the host-timing guards
// skip: the detector slows code unevenly, so its timings compare
// nothing.
const raceEnabled = true
