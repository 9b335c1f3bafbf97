//go:build race

package cpu

// raceEnabled reports a -race build, under which the superscalar
// calibration pin skips: the detector slows its ten calibrations about
// fifteenfold, and CI runs the pin without it in its own step.
const raceEnabled = true
