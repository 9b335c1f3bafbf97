//go:build race

package nas

// raceEnabled reports a -race build, under which the long pair streams
// shrink so the detector's slowdown stays affordable.
const raceEnabled = true
