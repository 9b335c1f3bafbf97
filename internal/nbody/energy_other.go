//go:build !amd64

package nbody

// energyLanes is false off amd64: EnergyWith runs the Go loop.
var energyLanes = false

func potRow4(xi, yi, zi, gmi, eps2, pot float64, x, y, z, m []float64) float64 {
	panic("nbody: energy lane kernel needs amd64")
}
