package nbody

import "repro/internal/hostcpu"

// energyLanes selects the AVX2 row kernel of energy_amd64.s for
// EnergyWith's potential sum. It is fixed at start-up from CPUID;
// tests flip it to run the Go loop as the reference.
var energyLanes = hostcpu.HasAVX2()

// potRow4 returns pot minus the pair terms gmi·m[j]/r of one row, for
// the sources j in [0, len(m)&^3), four per pass, with the Go loop's
// operations in its order: each term is subtracted from pot one at a
// time in j order. x, y and z must be at least as long as m.
//
//go:noescape
func potRow4(xi, yi, zi, gmi, eps2, pot float64, x, y, z, m []float64) float64
