// Package hostcpu reports the host CPU features that select the
// assembly lane kernels of treecode, nas and nbody. It is probed, not
// configured: each of those packages sets its own gate from HasAVX2
// once at start-up, and its tests flip that gate to run the Go
// reference.
package hostcpu
