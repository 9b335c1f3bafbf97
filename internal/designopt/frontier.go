package designopt

import (
	"hash/fnv"
	"math"
	"sort"
)

// dominates reports whether a Pareto-dominates b: no worse in every
// objective (ToPPeR minimized, perf/watt and perf/space maximized) and
// strictly better in at least one. Equal vectors dominate neither way,
// so the non-dominated set — and therefore the frontier — is a pure
// function of the candidate set, independent of evaluation order.
func dominates(a, b *Point) bool {
	if a.ToPPeR > b.ToPPeR || a.PerfPerWatt < b.PerfPerWatt || a.PerfPerSpace < b.PerfPerSpace {
		return false
	}
	return a.ToPPeR < b.ToPPeR || a.PerfPerWatt > b.PerfPerWatt || a.PerfPerSpace > b.PerfPerSpace
}

// Frontier maintains the running non-dominated set.
type Frontier struct {
	pts []Point
}

// Insert adds a candidate, dropping it if dominated and evicting any
// points it dominates. Returns whether the point survived.
func (f *Frontier) Insert(p Point) bool {
	for i := range f.pts {
		if dominates(&f.pts[i], &p) {
			return false
		}
	}
	keep := f.pts[:0]
	for i := range f.pts {
		if !dominates(&p, &f.pts[i]) {
			keep = append(keep, f.pts[i])
		}
	}
	f.pts = append(keep, p)
	return true
}

// Sorted returns the frontier in canonical order: ascending ToPPeR,
// then descending perf/watt and perf/space, then the candidate
// coordinates as the total tie-break. Canonical order plus
// order-independent membership make the emitted frontier independent
// of the order the candidates were inserted in.
func (f *Frontier) Sorted() []Point {
	out := append([]Point(nil), f.pts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		switch {
		case a.ToPPeR != b.ToPPeR:
			return a.ToPPeR < b.ToPPeR
		case a.PerfPerWatt != b.PerfPerWatt:
			return a.PerfPerWatt > b.PerfPerWatt
		case a.PerfPerSpace != b.PerfPerSpace:
			return a.PerfPerSpace > b.PerfPerSpace
		case a.CPU != b.CPU:
			return a.CPU < b.CPU
		case a.Pack != b.Pack:
			return a.Pack < b.Pack
		case a.Fabric != b.Fabric:
			return a.Fabric < b.Fabric
		case a.Nodes != b.Nodes:
			return a.Nodes < b.Nodes
		default:
			return a.AmbientC < b.AmbientC
		}
	})
	return out
}

// Fingerprint hashes a frontier bit-exactly (FNV-1a over the raw
// float bits and coordinates), for determinism cross-checks.
func Fingerprint(pts []Point) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	for i := range pts {
		p := &pts[i]
		h.Write([]byte(p.CPU))
		h.Write([]byte(p.Pack))
		h.Write([]byte(p.Fabric))
		w64(uint64(p.Nodes))
		wf(p.AmbientC)
		wf(p.Eff)
		wf(p.Gflops)
		wf(p.TCOUSD)
		wf(p.ToPPeR)
		wf(p.PerfPerWatt)
		wf(p.PerfPerSpace)
		wf(p.Breakdown.Acquisition)
		wf(p.Breakdown.SysAdmin)
		wf(p.Breakdown.PowerCooling)
		wf(p.Breakdown.Space)
		wf(p.Breakdown.Downtime)
	}
	return h.Sum64()
}
