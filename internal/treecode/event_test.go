package treecode

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestEventModeBitIdenticalForces pins the tentpole contract on the
// treecode: the event-driven scheduler reproduces the goroutine path
// bit-for-bit — accelerations, virtual times, comm volumes and every
// observability counter — across rank counts and engines.
func TestEventModeBitIdenticalForces(t *testing.T) {
	cost := CostModel{SecondsPerInteraction: 200e-9, SecondsPerBuildSource: 300e-9}
	for _, engine := range []Engine{EngineRecursive, EngineDual} {
		for _, p := range []int{2, 8, 24, 64} {
			run := func(event bool) (*nbody.System, *ParallelResult, []byte) {
				s := nbody.NewPlummer(1200, 1, 55)
				s.Eps = 0.02
				f := netsim.FastEthernet()
				f.PortContention = true
				w, err := mpi.NewWorldWithConfig(p, mpi.Config{Fabric: f, Event: event})
				if err != nil {
					t.Fatal(err)
				}
				res, err := ParallelForces(w, s, ParallelConfig{
					Theta: 0.6, Eps: s.Eps, Cost: cost, Engine: engine,
				})
				if err != nil {
					t.Fatalf("engine=%v p=%d event=%v: %v", engine, p, event, err)
				}
				snap := obs.NewSnapshot()
				snap.Gather(w)
				var buf bytes.Buffer
				if err := snap.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return s, res, buf.Bytes()
			}
			sg, rg, og := run(false)
			se, re, oe := run(true)
			if math.Float64bits(rg.SimTime) != math.Float64bits(re.SimTime) {
				t.Errorf("engine=%v p=%d: sim time %x vs %x", engine, p,
					math.Float64bits(rg.SimTime), math.Float64bits(re.SimTime))
			}
			if rg.CommBytes != re.CommBytes || rg.CommMessages != re.CommMessages ||
				rg.ImportedSources != re.ImportedSources || rg.Stats != re.Stats {
				t.Errorf("engine=%v p=%d: results differ: %+v vs %+v", engine, p, rg, re)
			}
			for i := 0; i < sg.N(); i++ {
				if math.Float64bits(sg.AX[i]) != math.Float64bits(se.AX[i]) ||
					math.Float64bits(sg.AY[i]) != math.Float64bits(se.AY[i]) ||
					math.Float64bits(sg.AZ[i]) != math.Float64bits(se.AZ[i]) {
					t.Fatalf("engine=%v p=%d: acceleration %d differs", engine, p, i)
				}
			}
			if !bytes.Equal(og, oe) {
				t.Errorf("engine=%v p=%d: obs snapshots differ:\n%s\nvs\n%s", engine, p, og, oe)
			}
		}
	}
}
