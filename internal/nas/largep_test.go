package nas

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// TestLargePEP runs class S EP on a p=4096 world of goroutine ranks:
// it must verify, reproduce bit for bit on a second fresh world, and
// keep the host footprint small. Ranks talk through per-rank inboxes
// whose lanes exist only for the pairs that exchange messages, so the
// run's peak HeapInuse+StackInuse — sampled every millisecond, over
// the level before the world was built — stays near the goroutine
// stacks' and the world's cost. It measured 33 MB (32–34 MB over five
// runs) on a 2-vCPU amd64 host, and 48 MB under the race detector's
// larger stacks; the bound is twice the plain figure.
func TestLargePEP(t *testing.T) {
	const (
		p         = 4096
		measuredB = 33 << 20
	)
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		t.Fatal(err)
	}
	inuse := func() int64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse + m.StackInuse)
	}
	// run executes EP on a fresh world and returns the result and the
	// peak footprint above the level before the world existed.
	run := func() (*ParallelResult, int64) {
		runtime.GC()
		base := inuse()
		w, err := mpi.NewWorld(p, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		peak := inuse()
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				if v := inuse(); v > peak {
					peak = v
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		res, err := ParallelEP(w, ClassS, costs)
		close(stop)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		return res, peak - base
	}
	res, grew := run()
	t.Logf("p=%d: peak HeapInuse+StackInuse grew %.1f MB", p, float64(grew)/(1<<20))
	if !res.Verified {
		t.Errorf("p=%d EP did not verify", p)
	}
	again, _ := run()
	if math.Float64bits(res.SimTime) != math.Float64bits(again.SimTime) ||
		math.Float64bits(res.Checksum) != math.Float64bits(again.Checksum) {
		t.Errorf("p=%d EP is not bit-deterministic across fresh worlds", p)
	}
	if grew > 2*measuredB {
		t.Errorf("p=%d: peak HeapInuse+StackInuse grew %d B, bound %d B", p, grew, 2*measuredB)
	}
}
