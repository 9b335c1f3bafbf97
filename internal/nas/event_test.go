package nas

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// worldSnapshot renders a world's full observability state to JSON so
// two runs can be compared byte-for-byte.
func worldSnapshot(t *testing.T, w *mpi.World) []byte {
	t.Helper()
	s := obs.NewSnapshot()
	s.Gather(w)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventModeBitIdenticalKernels pins the tentpole contract: the
// event-driven scheduler reproduces the goroutine path bit-for-bit —
// virtual times, results, checksums and every observability counter —
// for both NPB kernels across rank counts, fabrics and collective
// algorithms.
func TestEventModeBitIdenticalKernels(t *testing.T) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := map[string]func() *netsim.Fabric{
		"star": netsim.FastEthernet,
		"contended": func() *netsim.Fabric {
			f := netsim.FastEthernet()
			f.PortContention = true
			return f
		},
		"fattree": func() *netsim.Fabric {
			f := netsim.FastEthernet()
			if err := netsim.ApplyTopology(f, "fattree", 64); err != nil {
				t.Fatal(err)
			}
			return f
		},
		"torus2d": func() *netsim.Fabric {
			f := netsim.FastEthernet()
			if err := netsim.ApplyTopology(f, "torus2d", 64); err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	for fname, mkFab := range fabrics {
		for _, native := range []bool{false, true} {
			for _, p := range []int{2, 8, 24, 64} {
				mk := func(event bool) *mpi.World {
					w, err := mpi.NewWorldWithConfig(p, mpi.Config{
						Fabric: mkFab(),
						Native: native,
						Event:  event,
					})
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				check := func(kernel string, run func(w *mpi.World) (*ParallelResult, error)) {
					wg, we := mk(false), mk(true)
					rg, err := run(wg)
					if err != nil {
						t.Fatalf("%s/%s native=%v p=%d goroutine: %v", fname, kernel, native, p, err)
					}
					re, err := run(we)
					if err != nil {
						t.Fatalf("%s/%s native=%v p=%d event: %v", fname, kernel, native, p, err)
					}
					if math.Float64bits(rg.SimTime) != math.Float64bits(re.SimTime) {
						t.Errorf("%s/%s native=%v p=%d: sim time %x vs %x", fname, kernel, native, p,
							math.Float64bits(rg.SimTime), math.Float64bits(re.SimTime))
					}
					if math.Float64bits(rg.Checksum) != math.Float64bits(re.Checksum) {
						t.Errorf("%s/%s native=%v p=%d: checksum differs", fname, kernel, native, p)
					}
					if rg.Verified != re.Verified || rg.CommByte != re.CommByte || rg.Ops != re.Ops {
						t.Errorf("%s/%s native=%v p=%d: result fields differ: %+v vs %+v",
							fname, kernel, native, p, rg, re)
					}
					if !re.Verified {
						t.Errorf("%s/%s native=%v p=%d: event run failed verification", fname, kernel, native, p)
					}
					sg, se := worldSnapshot(t, wg), worldSnapshot(t, we)
					if !bytes.Equal(sg, se) {
						t.Errorf("%s/%s native=%v p=%d: obs snapshots differ:\n%s\nvs\n%s",
							fname, kernel, native, p, sg, se)
					}
				}
				check("EP", func(w *mpi.World) (*ParallelResult, error) {
					return ParallelEP(w, ClassS, costs)
				})
				check("IS", func(w *mpi.World) (*ParallelResult, error) {
					return ParallelIS(w, ClassS, costs)
				})
			}
		}
	}
}

// TestEventModePoolInvariant runs the pooled-vs-unpooled bit-identity
// property on the event path: pooling must stay invisible in the
// physics under the event scheduler too.
func TestEventModePoolInvariant(t *testing.T) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8, 64} {
		run := func(disable bool) (*ParallelResult, *ParallelResult) {
			mk := func() *mpi.World {
				w, err := mpi.NewWorldWithConfig(p, mpi.Config{
					Fabric:      netsim.FastEthernet(),
					DisablePool: disable,
					Event:       true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			ep, err := ParallelEP(mk(), ClassS, costs)
			if err != nil {
				t.Fatalf("p=%d EP: %v", p, err)
			}
			is, err := ParallelIS(mk(), ClassS, costs)
			if err != nil {
				t.Fatalf("p=%d IS: %v", p, err)
			}
			return ep, is
		}
		epP, isP := run(false)
		epU, isU := run(true)
		for _, pair := range []struct {
			name string
			a, b *ParallelResult
		}{{"EP", epP, epU}, {"IS", isP, isU}} {
			if math.Float64bits(pair.a.SimTime) != math.Float64bits(pair.b.SimTime) {
				t.Errorf("p=%d %s: sim time differs pooled vs unpooled", p, pair.name)
			}
			if math.Float64bits(pair.a.Checksum) != math.Float64bits(pair.b.Checksum) {
				t.Errorf("p=%d %s: checksum differs pooled vs unpooled", p, pair.name)
			}
			if !pair.a.Verified || !pair.b.Verified {
				t.Errorf("p=%d %s: must verify", p, pair.name)
			}
		}
	}
}

// TestEventModeLargeP prices the event scheduler's reason to exist: a
// p=4096 class-S EP world must verify, reproduce bit for bit across
// fresh worlds, and run with at least 10x fewer host goroutines and
// less live heap than the goroutine scheduler would need. That
// footprint is extrapolated from a measured p=256 goroutine-mode run —
// goroutines grow linearly in p, the per-pair channel matrix
// quadratically — at a channel depth of 8, far below the sweep's 256,
// which underprices the goroutine path and so biases the check against
// the event loop.
func TestEventModeLargeP(t *testing.T) {
	const (
		pBig      = 4096
		pBase     = 256
		baseDepth = 8
	)
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// extraGoroutines runs fn and returns the most goroutines alive
	// beyond those before it, sampled every 2 ms.
	extraGoroutines := func(fn func()) int {
		g0 := runtime.NumGoroutine()
		stop := make(chan struct{})
		done := make(chan struct{})
		peak := g0
		go func() {
			defer close(done)
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				if g := runtime.NumGoroutine(); g > peak {
					peak = g
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		fn()
		close(stop)
		<-done
		// The sampler itself is one of the extra goroutines on both
		// sides of the ratio.
		return peak - g0
	}
	run := func(w *mpi.World) (res *ParallelResult, goroutines int) {
		goroutines = extraGoroutines(func() {
			res, err = ParallelEP(w, ClassS, costs)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, goroutines
	}

	h0 := liveHeap()
	wBase, err := mpi.NewWorldWithConfig(pBase, mpi.Config{Fabric: netsim.FastEthernet(), ChannelDepth: baseDepth})
	if err != nil {
		t.Fatal(err)
	}
	_, gorBase := run(wBase)
	heapBase := liveHeap() - h0
	runtime.KeepAlive(wBase)
	wBase = nil

	mkEvent := func() *mpi.World {
		w, err := mpi.NewWorldWithConfig(pBig, mpi.Config{Fabric: netsim.FastEthernet(), Event: true})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	h0 = liveHeap()
	wEvent := mkEvent()
	res, gorEvent := run(wEvent)
	heapEvent := liveHeap() - h0
	runtime.KeepAlive(wEvent)
	gorEvent = max(gorEvent, 1) // the event loop runs in the caller's goroutine

	scale := float64(pBig) / float64(pBase)
	gorExtrap := float64(gorBase) * scale
	heapExtrap := float64(heapBase) * scale * scale
	t.Logf("p=%d: %d goroutines vs %.0f extrapolated (%.0fx), heap %d B vs %.0f B extrapolated",
		pBig, gorEvent, gorExtrap, gorExtrap/float64(gorEvent), heapEvent, heapExtrap)
	if !res.Verified {
		t.Errorf("p=%d event-mode EP did not verify", pBig)
	}
	again, _ := run(mkEvent())
	if math.Float64bits(res.SimTime) != math.Float64bits(again.SimTime) ||
		math.Float64bits(res.Checksum) != math.Float64bits(again.Checksum) {
		t.Errorf("p=%d event-mode EP is not bit-deterministic across fresh worlds", pBig)
	}
	if ratio := gorExtrap / float64(gorEvent); ratio < 10 {
		t.Errorf("event core only %.1fx fewer goroutines than the goroutine path at p=%d (want ≥10x)", ratio, pBig)
	}
	if float64(heapEvent) >= heapExtrap {
		t.Errorf("event core live heap %d B at p=%d is not below the goroutine path's extrapolated %.0f B",
			heapEvent, pBig, heapExtrap)
	}
}
