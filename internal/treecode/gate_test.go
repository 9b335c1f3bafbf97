package treecode

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/netsim"
	"repro/internal/par"
)

// parallelRun is one distributed step's observable outcome: the result,
// the accelerations and the world's buffer-pool counts.
type parallelRun struct {
	res          *ParallelResult
	ax, ay, az   []float64
	hits, misses int64
}

func runParallel(t *testing.T, step func(*mpi.World, *nbody.System, ParallelConfig) (*ParallelResult, error), s *nbody.System, p int, cfg ParallelConfig) parallelRun {
	t.Helper()
	r, err := tryParallel(step, s, p, cfg)
	if err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
	return r
}

func tryParallel(step func(*mpi.World, *nbody.System, ParallelConfig) (*ParallelResult, error), s *nbody.System, p int, cfg ParallelConfig) (parallelRun, error) {
	w, err := mpi.NewWorld(p, netsim.FastEthernet())
	if err != nil {
		return parallelRun{}, err
	}
	res, err := step(w, s, cfg)
	if err != nil {
		return parallelRun{}, err
	}
	r := parallelRun{res: res, ax: s.AX, ay: s.AY, az: s.AZ}
	r.hits, r.misses = w.PoolStats()
	return r, nil
}

func requireSameRun(t *testing.T, label string, got, want parallelRun) {
	t.Helper()
	if *got.res != *want.res {
		t.Fatalf("%s: result %+v, want %+v", label, got.res, want.res)
	}
	if got.hits != want.hits || got.misses != want.misses {
		t.Fatalf("%s: pool hits/misses %d/%d, want %d/%d", label, got.hits, got.misses, want.hits, want.misses)
	}
	for i := range want.ax {
		if math.Float64bits(got.ax[i]) != math.Float64bits(want.ax[i]) ||
			math.Float64bits(got.ay[i]) != math.Float64bits(want.ay[i]) ||
			math.Float64bits(got.az[i]) != math.Float64bits(want.az[i]) {
			t.Fatalf("%s: acceleration of particle %d differs", label, i)
		}
	}
}

// TestParallelSweepGateWidthInvariant runs ParallelCost and
// ParallelForces with the force gate one wide and four wide, at rank
// counts up to and past the gate's width: results, accelerations and
// pool counts are bit-identical. At width 1 every rank reuses one
// scratch; at width 4 ranks draw from several, grown by other worlds.
func TestParallelSweepGateWidthInvariant(t *testing.T) {
	defer par.SetWorkers(0)
	const n, seed = 3000, 2001
	cfg := ParallelConfig{Theta: 0.7, Cost: CostModel{SecondsPerInteraction: 200e-9, SecondsPerBuildSource: 300e-9}}
	for _, quad := range []bool{false, true} {
		cfg.Quadrupole = quad
		for _, p := range []int{1, 3, 24} {
			var forces, costs [2]parallelRun
			for i, width := range []int{1, 4} {
				par.SetWorkers(width)
				forces[i] = runParallel(t, ParallelForces, nbody.NewPlummer(n, 1, seed), p, cfg)
				costs[i] = runParallel(t, ParallelCost, nbody.NewPlummer(n, 1, seed), p, cfg)
			}
			requireSameRun(t, "ParallelForces", forces[1], forces[0])
			requireSameRun(t, "ParallelCost", costs[1], costs[0])
			if *costs[0].res != *forces[0].res {
				t.Fatalf("quad=%v p=%d: ParallelCost %+v, ParallelForces %+v", quad, p, costs[0].res, forces[0].res)
			}
		}
	}
}

// TestParallelSweepConcurrentWorlds runs two worlds at once — a
// ParallelForces and a ParallelCost world, at rank counts that share
// the gate — and checks each against the same world run alone. Under
// -race it is the proof that the gate and the scratch pool are safe
// across worlds.
func TestParallelSweepConcurrentWorlds(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(2)
	const n, seed = 2500, 77
	cfg := ParallelConfig{Theta: 0.7}
	alone := [2]parallelRun{
		runParallel(t, ParallelForces, nbody.NewPlummer(n, 1, seed), 8, cfg),
		runParallel(t, ParallelCost, nbody.NewPlummer(n, 1, seed), 5, cfg),
	}
	var together [2]parallelRun
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		together[0], errs[0] = tryParallel(ParallelForces, nbody.NewPlummer(n, 1, seed), 8, cfg)
	}()
	go func() {
		defer wg.Done()
		together[1], errs[1] = tryParallel(ParallelCost, nbody.NewPlummer(n, 1, seed), 5, cfg)
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	requireSameRun(t, "ParallelForces beside ParallelCost", together[0], alone[0])
	requireSameRun(t, "ParallelCost beside ParallelForces", together[1], alone[1])
}

// TestParallelSweepSlotReturnedOnError takes the gate down to one slot
// and fails force phases in each way a rank can — an error, a panic,
// and a world whose ranks panic inside the walk — then runs a healthy
// step. A slot that was not given back makes the sequence wait forever,
// so it runs under a deadline.
func TestParallelSweepSlotReturnedOnError(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	done := make(chan error, 1)
	go func() { done <- failForcePhasesThenStep() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("force phases did not finish: a gate slot was not given back")
	}
}

func failForcePhasesThenStep() error {
	errTest := errors.New("force phase failed")
	if err := forceSlot(func(*forceScratch) error { return errTest }); err != errTest {
		return fmt.Errorf("forceSlot returned %v, want the force phase's error", err)
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		_ = forceSlot(func(*forceScratch) error { panic("force phase") })
		return false
	}()
	if !panicked {
		return errors.New("a panicking force phase did not panic")
	}
	// Accelerations are written inside the force phase; a short AX
	// makes every rank with a high particle index panic holding a slot.
	broken := nbody.NewPlummer(600, 1, 3)
	broken.AX = broken.AX[:10]
	if _, err := tryParallel(ParallelForces, broken, 3, ParallelConfig{}); err == nil || !strings.Contains(err.Error(), "panicked") {
		return fmt.Errorf("broken system: err = %v, want a rank panic", err)
	}
	_, err := tryParallel(ParallelCost, nbody.NewPlummer(600, 1, 3), 4, ParallelConfig{})
	return err
}

// TestParallelSweepScratchMatchesBuild builds force trees into one
// scratch in turn — large, small, quadrupole and monopole — and checks
// each against a fresh Build: a reused scratch carries no state from the
// tree before it.
func TestParallelSweepScratchMatchesBuild(t *testing.T) {
	sc := &forceScratch{arena: &WalkArena{}}
	for _, tc := range []struct {
		n    int
		seed uint64
		quad bool
	}{{5000, 1, true}, {700, 2, false}, {9000, 3, false}, {3000, 4, true}, {6000, 6, true}, {1, 5, false}} {
		srcs := AppendSources(nil, nbody.NewPlummer(tc.n, 1, tc.seed))
		opt := BuildOptions{Quadrupole: tc.quad}
		want, err := Build(srcs, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.build(srcs, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, got, want, fmt.Sprintf("scratch tree n=%d", tc.n))
	}
}

// TestLETExportReuseSweep exports into one reused buffer over a
// sequence of remote boxes, near and far, and checks every export
// against a fresh one.
func TestLETExportReuseSweep(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 8)
	tr := buildFromSystem(t, s, BuildOptions{})
	var buf []Source
	for i, remote := range []Box{
		{CX: 0, CY: 0, CZ: 0, Half: 1},
		{CX: 100, CY: 0, CZ: 0, Half: 1},
		{CX: 0.5, CY: -0.5, CZ: 0.2, Half: 0.3},
		{CX: 3, CY: 3, CZ: 3, Half: 0.5},
		{CX: -0.1, CY: 0.1, CZ: 0, Half: 2},
	} {
		buf = tr.letExport(buf[:0], remote, 0.7)
		if want := tr.letExport(nil, remote, 0.7); !reflect.DeepEqual(buf, want) {
			t.Fatalf("box %d: reused export of %d sources differs from a fresh export of %d", i, len(buf), len(want))
		}
	}
}

// TestDecodeSourcesBadPayload feeds the wire decoder payloads that are
// not whole sources: it reports the length instead of panicking.
func TestDecodeSourcesBadPayload(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7} {
		err := decodeSourcesInto(make([]Source, n/4), make([]float64, n))
		if err == nil || !strings.Contains(err.Error(), "bad source payload length") {
			t.Fatalf("payload of %d floats: err = %v", n, err)
		}
	}
	if err := decodeSourcesInto(make([]Source, 2), make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCostAllocBound holds the warm parallel step's allocation
// per force-tree source: at gate width 1 one scratch serves every
// rank, so after one step it fits them all and a second ParallelCost
// at p = 8 over Plummer(20000) allocates only for its exchange phase —
// local trees, LET exports, wire buffers. Measured on a 2-vCPU amd64
// host: 117 B per source, against 816 B when every rank built its
// force tree into fresh storage.
func TestParallelCostAllocBound(t *testing.T) {
	const boundBytesPerSource = 150
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	s := nbody.NewPlummer(20000, 1, 2001)
	var bytes uint64
	var sources int64
	for i := 0; i < 2; i++ {
		w, err := mpi.NewWorld(8, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ParallelCost(w, s, ParallelConfig{Theta: 0.7, Eps: s.Eps})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes = after.TotalAlloc - before.TotalAlloc
		sources = int64(s.N()) + res.ImportedSources
	}
	perSource := float64(bytes) / float64(sources)
	t.Logf("%d bytes over %d force-tree sources: %.1f B/source", bytes, sources, perSource)
	if perSource > boundBytesPerSource {
		t.Fatalf("warm ParallelCost allocates %.1f B per force-tree source, bound %d", perSource, boundBytesPerSource)
	}
}
