package mpi

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// substrateAllocs returns how many heap objects the substrate's own
// code has allocated so far, by allocating call site ("function
// file:line"): the memory-profile records whose allocating call site,
// the first frame above the runtime's malloc entry, lies in a non-test
// source file of this package. Callers set runtime.MemProfileRate to 1
// first, so every allocation is recorded. Counting call sites, not the
// process-wide MemStats.Mallocs, keeps the count blind to the runtime's
// own allocations (the race detector's among them) and to the measuring
// itself.
//
// Sudogs are the runtime's too: the wait record a goroutine takes when
// it blocks in a select, channel operation or contended lock. The
// runtime recycles them through per-P caches and a central cache, and
// every GC empties the central cache — the runtime.GC below included —
// so a parked rank may allocate one afresh in take's select depending
// on which P it runs on. A record whose stack passes through
// runtime.acquireSudog is not the substrate's.
func substrateAllocs() map[string]int64 {
	runtime.GC() // publish every allocation made so far to the profile
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	sites := map[string]int64{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "runtime.acquireSudog" {
				break
			}
			if !strings.HasPrefix(f.Function, "runtime.") {
				if strings.HasPrefix(f.Function, "repro/internal/mpi.") && !strings.HasSuffix(f.File, "_test.go") {
					sites[fmt.Sprintf("%s %s:%d", f.Function, filepath.Base(f.File), f.Line)] += r.AllocObjects
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return sites
}

// allocDelta is after − before per call site: the total and one
// "count site" line per site that allocated, most first.
func allocDelta(before, after map[string]int64) (int64, []string) {
	var total int64
	var lines []string
	for site, n := range after {
		if d := n - before[site]; d > 0 {
			total += d
			lines = append(lines, fmt.Sprintf("%6d %s", d, site))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(lines)))
	return total, lines
}

// allreduceAllocs runs iters in-place allreduces on every rank of a
// p-rank world, after a warmup that fills the buffer pools, and returns
// the substrate's allocations across the measured phase, in total and
// by call site. The measurement is bracketed by barrier pairs: a rank
// cannot leave a dissemination barrier before every rank has entered
// it, so rank 0's readings happen strictly before and strictly after
// all measured work, and barrier messages themselves carry no payload.
func allreduceAllocs(t *testing.T, p, n, iters int) (int64, []string) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	w, err := NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after map[string]int64
	err = w.Run(func(c *Comm) error {
		buf := make([]float64, n)
		for i := 0; i < 8; i++ { // warmup: reach buffer-flow equilibrium
			buf[0] = float64(c.Rank() + i)
			c.AllreduceInto(Sum, buf)
		}
		c.Barrier()
		if c.Rank() == 0 {
			before = substrateAllocs()
		}
		c.Barrier() // nobody starts measured work before the reading
		for i := 0; i < iters; i++ {
			buf[0] = float64(c.Rank() - i)
			c.AllreduceInto(Sum, buf)
		}
		c.Barrier() // all measured work done before the reading
		if c.Rank() == 0 {
			after = substrateAllocs()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total, sites := allocDelta(before, after)
	return total, sites
}

func TestAllreduceSteadyStateAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const iters = 300
	got, sites := allreduceAllocs(t, 8, 64, iters)
	// The steady state must be allocation-free: every wire buffer comes
	// from a pool, and the reduce-down/bcast-up flow returns exactly as
	// many buffers to each rank as it sends. The slack allowed is far
	// below one allocation per operation.
	if got > iters/10 {
		t.Fatalf("pooled allreduce steady state: %d substrate allocations over %d iterations, by site:\n%s",
			got, iters, strings.Join(sites, "\n"))
	}
}

// TestAllreducePoolStatsExact pins the pool on BenchmarkMPIAllreduce's
// program — 8 ranks on Fast Ethernet, in-place allreduces of 512
// float64s — to exact hit and miss counts. Each allreduce draws 14
// wire buffers (7 reduce sends up the binomial tree, 7 broadcast sends
// down it). The first misses 4 of them and fills the pools; every later
// one is served entirely from the pools. A world that stopped pooling
// fails on hits, one that leaked buffers on misses.
func TestAllreducePoolStatsExact(t *testing.T) {
	const wirePerAllreduce, coldMisses = 14, 4
	for _, ops := range []int{1, 2, 100} {
		w, err := NewWorld(8, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			buf := make([]float64, 512)
			for i := 0; i < ops; i++ {
				buf[0] = float64(c.Rank() + i)
				c.AllreduceInto(Sum, buf)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := w.PoolStats()
		if wantHits := int64(wirePerAllreduce*ops - coldMisses); hits != wantHits || misses != coldMisses {
			t.Errorf("%d allreduces: pool hits %d misses %d, want %d and %d",
				ops, hits, misses, wantHits, coldMisses)
		}
	}
}

func TestPoolStatsDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		w, err := NewWorld(6, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			buf := make([]float64, 100)
			for i := 0; i < 20; i++ {
				buf[0] = float64(c.Rank())
				c.AllreduceInto(Sum, buf)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.PoolStats()
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("pool stats vary across identical runs: (%d,%d) vs (%d,%d)", h1, m1, h2, m2)
	}
	if h1 == 0 {
		t.Fatal("no pool hits in a repeated allreduce")
	}
}

func TestEagerAndRendezvousAccounting(t *testing.T) {
	big := DefaultRendezvousThreshold / 8 // floats: exactly at the threshold
	w, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3}) // copied: eager
			own := c.AcquireF64(big)
			own[0] = 42
			c.SendOwned(1, 1, own) // ownership transfer: rendezvous
		} else {
			c.ReleaseF64(c.Recv(0, 0))
			got := c.Recv(0, 1)
			if got[0] != 42 {
				return fmt.Errorf("owned payload corrupted: %v", got[0])
			}
			c.ReleaseF64(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewSnapshot()
	w.Collect(s)
	if got := s.Counter("mpi.msgs.eager"); got != 1 {
		t.Errorf("mpi.msgs.eager = %d, want 1", got)
	}
	if got := s.Counter("mpi.msgs.rendezvous"); got != 1 {
		t.Errorf("mpi.msgs.rendezvous = %d, want 1", got)
	}
}

func TestSendOwnedTransfersBackingArray(t *testing.T) {
	w, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sentPtr, gotPtr *float64
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := c.AcquireF64(16)
			sentPtr = &buf[0]
			c.SendOwned(1, 0, buf)
		} else {
			got := c.Recv(0, 0)
			gotPtr = &got[0]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sentPtr != gotPtr {
		t.Fatal("SendOwned copied the payload instead of transferring it")
	}
}

func TestCollectiveByteAccounting(t *testing.T) {
	w, err := NewWorld(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		buf := make([]float64, 32)
		c.AllreduceInto(Sum, buf)
		if c.Rank() == 0 {
			c.Send(1, 9, make([]float64, 10))
		} else if c.Rank() == 1 {
			c.ReleaseF64(c.Recv(0, 9))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewSnapshot()
	w.Collect(s)
	if got := s.Counter("mpi.bytes.p2p"); got != 80 {
		t.Errorf("mpi.bytes.p2p = %d, want 80", got)
	}
	if got := s.Counter("mpi.bytes.allreduce"); got == 0 {
		t.Error("allreduce traffic not attributed to mpi.bytes.allreduce")
	}
	var byCtx uint64
	for _, name := range ctxNames {
		byCtx += s.Counter("mpi.bytes." + name)
	}
	if byCtx != uint64(w.TotalBytes()) {
		t.Errorf("per-collective bytes sum to %d, world total is %d", byCtx, w.TotalBytes())
	}
}

// TestWorldCollectVocabulary pins the metrics Collect writes (name,
// kind and unit, in the snapshot's sorted order) and checks that the
// world totals equal the accessors nas and treecode read.
func TestWorldCollectVocabulary(t *testing.T) {
	w, err := NewWorld(5, netsim.FastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		buf := make([]float64, 16)
		c.AllreduceInto(Sum, buf)
		all := make([]float64, 2*c.Size())
		c.AllgatherInto(buf[:2], all)
		send := make([][]int64, c.Size())
		for d := range send {
			send[d] = []int64{int64(d)}
		}
		for _, row := range c.AlltoallInts(send) {
			c.ReleaseI64(row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewSnapshot()
	s.Gather(w)
	want := []obs.Metric{
		{Name: "mpi.bytes.allgather", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.bytes.allreduce", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.bytes.alltoall", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.bytes.barrier", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.bytes.bcast", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.bytes.p2p", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.bytes.reduce", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.bytes.total", Kind: obs.KindCounter, Unit: "bytes"},
		{Name: "mpi.messages.total", Kind: obs.KindCounter},
		{Name: "mpi.msgs.eager", Kind: obs.KindCounter},
		{Name: "mpi.msgs.rendezvous", Kind: obs.KindCounter},
		{Name: "mpi.pool.hits", Kind: obs.KindCounter},
		{Name: "mpi.pool.misses", Kind: obs.KindCounter},
		{Name: "mpi.ranks", Kind: obs.KindGauge},
		{Name: "mpi.time.max", Kind: obs.KindGauge, Unit: "s"},
	}
	got := s.Samples()
	if len(got) != len(want) {
		t.Errorf("Collect wrote %d samples, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i].Metric != want[i] {
			t.Errorf("sample %d: got %+v, want %+v", i, got[i].Metric, want[i])
		}
	}
	if got := s.Counter("mpi.bytes.total"); got != uint64(w.TotalBytes()) {
		t.Errorf("mpi.bytes.total = %d, TotalBytes = %d", got, w.TotalBytes())
	}
	if got := s.Counter("mpi.messages.total"); got != uint64(w.TotalMessages()) {
		t.Errorf("mpi.messages.total = %d, TotalMessages = %d", got, w.TotalMessages())
	}
	if m, _ := s.Lookup("mpi.time.max"); m.Float != w.MaxTime() {
		t.Errorf("mpi.time.max = %v, MaxTime = %v", m.Float, w.MaxTime())
	}
}

// TestDeadlockDiagnostic: a receive no rank will ever satisfy fails at
// once, with no timeout, and the error names every rank's state — for
// a peer that exited and for a receive cycle with no rank finished.
func TestDeadlockDiagnostic(t *testing.T) {
	for _, tc := range []struct {
		p    int
		prog func(c *Comm)
		want []string
	}{
		{2, func(c *Comm) {
			if c.Rank() == 0 {
				c.Recv(1, 42) // never sent: rank 1 exits immediately
			}
		}, []string{"rank 0: blocked in recv(src=1, tag=42)", "rank 1: finished"}},
		{3, func(c *Comm) {
			c.Recv((c.Rank()+1)%3, 7) // everyone waits, nobody sends
		}, []string{"rank 0: blocked in recv(src=1, tag=7)", "rank 2: blocked in recv(src=0, tag=7)"}},
	} {
		w, err := NewWorld(tc.p, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error { tc.prog(c); return nil })
		if err == nil {
			t.Fatalf("p=%d: deadlocked run did not error", tc.p)
		}
		for _, want := range append(tc.want, "deadlock") {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("p=%d: diagnostic %q missing from error: %v", tc.p, want, err)
			}
		}
	}
}

// TestRankErrorDoesNotStallPeers: when a rank fails while a peer waits
// to receive from it, Run returns the failing rank's own error at once
// — not after a timeout, and not the peer's deadlock report.
func TestRankErrorDoesNotStallPeers(t *testing.T) {
	boom := errors.New("boom")
	for failing := 0; failing < 2; failing++ {
		w, err := NewWorld(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		err = w.Run(func(c *Comm) error {
			if c.Rank() == failing {
				return boom
			}
			c.Recv(failing, 0)
			return nil
		})
		if el := time.Since(t0); el > time.Second {
			t.Errorf("rank %d failing: Run took %v", failing, el)
		}
		if !errors.Is(err, boom) {
			t.Errorf("rank %d failing: Run returned %v, want the rank's own error", failing, err)
		}
	}
}

// TestSlowRanksNotDeadlock: ranks that sleep between barriers, each for
// a different time, keep their peers parked for long stretches; a rank
// that is computing is never counted as blocked, so this is never
// flagged.
func TestSlowRanksNotDeadlock(t *testing.T) {
	w, err := NewWorld(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		for i := 0; i < 4; i++ {
			time.Sleep(time.Duration(10*(c.Rank()+1)) * time.Millisecond)
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("healthy run flagged: %v", err)
	}
}

// collectiveTime runs one collective on a fresh world and returns the
// emergent makespan.
func collectiveTime(t *testing.T, p, n int, body func(c *Comm, buf []float64)) float64 {
	t.Helper()
	w, err := NewWorld(p, netsim.FastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(c.Rank() + i)
		}
		body(c, buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxTime()
}

func TestEmergentTimesTrackAnalyticalFormulas(t *testing.T) {
	// The virtual times that emerge from the message-by-message
	// simulation must track netsim's closed-form estimates across rank
	// counts and payload sizes, for the classic collectives and for the
	// recursive-doubling and pipelined-ring references (native_test.go).
	// The windows are deliberately loose for the classic tree
	// algorithms (the formulas idealize away relay serialization) and
	// tighter for the references, which mirror their formulas.
	fab := netsim.FastEthernet()
	sizes := []int{8, 1 << 10, 64 << 10, 4 << 20}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, p := range []int{2, 4, 8, 16, 24, 32} {
		for _, bytes := range sizes {
			n := bytes / 8
			type tc struct {
				name   string
				got    float64
				want   float64
				lo, hi float64
			}
			cases := []tc{
				{"allreduce/classic",
					collectiveTime(t, p, n, func(c *Comm, buf []float64) { c.AllreduceInto(Sum, buf) }),
					fab.Allreduce(p, bytes), 0.25, 2.0},
				{"allreduce/recdbl",
					collectiveTime(t, p, n, func(c *Comm, buf []float64) { c.allreduceRecDbl(Sum, buf) }),
					fab.AllreduceRecDbl(p, bytes), 0.5, 1.6},
				{"bcast/classic",
					collectiveTime(t, p, n, func(c *Comm, buf []float64) { c.BcastInto(0, buf) }),
					fab.Bcast(p, bytes), 0.25, 2.0},
				{"bcast/pipelined",
					collectiveTime(t, p, n, func(c *Comm, buf []float64) { c.bcastPipeInto(0, buf) }),
					fab.BcastPipelined(p, bytes, segBytes), 0.5, 1.6},
			}
			for _, c := range cases {
				if c.got < c.want*c.lo || c.got > c.want*c.hi {
					t.Errorf("p=%d bytes=%d %s: emergent %.3g vs analytical %.3g (ratio %.2f)",
						p, bytes, c.name, c.got, c.want, c.got/c.want)
				}
			}
		}
	}
}

// TestWarmPoolCollectivesBitIdentical: a pooled buffer comes back with
// whatever its last user left in it. Every collective must give the
// same bits from warm pools, on the second run of a world, as from
// the cold pools of a fresh one.
func TestWarmPoolCollectivesBitIdentical(t *testing.T) {
	run := func(w *World) []uint64 {
		bits := make([]uint64, w.Size())
		err := w.Run(func(c *Comm) error {
			buf := make([]float64, 50)
			for i := range buf {
				buf[i] = math.Sqrt(float64(c.Rank()*100 + i + 2))
			}
			c.AllreduceInto(Sum, buf)
			c.BcastInto(3, buf)
			c.ReduceInto(0, Sum, buf)
			all := make([]float64, 5*c.Size())
			c.AllgatherInto(buf[:5], all)
			var s float64
			for _, v := range all {
				s += v
			}
			for _, v := range buf {
				s += v
			}
			bits[c.Rank()] = math.Float64bits(s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bits
	}
	mk := func() *World {
		w, err := NewWorld(9, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cold := run(mk())
	w := mk()
	run(w)
	h0, _ := w.PoolStats()
	warm := run(w)
	if h1, _ := w.PoolStats(); h1 == h0 {
		t.Fatal("second run drew nothing from the pools")
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("rank %d results differ: cold pools %x vs warm %x", i, cold[i], warm[i])
		}
	}
}

// TestExactPredictorsMatchEmergent pins the closed forms in netsim
// against the emergent virtual times of the substrate: AllreduceTime,
// BcastTime, ReduceTime and FanInTime must equal the measured makespan
// bit-for-bit on every topology, across payload sizes (8 B – 4 MB)
// and world sizes 2..64.
func TestExactPredictorsMatchEmergent(t *testing.T) {
	mkFab := func(topo string, p int) *netsim.Fabric {
		f := netsim.FastEthernet()
		if err := netsim.ApplyTopology(f, topo, p); err != nil {
			t.Fatal(err)
		}
		return f
	}
	measure := func(f *netsim.Fabric, p int, prog func(c *Comm)) float64 {
		w, err := NewWorld(p, f)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error { prog(c); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	for _, topo := range []string{"star", "fattree", "torus2d", "torus3d"} {
		for _, p := range []int{2, 3, 5, 8, 16, 24, 64} {
			for _, elems := range []int{1, 512, 4096, 512 << 10} {
				if elems == 512<<10 && p > 8 {
					continue // 4 MB buffers: keep host memory sane
				}
				bytes := 8 * elems
				f := mkFab(topo, p)
				cases := []struct {
					name string
					want float64
					prog func(c *Comm)
				}{
					{"allreduce", f.AllreduceTime(p, bytes), func(c *Comm) {
						buf := make([]float64, elems)
						c.AllreduceInto(Sum, buf)
					}},
					{"bcast", f.BcastTime(p, bytes), func(c *Comm) {
						buf := make([]float64, elems)
						c.BcastInto(0, buf)
					}},
					{"reduce", f.ReduceTime(p, bytes), func(c *Comm) {
						buf := make([]float64, elems)
						c.ReduceInto(0, Sum, buf)
					}},
					{"fanin", f.FanInTime(p, bytes), func(c *Comm) {
						if c.Rank() == 0 {
							for src := 1; src < p; src++ {
								c.ReleaseF64(c.Recv(src, 0))
							}
						} else {
							c.Send(0, 0, make([]float64, elems))
						}
					}},
				}
				for _, tc := range cases {
					got := measure(f, p, tc.prog)
					if math.Float64bits(got) != math.Float64bits(tc.want) {
						t.Errorf("%s/%s p=%d bytes=%d: emergent %.17g, predicted %.17g",
							topo, tc.name, p, bytes, got, tc.want)
					}
				}
			}
		}
	}
}
