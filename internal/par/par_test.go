package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestChunkBoundsCoverExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1023, 1024, 1025, 10000} {
		for _, grain := range []int{0, 1, 7, 1024} {
			nc := NumChunks(n, grain)
			next := 0
			for c := 0; c < nc; c++ {
				lo, hi := ChunkBounds(n, grain, c)
				if lo != next {
					t.Fatalf("n=%d grain=%d chunk %d starts at %d, want %d", n, grain, c, lo, next)
				}
				if hi <= lo {
					t.Fatalf("n=%d grain=%d chunk %d empty [%d,%d)", n, grain, c, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d grain=%d chunks cover %d", n, grain, next)
			}
		}
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	const n = 10007
	for _, w := range []int{1, 2, 8} {
		counts := make([]atomic.Int32, n)
		New(w).For(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("w=%d index %d visited %d times", w, i, c)
			}
		}
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		var ran atomic.Int32
		tasks := make([]func(), 13)
		for i := range tasks {
			tasks[i] = func() { ran.Add(1) }
		}
		New(w).Do(tasks...)
		if got := ran.Load(); got != 13 {
			t.Fatalf("w=%d ran %d of 13 tasks", w, got)
		}
	}
}

func TestWorkersDefaultAndOverride(t *testing.T) {
	defer SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("after SetWorkers(3), Workers() = %d", got)
	}
	if got := New(5).width(); got != 5 {
		t.Fatalf("explicit pool width = %d, want 5", got)
	}
	if got := Default().width(); got != 3 {
		t.Fatalf("default pool width = %d, want 3", got)
	}
	SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("after reset, Workers() = %d, want %d", got, want)
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	p := New(8)
	p.For(0, 16, func(lo, hi int) { t.Fatal("called on empty range") })
	p.Do()
	var n atomic.Int32
	p.For(1, 16, func(lo, hi int) { n.Add(int32(hi - lo)) })
	if n.Load() != 1 {
		t.Fatalf("single-element For covered %d", n.Load())
	}
}
