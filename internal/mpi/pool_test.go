package mpi

import "testing"

func TestClassForStoreClassForInvariants(t *testing.T) {
	if classFor(0) != 0 || classFor(1) != 0 {
		t.Fatal("degenerate acquire classes wrong")
	}
	if classFor(2) != 1 || classFor(3) != 2 || classFor(4) != 2 || classFor(5) != 3 {
		t.Fatal("small acquire classes wrong")
	}
	if storeClassFor(0) != -1 || storeClassFor(1) != 0 || storeClassFor(3) != 1 || storeClassFor(4) != 2 {
		t.Fatal("small store classes wrong")
	}
	if storeClassFor(1<<poolClasses) != -1 {
		t.Fatal("oversized capacity must not be pooled")
	}
	// The load-bearing invariant: any buffer stored under class k has
	// cap >= 2^k, and any request routed to class k needs <= 2^k
	// elements, so a pooled buffer always satisfies the request.
	for n := 1; n <= 1<<12; n++ {
		k := classFor(n)
		if 1<<k < n {
			t.Fatalf("classFor(%d) = %d but 2^%d < %d", n, k, k, n)
		}
		if s := storeClassFor(1 << k); s != k {
			t.Fatalf("storeClassFor(2^%d) = %d", k, s)
		}
	}
	for c := 1; c <= 1<<12; c++ {
		k := storeClassFor(c)
		if k >= 0 && 1<<k > c {
			t.Fatalf("storeClassFor(%d) = %d but 2^%d > %d", c, k, k, c)
		}
	}
}

func TestPoolRoundTripReusesBuffers(t *testing.T) {
	var p bufPool
	a := p.acquireF64(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("acquire(100): len=%d cap=%d", len(a), cap(a))
	}
	p.releaseF64(a)
	b := p.acquireF64(90) // same class: must reuse a's array
	if &a[:1][0] != &b[0] {
		t.Fatal("round trip did not reuse the released buffer")
	}
	if p.hits != 1 || p.misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", p.hits, p.misses)
	}
	c := p.acquireF64(300) // different class: fresh allocation
	if cap(c) != 512 || p.misses != 2 {
		t.Fatalf("cross-class acquire: cap=%d misses=%d", cap(c), p.misses)
	}
}

func TestPoolTypedFreelistsAreIndependent(t *testing.T) {
	var p bufPool
	f := p.acquireF64(10)
	p.releaseF64(f)
	i := p.acquireI64(10) // must not collide with the f64 freelist
	if p.hits != 0 {
		t.Fatal("i64 acquire hit the f64 freelist")
	}
	p.releaseI64(i)
	if got := p.acquireI64(9); &got[0] != &i[:1][0] {
		t.Fatal("i64 freelist did not round-trip")
	}
	if got := p.acquireF64(9); &got[0] != &f[:1][0] {
		t.Fatal("f64 freelist did not round-trip")
	}
	if p.hits != 2 {
		t.Fatalf("hits = %d, want one per typed round trip", p.hits)
	}
}

func TestPoolDepthBounded(t *testing.T) {
	var p bufPool
	bufs := make([][]float64, 0, poolDepth+10)
	for i := 0; i < poolDepth+10; i++ {
		bufs = append(bufs, make([]float64, 8, 8))
	}
	for _, b := range bufs {
		p.releaseF64(b)
	}
	if got := len(p.f64[3]); got != poolDepth {
		t.Fatalf("freelist holds %d buffers, cap is %d", got, poolDepth)
	}
}

func TestCopyF64UsesPool(t *testing.T) {
	var p bufPool
	seed := p.acquireF64(4) // class 2, the class a 3-element copy draws from
	p.releaseF64(seed)
	got := p.copyF64([]float64{1, 2, 3})
	if p.hits != 1 {
		t.Fatal("copyF64 did not draw from the pool")
	}
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("copyF64 content: %v", got)
	}
}
