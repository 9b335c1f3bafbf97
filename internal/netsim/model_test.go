package netsim

import (
	"math"
	"testing"
)

func TestReduceChargesCombiningCost(t *testing.T) {
	f := FastEthernet()
	for _, p := range []int{2, 4, 16, 24} {
		const b = 1 << 20
		rounds := math.Ceil(math.Log2(float64(p)))
		want := rounds * (f.PointToPoint(b) + f.ReduceOpSecPerElem*float64(b)/8)
		if got := f.Reduce(p, b); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("Reduce(%d, %d) = %g, want %g", p, b, got, want)
		}
	}
	if f.Reduce(1, 100) != 0 {
		t.Fatal("single-node reduce must cost 0")
	}
}

func TestReduceSeparatesFromBcast(t *testing.T) {
	// Reduce is no longer an alias of Bcast: the same tree of messages
	// plus a per-level elementwise combine, so it is strictly costlier
	// for any non-empty payload.
	f := FastEthernet()
	for _, p := range []int{2, 8, 24} {
		for _, b := range []int{8, 4096, 1 << 22} {
			r, bc := f.Reduce(p, b), f.Bcast(p, b)
			if r <= bc {
				t.Fatalf("Reduce(%d, %d) = %g not above Bcast = %g", p, b, r, bc)
			}
		}
	}
	if f.ReduceOpSecPerElem <= 0 {
		t.Fatal("FastEthernet must set a combining cost")
	}
}

func TestValidateRejectsNegativeReduceOpCost(t *testing.T) {
	f := FastEthernet()
	f.ReduceOpSecPerElem = -1e-9
	if err := f.Validate(); err == nil {
		t.Fatal("negative ReduceOpSecPerElem accepted")
	}
}

func TestAllreduceRecDblCheaperThanReduceBcast(t *testing.T) {
	// Recursive doubling halves the round count for power-of-two p:
	// log2(p) exchange rounds against the classic reduce+bcast's
	// 2·log2(p).
	f := FastEthernet()
	for p := 2; p <= 32; p *= 2 {
		for _, b := range []int{64, 1 << 20} {
			if f.AllreduceRecDbl(p, b) >= f.Allreduce(p, b) {
				t.Fatalf("RecDbl(%d, %d) = %g not below classic %g",
					p, b, f.AllreduceRecDbl(p, b), f.Allreduce(p, b))
			}
		}
	}
	if f.AllreduceRecDbl(1, 100) != 0 {
		t.Fatal("single-node allreduce must cost 0")
	}
	// Non-power-of-two p pays the fold-in/copy-out surcharge over the
	// contained power of two.
	if f.AllreduceRecDbl(5, 1024) <= f.AllreduceRecDbl(4, 1024) {
		t.Fatal("p=5 must cost more than p=4")
	}
}

func TestBcastPipelinedBeatsTreeForLargePayloads(t *testing.T) {
	f := FastEthernet()
	if got, tree := f.BcastPipelined(16, 4<<20, 8<<10), f.Bcast(16, 4<<20); got >= tree {
		t.Fatalf("pipelined bcast %g not below tree bcast %g", got, tree)
	}
	// Degenerate cases: one node, empty payload, one segment.
	if f.BcastPipelined(1, 100, 8192) != 0 || f.BcastPipelined(8, 0, 8192) != 0 {
		t.Fatal("degenerate pipelined bcast must cost 0")
	}
	if got, want := f.BcastPipelined(2, 100, 8192), f.PointToPoint(100); got != want {
		t.Fatalf("single-segment p=2 pipeline = %g, want one point-to-point %g", got, want)
	}
}
