package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFabricsValidate(t *testing.T) {
	for _, f := range []*Fabric{FastEthernet(), Ethernet10(), GigabitEthernet()} {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
	bad := FastEthernet()
	bad.BandwidthBps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = FastEthernet()
	bad.Hops = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero hops accepted")
	}
	bad = FastEthernet()
	bad.HopLatency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestPointToPointZeroBytesIsLatencyOnly(t *testing.T) {
	f := FastEthernet()
	want := f.SoftwareOverhead + 2*f.HopLatency
	if got := f.PointToPoint(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PointToPoint(0) = %g, want %g", got, want)
	}
}

func TestPointToPointMonotoneInSize(t *testing.T) {
	f := FastEthernet()
	prev := 0.0
	for _, n := range []int{0, 1, 100, 1460, 1461, 10000, 1 << 20} {
		got := f.PointToPoint(n)
		if got < prev {
			t.Fatalf("PointToPoint(%d) = %g < previous %g", n, got, prev)
		}
		prev = got
	}
}

func TestLargeMessageApproachesWireBandwidth(t *testing.T) {
	f := FastEthernet()
	// 10 MB on 100 Mb/s with store-and-forward over 2 hops: roughly
	// 2 × 0.84 s; effective payload bandwidth ≈ 100e6/8/2 × payload ratio.
	const bytes = 10 << 20
	eff := bytes / f.PointToPoint(bytes)
	wire := f.BandwidthBps / 8 / float64(f.Hops)
	if eff > wire {
		t.Fatalf("effective bandwidth %g exceeds wire ceiling %g", eff, wire)
	}
	if eff < wire*0.9 {
		t.Fatalf("effective bandwidth %g too far below ceiling %g for a huge message", eff, wire)
	}
}

func TestFasterFabricIsFaster(t *testing.T) {
	slow, mid, fast := Ethernet10(), FastEthernet(), GigabitEthernet()
	for _, n := range []int{1000, 100000, 1 << 20} {
		if !(slow.PointToPoint(n) > mid.PointToPoint(n) && mid.PointToPoint(n) > fast.PointToPoint(n)) {
			t.Fatalf("bandwidth ordering violated at %d bytes", n)
		}
	}
}

func TestCollectivesDegenerateAtP1(t *testing.T) {
	f := FastEthernet()
	if f.Barrier(1) != 0 || f.Bcast(1, 100) != 0 || f.Allreduce(1, 100) != 0 ||
		f.Reduce(1, 100) != 0 || f.FanIn(1, 100) != 0 || f.BcastPipelined(1, 100, 10) != 0 {
		t.Fatal("single-node collectives must cost 0")
	}
}

func TestCollectiveScaling(t *testing.T) {
	f := FastEthernet()
	// log-tree collectives grow ~log p; ring collectives grow ~linearly.
	if f.Bcast(16, 1000) != 4*f.PointToPoint(1000) {
		t.Fatal("Bcast(16) != 4 rounds")
	}
	if f.Barrier(8) != 3*f.PointToPoint(0) {
		t.Fatal("Barrier(8) != 3 rounds")
	}
	if f.BcastPipelined(8, 1000, 1000) != 7*f.PointToPoint(1000) {
		t.Fatal("one-segment BcastPipelined(8) != 7 ring hops")
	}
	if f.Allreduce(4, 64) != f.Reduce(4, 64)+f.Bcast(4, 64) {
		t.Fatal("Allreduce != Reduce + Bcast")
	}
}

func TestCollectivesMonotoneInP(t *testing.T) {
	f := FastEthernet()
	check := func(name string, fn func(p int) float64) {
		prev := -1.0
		for p := 1; p <= 64; p *= 2 {
			v := fn(p)
			if v < prev {
				t.Fatalf("%s not monotone at p=%d: %g < %g", name, p, v, prev)
			}
			prev = v
		}
	}
	check("barrier", func(p int) float64 { return f.Barrier(p) })
	check("bcast", func(p int) float64 { return f.Bcast(p, 4096) })
	check("allreduce", func(p int) float64 { return f.Allreduce(p, 4096) })
	check("reduce", func(p int) float64 { return f.Reduce(p, 4096) })
	check("bcast/pipelined", func(p int) float64 { return f.BcastPipelined(p, 4096, 1024) })
}

func TestPointToPointPropertyPositive(t *testing.T) {
	f := FastEthernet()
	fn := func(n int) bool {
		if n < 0 {
			n = -n
		}
		n = n % (1 << 24)
		v := f.PointToPoint(n)
		return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFramingOverheadCharged(t *testing.T) {
	f := FastEthernet()
	// 1461 bytes needs two frames; must cost more than 1460 by at least a
	// header's worth of wire time.
	d1 := f.PointToPoint(1460)
	d2 := f.PointToPoint(1461)
	headerTime := 78 * 8 / f.BandwidthBps
	if d2-d1 < headerTime {
		t.Fatalf("second frame not charged: Δ=%g", d2-d1)
	}
}
