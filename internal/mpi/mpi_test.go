package mpi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/netsim"
)

func worldSizes() []int { return []int{1, 2, 3, 4, 5, 8, 13, 16} }

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, nil); err == nil {
		t.Fatal("size 0 accepted")
	}
	bad := netsim.FastEthernet()
	bad.BandwidthBps = -1
	if _, err := NewWorld(2, bad); err == nil {
		t.Fatal("bad fabric accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorld(0, netsim.FastEthernet()); err == nil {
		t.Fatal("size 0 accepted")
	}
	bad := netsim.FastEthernet()
	bad.ReduceOpSecPerElem = -1
	if _, err := NewWorld(2, bad); err == nil {
		t.Fatal("negative reduce-op cost accepted")
	}
}

func TestSendRecvBasic(t *testing.T) {
	w, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				return fmt.Errorf("got %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	w, _ := NewWorld(2, nil)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf) // Send copies synchronously…
			buf[0] = 99       // …so this mutation cannot reach the wire.
		} else {
			if got := c.Recv(0, 0); got[0] != 42 {
				return fmt.Errorf("message mutated: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatchPanicsToError(t *testing.T) {
	w, _ := NewWorld(2, nil)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 2)
		}
		return nil
	})
	if err == nil {
		t.Fatal("tag mismatch did not error")
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, p := range worldSizes() {
		w, _ := NewWorld(p, nil)
		counter := make([]int, p)
		err := w.Run(func(c *Comm) error {
			counter[c.Rank()] = 1
			c.Barrier()
			for r, v := range counter {
				if v != 1 {
					return fmt.Errorf("rank %d not arrived before barrier exit (saw from %d)", r, c.Rank())
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range worldSizes() {
		for root := 0; root < p; root++ {
			w, _ := NewWorld(p, nil)
			err := w.Run(func(c *Comm) error {
				buf := make([]float64, 2)
				if c.Rank() == root {
					buf[0], buf[1] = 3.5, float64(root)
				}
				c.BcastInto(root, buf)
				if buf[0] != 3.5 || buf[1] != float64(root) {
					return fmt.Errorf("rank %d got %v", c.Rank(), buf)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range worldSizes() {
		w, _ := NewWorld(p, nil)
		err := w.Run(func(c *Comm) error {
			buf := []float64{float64(c.Rank()), 1}
			isRoot := c.ReduceInto(0, Sum, buf)
			if isRoot != (c.Rank() == 0) {
				return fmt.Errorf("rank %d: ReduceInto reported root=%v", c.Rank(), isRoot)
			}
			if isRoot {
				wantA := float64(p*(p-1)) / 2
				if buf[0] != wantA || buf[1] != float64(p) {
					return fmt.Errorf("reduce got %v", buf)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceMatchesGatherReduceBcastProperty(t *testing.T) {
	// Semantics property: allreduce(op) == what every rank would get from
	// gathering every rank's values and folding them in rank order, and
	// == ReduceInto onto rank 0 followed by BcastInto from it.
	for _, p := range worldSizes() {
		for _, op := range []struct {
			name string
			op   Op
		}{{"sum", Sum}, {"max", Max}, {"min", Min}} {
			w, _ := NewWorld(p, nil)
			err := w.Run(func(c *Comm) error {
				all := []float64{float64((c.Rank()*7)%5) - 2, float64(c.Rank())}
				rb := append([]float64(nil), all...)
				c.AllreduceInto(op.op, all)
				c.ReduceInto(0, op.op, rb)
				c.BcastInto(0, rb)
				// Independent computation of the expected fold.
				want0, want1 := float64((0*7)%5)-2, 0.0
				for r := 1; r < p; r++ {
					want0 = op.op(want0, float64((r*7)%5)-2)
					want1 = op.op(want1, float64(r))
				}
				if all[0] != want0 || all[1] != want1 {
					return fmt.Errorf("rank %d %s: got %v want [%v %v]", c.Rank(), op.name, all, want0, want1)
				}
				if rb[0] != all[0] || rb[1] != all[1] {
					return fmt.Errorf("rank %d %s: reduce+bcast %v, allreduce %v", c.Rank(), op.name, rb, all)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range worldSizes() {
		w, _ := NewWorld(p, nil)
		err := w.Run(func(c *Comm) error {
			all := make([]float64, 2*p)
			c.AllgatherInto([]float64{float64(c.Rank()), float64(c.Rank() * 2)}, all)
			for r := 0; r < p; r++ {
				if all[2*r] != float64(r) || all[2*r+1] != float64(r*2) {
					return fmt.Errorf("rank %d: allgather[%d] = %v", c.Rank(), r, all[2*r:2*r+2])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallInts(t *testing.T) {
	for _, p := range worldSizes() {
		w, _ := NewWorld(p, nil)
		err := w.Run(func(c *Comm) error {
			send := make([][]int64, p)
			for d := range send {
				send[d] = []int64{int64(c.Rank()*100 + d)}
			}
			got := c.AlltoallInts(send)
			for s := 0; s < p; s++ {
				want := int64(s*100 + c.Rank())
				if got[s][0] != want {
					return fmt.Errorf("rank %d: from %d got %v want %d", c.Rank(), s, got[s], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestVirtualTimeP2P(t *testing.T) {
	fab := netsim.FastEthernet()
	w, _ := NewWorld(2, fab)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 1000))
		} else {
			c.Recv(0, 0)
			want := fab.PointToPoint(8000)
			if math.Abs(c.Now()-want) > 1e-9 {
				return fmt.Errorf("receiver clock %g, want %g", c.Now(), want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxTime() <= 0 {
		t.Fatal("MaxTime not advanced")
	}
	if w.TotalBytes() != 8000 {
		t.Fatalf("TotalBytes = %d, want 8000", w.TotalBytes())
	}
	if w.TotalMessages() != 1 {
		t.Fatalf("TotalMessages = %d", w.TotalMessages())
	}
}

func TestVirtualTimeComputeOverlapsAcrossRanks(t *testing.T) {
	// Two ranks computing 1s each in parallel: makespan ~1s, not 2s.
	w, _ := NewWorld(2, netsim.FastEthernet())
	err := w.Run(func(c *Comm) error {
		c.AddCompute(1.0)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mt := w.MaxTime(); mt < 1.0 || mt > 1.01 {
		t.Fatalf("makespan %g, want ≈1s", mt)
	}
}

func TestVirtualTimeBcastMatchesAnalyticalModel(t *testing.T) {
	// The emergent virtual time of the p2p-built broadcast must be within
	// a small factor of netsim's closed-form estimate.
	fab := netsim.FastEthernet()
	for _, p := range []int{2, 4, 8, 16} {
		w, _ := NewWorld(p, fab)
		const n = 1 << 12
		err := w.Run(func(c *Comm) error {
			c.BcastInto(0, make([]float64, n))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := w.MaxTime()
		want := fab.Bcast(p, n*8)
		if got > want*1.5 || got < want*0.3 {
			t.Fatalf("p=%d: emergent bcast time %g vs analytical %g", p, got, want)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w, _ := NewWorld(4, netsim.FastEthernet())
	times := make([]float64, 4)
	err := w.Run(func(c *Comm) error {
		c.AddCompute(float64(c.Rank()) * 0.1) // skewed loads
		c.Barrier()
		times[c.Rank()] = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All clocks must be at least the slowest rank's pre-barrier time.
	for r, ti := range times {
		if ti < 0.3 {
			t.Fatalf("rank %d clock %g below straggler time 0.3", r, ti)
		}
	}
}

func TestAddComputeNegativePanics(t *testing.T) {
	w, _ := NewWorld(1, nil)
	err := w.Run(func(c *Comm) error {
		c.AddCompute(-1)
		return nil
	})
	if err == nil {
		t.Fatal("negative compute accepted")
	}
}

func TestSelfSendPanicsToError(t *testing.T) {
	w, _ := NewWorld(2, nil)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(0, 0, []float64{1})
		}
		return nil
	})
	if err == nil {
		t.Fatal("self-send accepted")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	w, _ := NewWorld(3, nil)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("rank 1 failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
}
