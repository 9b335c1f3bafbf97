package mpi

import (
	"fmt"
	"math"
	"testing"
)

// The two collectives below are the message-level references for two
// of netsim's closed forms that the design search prices: recursive
// doubling (netsim.Fabric.AllreduceRecDbl) and the pipelined ring
// broadcast (netsim.Fabric.BcastPipelined). They run on the
// substrate's point-to-point sends, so
// TestEmergentTimesTrackAnalyticalFormulas can hold the formulas to
// the virtual times the fabric model gives them. The library itself
// runs only the classic collectives.

// Tags of the reference collectives; the library's collectives use
// neither.
const (
	tagAllreduce = -8
	tagBcastPipe = -9
)

// segBytes is the pipelined broadcast's segment size.
const segBytes = 8 << 10

// bcastPipeInto is the pipelined ring broadcast, in segBytes segments.
// Rank root feeds segments around the ring; every rank forwards a
// segment as soon as it lands, so the virtual-time cost approaches
// (p-2+nseg)·PTP(segment) — the netsim.BcastPipelined formula —
// instead of the binomial ceil(log2 p)·PTP(total).
func (c *Comm) bcastPipeInto(root int, buf []float64) {
	p := c.Size()
	if p == 1 || len(buf) == 0 {
		return
	}
	const seg = segBytes / 8
	vrank := (c.rank - root + p) % p
	next := (c.rank + 1) % p
	prevRank := (c.rank - 1 + p) % p
	for off := 0; off < len(buf); off += seg {
		end := min(off+seg, len(buf))
		if vrank > 0 {
			m := c.recv(prevRank, tagBcastPipe)
			if len(m.f64) != end-off {
				panic(fmt.Sprintf("mpi: bcast segment mismatch %d vs %d", len(m.f64), end-off))
			}
			copy(buf[off:end], m.f64)
			c.pool.releaseF64(m.f64)
		}
		if vrank < p-1 {
			c.sendF64(next, tagBcastPipe, buf[off:end], false)
		}
	}
}

// allreduceRecDbl is the recursive-doubling allreduce: exchange over the
// largest power-of-two subset, with the leftover ranks folded in before
// and copied out after (the MPICH scheme). Partial results are always
// combined in canonical block order — op(lower block, higher block) — so
// every rank evaluates the same reduction tree and the result is
// bit-identical across ranks even for non-associative float addition.
func (c *Comm) allreduceRecDbl(op Op, buf []float64) {
	p := c.Size()
	if p == 1 {
		return
	}
	q := 1
	for q*2 <= p {
		q *= 2
	}
	extra := p - q
	r := c.rank
	newrank := r - extra
	if r < 2*extra {
		if r%2 == 0 {
			// Fold this rank's block into r+1, then sit out the exchange.
			c.sendF64(r+1, tagAllreduce, buf, false)
			newrank = -1
		} else {
			m := c.recv(r-1, tagAllreduce)
			if len(m.f64) != len(buf) {
				panic(fmt.Sprintf("mpi: allreduce length mismatch %d vs %d", len(m.f64), len(buf)))
			}
			for i := range buf {
				buf[i] = op(m.f64[i], buf[i]) // r-1 is the lower block
			}
			c.pool.releaseF64(m.f64)
			newrank = r / 2
		}
	}
	if newrank >= 0 {
		for dist := 1; dist < q; dist *= 2 {
			pn := newrank ^ dist
			partner := pn + extra
			if pn < extra {
				partner = pn*2 + 1
			}
			c.sendF64(partner, tagAllreduce, buf, false)
			m := c.recv(partner, tagAllreduce)
			if len(m.f64) != len(buf) {
				panic(fmt.Sprintf("mpi: allreduce length mismatch %d vs %d", len(m.f64), len(buf)))
			}
			if newrank < pn {
				for i := range buf {
					buf[i] = op(buf[i], m.f64[i])
				}
			} else {
				for i := range buf {
					buf[i] = op(m.f64[i], buf[i])
				}
			}
			c.pool.releaseF64(m.f64)
		}
	}
	if r < 2*extra {
		if r%2 == 0 {
			m := c.recv(r+1, tagAllreduce)
			copy(buf, m.f64)
			c.pool.releaseF64(m.f64)
		} else {
			c.sendF64(r-1, tagAllreduce, buf, false)
		}
	}
}

func TestNativeBcastAllSizesAllRoots(t *testing.T) {
	// A buffer of several segments plus a partial one drives the
	// pipelined ring through its full and short segments.
	for _, p := range worldSizes() {
		for root := 0; root < p; root++ {
			w, err := NewWorld(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *Comm) error {
				const n = 3*segBytes/8 + 100 // three 8 KiB segments and a short fourth
				buf := make([]float64, n)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = float64(root*1000 + i)
					}
				}
				c.bcastPipeInto(root, buf)
				for i := range buf {
					if buf[i] != float64(root*1000+i) {
						return fmt.Errorf("rank %d buf[%d] = %v", c.Rank(), i, buf[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestNativeAllreduceCorrectAndBitIdenticalAcrossRanks(t *testing.T) {
	// Non-power-of-two sizes exercise the recursive-doubling fold-in
	// scheme; the irrational-ish values exercise FP non-associativity, so
	// cross-rank equality only holds if every rank evaluates the same
	// reduction tree.
	for _, p := range worldSizes() {
		w, err := NewWorld(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		const n = 33
		results := make([][]float64, p)
		err = w.Run(func(c *Comm) error {
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = 1.0 / float64(c.Rank()+i+1)
			}
			c.allreduceRecDbl(Sum, buf)
			results[c.Rank()] = buf
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r := 1; r < p; r++ {
			for i := range results[0] {
				if math.Float64bits(results[r][i]) != math.Float64bits(results[0][i]) {
					t.Fatalf("p=%d: rank %d element %d differs from rank 0: %v vs %v",
						p, r, i, results[r][i], results[0][i])
				}
			}
		}
		// Sanity: within FP tolerance of the ideal sum.
		for i := 0; i < n; i++ {
			var want float64
			for r := 0; r < p; r++ {
				want += 1.0 / float64(r+i+1)
			}
			if math.Abs(results[0][i]-want) > 1e-12*math.Abs(want) {
				t.Fatalf("p=%d element %d: %v vs %v", p, i, results[0][i], want)
			}
		}
	}
}

func TestNativeAllreduceMaxMin(t *testing.T) {
	for _, p := range []int{3, 8, 13} {
		w, err := NewWorld(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			got := []float64{float64(c.Rank()), -float64(c.Rank())}
			c.allreduceRecDbl(Max, got)
			if got[0] != float64(p-1) || got[1] != 0 {
				return fmt.Errorf("max: %v", got)
			}
			got = []float64{float64(c.Rank()), -float64(c.Rank())}
			c.allreduceRecDbl(Min, got)
			if got[0] != 0 || got[1] != -float64(p-1) {
				return fmt.Errorf("min: %v", got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}
