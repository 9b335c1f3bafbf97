package nas

import (
	"fmt"
)

// IS is the integer-sort kernel: rank N keys drawn from the NPB
// generator (four uniforms summed per key, so keys are near-Gaussian)
// over MaxIterations ranking passes with the NPB per-iteration key
// twiddles, then fully sort and verify. Verification here is the strong
// form — the final permutation is checked sorted and a rank checksum is
// compared against recorded goldens — rather than NPB's five-point
// partial verification table.
type IS struct{}

// NewISKernel returns the kernel (NewIS is the package-level constructor
// used by kernel lists).
func NewISKernel() *IS { return &IS{} }

// ISMaxIterations is NPB's ranking-iteration count.
const ISMaxIterations = 10

const isSeed = 314159265

func isSize(c Class) (totalKeys, maxKey int, ok bool) {
	switch c {
	case ClassS:
		return 1 << 16, 1 << 11, true
	case ClassW:
		return 1 << 20, 1 << 16, true
	case ClassA:
		return 1 << 23, 1 << 19, true
	}
	return 0, 0, false
}

// Name implements Kernel.
func (*IS) Name() string { return "IS" }

// Run implements Kernel.
func (k *IS) Run(class Class) (*Result, error) {
	n, maxKey, ok := isSize(class)
	if !ok {
		return nil, ErrClass("IS", class)
	}
	keys := isCreateSeqRange(0, n, maxKey)

	var rankChecksum uint64
	counts := make([]int64, maxKey)
	for iter := 1; iter <= ISMaxIterations; iter++ {
		// NPB's per-iteration modifications keep the ranking honest.
		keys[iter] = int64(iter)
		keys[iter+ISMaxIterations] = int64(maxKey - iter)
		// Rank: histogram + exclusive prefix sum.
		for i := range counts {
			counts[i] = 0
		}
		for _, key := range keys {
			counts[key]++
		}
		sum := int64(0)
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		// Fold a few ranks into the checksum (stand-in for NPB's partial
		// verification points).
		for probe := 0; probe < 5; probe++ {
			idx := (probe*n/5 + iter) % n
			rankChecksum = rankChecksum*1099511628211 + uint64(counts[keys[idx]])
		}
	}

	// Full sort from the final ranking.
	sorted := make([]int64, n)
	pos := append([]int64(nil), counts...)
	for _, key := range keys {
		sorted[pos[key]] = key
		pos[key]++
	}
	verified := true
	for i := 1; i < n; i++ {
		if sorted[i-1] > sorted[i] {
			verified = false
			break
		}
	}
	// Permutation check: per-key counts must match.
	recount := make([]int64, maxKey)
	for _, key := range sorted {
		if key < 0 || key >= int64(maxKey) {
			return nil, fmt.Errorf("nas: IS: key %d out of range", key)
		}
		recount[key]++
	}
	hist := make([]int64, maxKey)
	for _, key := range keys {
		hist[key]++
	}
	for i := range hist {
		if hist[i] != recount[i] {
			verified = false
			break
		}
	}

	res := &Result{
		Kernel:   "IS",
		Class:    class,
		Verified: verified,
		Checksum: float64(rankChecksum % (1 << 52)),
		// NPB rates IS in millions of keys ranked per second.
		Ops: float64(ISMaxIterations) * float64(n),
	}
	nn := uint64(n)
	it := uint64(ISMaxIterations)
	mk := uint64(maxKey)
	res.Mix = mixFromCounts(
		4*nn, // fpAdd: key generation sums
		4*nn, // fpMul: generator scaling
		0, 0,
		it*(2*nn+mk)+2*nn, // loads: histogram + prefix + permute
		it*(nn+mk)+nn,     // stores
		it*(3*nn+2*mk),    // int ALU: indexing, increments
		it*nn/4,           // branches
	)
	return res, nil
}

// isCreateSeqRange generates keys [first, first+count) of the NPB IS
// key sequence bit-exactly, via a generator jump of 4·first steps (the
// whole sequence is first = 0, count = n).
func isCreateSeqRange(first, count, maxKey int) []int64 {
	g := NewLCG(isSeed)
	g.Skip(uint64(4 * first))
	k := float64(maxKey) / 4
	keys := make([]int64, count)
	for i := 0; i < count; i++ {
		x := g.Next()
		x += g.Next()
		x += g.Next()
		x += g.Next()
		keys[i] = int64(k * x)
		if keys[i] >= int64(maxKey) {
			keys[i] = int64(maxKey) - 1
		}
	}
	return keys
}
