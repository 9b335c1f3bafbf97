package nas

import (
	"math"
	"sort"
)

// MG is the multigrid kernel: V-cycles of the NPB 2.3 operator set — the
// 27-point Laplacian A (coefficients a = [-8/3, 0, 1/6, 1/12]), the
// full-weighting restriction P, trilinear interpolation Q, and the
// smoother S (c = [-3/8, 1/32, -1/64, 0]) — applied to the charge
// distribution v (+1 at the ten cells holding the largest generator
// values, −1 at the ten smallest) on a periodic n³ grid.
//
// Deviation from NPB noted in the package comment: the random grid fill
// is a single sequential NPB-generator stream rather than zran3's
// per-line jumped streams, so verification uses recorded goldens plus
// convergence invariants instead of NPB's rnm2 constants.
type MG struct{}

// NewMGKernel returns the kernel.
func NewMGKernel() *MG { return &MG{} }

// Name implements Kernel.
func (*MG) Name() string { return "MG" }

func mgSize(c Class) (n, nit int, ok bool) {
	switch c {
	case ClassS:
		return 32, 4, true
	case ClassW:
		return 64, 40, true
	case ClassA:
		return 256, 4, true
	}
	return 0, 0, false
}

// grid is a periodic n³ field with one ghost cell on each side
// (dimension n+2 per axis); ghost exchange wraps periodically, as NPB's
// comm3 does.
type grid struct {
	n int
	v []float64
}

func newGrid(n int) *grid {
	return &grid{n: n, v: make([]float64, (n+2)*(n+2)*(n+2))}
}

func (g *grid) idx(i, j, k int) int {
	s := g.n + 2
	return (i*s+j)*s + k
}

// at addresses interior cells with 1-based ghost offset.
func (g *grid) at(i, j, k int) *float64 { return &g.v[g.idx(i, j, k)] }

// comm3 fills the ghost layer from the periodic interior.
func (g *grid) comm3() {
	n, s := g.n, g.n+2
	_ = s
	for j := 1; j <= n; j++ {
		for k := 1; k <= n; k++ {
			*g.at(0, j, k) = *g.at(n, j, k)
			*g.at(n+1, j, k) = *g.at(1, j, k)
		}
	}
	for i := 0; i <= n+1; i++ {
		for k := 1; k <= n; k++ {
			*g.at(i, 0, k) = *g.at(i, n, k)
			*g.at(i, n+1, k) = *g.at(i, 1, k)
		}
	}
	for i := 0; i <= n+1; i++ {
		for j := 0; j <= n+1; j++ {
			*g.at(i, j, 0) = *g.at(i, j, n)
			*g.at(i, j, n+1) = *g.at(i, j, 1)
		}
	}
}

func (g *grid) zero() {
	for i := range g.v {
		g.v[i] = 0
	}
}

// mgWork tallies operator applications for the op mix.
type mgWork struct {
	points27 uint64 // 27-point stencil evaluations (A and S)
	pointsP  uint64 // restriction points
	pointsQ  uint64 // interpolation points
}

// stencil27 computes out = base + sign·(c0·u + c1·Σfaces + c2·Σedges +
// c3·Σcorners) — the shared shape of NPB's resid (base=v, sign=−1,
// c=a) and psinv (base=u, sign=+1, c=c, input r).
func stencil27(out, base, in *grid, c [4]float64, sign float64, w *mgWork) {
	n := in.n
	in.comm3()
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			for k := 1; k <= n; k++ {
				u := *in.at(i, j, k)
				faces := *in.at(i-1, j, k) + *in.at(i+1, j, k) +
					*in.at(i, j-1, k) + *in.at(i, j+1, k) +
					*in.at(i, j, k-1) + *in.at(i, j, k+1)
				edges := *in.at(i-1, j-1, k) + *in.at(i-1, j+1, k) +
					*in.at(i+1, j-1, k) + *in.at(i+1, j+1, k) +
					*in.at(i-1, j, k-1) + *in.at(i-1, j, k+1) +
					*in.at(i+1, j, k-1) + *in.at(i+1, j, k+1) +
					*in.at(i, j-1, k-1) + *in.at(i, j-1, k+1) +
					*in.at(i, j+1, k-1) + *in.at(i, j+1, k+1)
				corners := *in.at(i-1, j-1, k-1) + *in.at(i-1, j-1, k+1) +
					*in.at(i-1, j+1, k-1) + *in.at(i-1, j+1, k+1) +
					*in.at(i+1, j-1, k-1) + *in.at(i+1, j-1, k+1) +
					*in.at(i+1, j+1, k-1) + *in.at(i+1, j+1, k+1)
				*out.at(i, j, k) = *base.at(i, j, k) +
					sign*(c[0]*u+c[1]*faces+c[2]*edges+c[3]*corners)
			}
		}
	}
	w.points27 += uint64(n) * uint64(n) * uint64(n)
}

// restrict performs full-weighting restriction from fine to coarse
// (NPB rprj3 coefficients 1/2, 1/4, 1/8, 1/16).
func restrictGrid(coarse, fine *grid, w *mgWork) {
	nc := coarse.n
	fine.comm3()
	for i := 1; i <= nc; i++ {
		fi := 2*i - 1
		for j := 1; j <= nc; j++ {
			fj := 2*j - 1
			for k := 1; k <= nc; k++ {
				fk := 2*k - 1
				var faces, edges, corners float64
				for _, d := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
					faces += *fine.at(fi+d[0], fj+d[1], fk+d[2])
				}
				for _, d := range [][3]int{
					{-1, -1, 0}, {-1, 1, 0}, {1, -1, 0}, {1, 1, 0},
					{-1, 0, -1}, {-1, 0, 1}, {1, 0, -1}, {1, 0, 1},
					{0, -1, -1}, {0, -1, 1}, {0, 1, -1}, {0, 1, 1}} {
					edges += *fine.at(fi+d[0], fj+d[1], fk+d[2])
				}
				for _, d := range [][3]int{
					{-1, -1, -1}, {-1, -1, 1}, {-1, 1, -1}, {-1, 1, 1},
					{1, -1, -1}, {1, -1, 1}, {1, 1, -1}, {1, 1, 1}} {
					corners += *fine.at(fi+d[0], fj+d[1], fk+d[2])
				}
				*coarse.at(i, j, k) = 0.5**fine.at(fi, fj, fk) +
					0.25*faces + 0.125*edges + 0.0625*corners
			}
		}
	}
	w.pointsP += uint64(nc) * uint64(nc) * uint64(nc)
}

// interpAdd adds trilinear interpolation of the coarse grid into the fine
// grid (NPB interp).
func interpAdd(fine, coarse *grid, w *mgWork) {
	nc := coarse.n
	coarse.comm3()
	for i := 1; i <= nc; i++ {
		for j := 1; j <= nc; j++ {
			for k := 1; k <= nc; k++ {
				c000 := *coarse.at(i, j, k)
				c100 := *coarse.at(i+1, j, k)
				c010 := *coarse.at(i, j+1, k)
				c110 := *coarse.at(i+1, j+1, k)
				c001 := *coarse.at(i, j, k+1)
				c101 := *coarse.at(i+1, j, k+1)
				c011 := *coarse.at(i, j+1, k+1)
				c111 := *coarse.at(i+1, j+1, k+1)
				fi, fj, fk := 2*i-1, 2*j-1, 2*k-1
				*fine.at(fi, fj, fk) += c000
				*fine.at(fi+1, fj, fk) += 0.5 * (c000 + c100)
				*fine.at(fi, fj+1, fk) += 0.5 * (c000 + c010)
				*fine.at(fi+1, fj+1, fk) += 0.25 * (c000 + c100 + c010 + c110)
				*fine.at(fi, fj, fk+1) += 0.5 * (c000 + c001)
				*fine.at(fi+1, fj, fk+1) += 0.25 * (c000 + c100 + c001 + c101)
				*fine.at(fi, fj+1, fk+1) += 0.25 * (c000 + c010 + c001 + c011)
				*fine.at(fi+1, fj+1, fk+1) += 0.125 * (c000 + c100 + c010 + c110 + c001 + c101 + c011 + c111)
			}
		}
	}
	w.pointsQ += uint64(nc) * uint64(nc) * uint64(nc)
}

// mgCoeffs are the NPB 2.3 operator coefficients.
var (
	mgA = [4]float64{-8.0 / 3, 0, 1.0 / 6, 1.0 / 12}
	mgC = [4]float64{-3.0 / 8, 1.0 / 32, -1.0 / 64, 0}
)

// l2norm returns the RMS of the interior.
func l2norm(g *grid) float64 {
	n := g.n
	var s float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			for k := 1; k <= n; k++ {
				v := *g.at(i, j, k)
				s += v * v
			}
		}
	}
	return math.Sqrt(s / float64(n*n*n))
}

// Run implements Kernel.
func (m *MG) Run(class Class) (*Result, error) {
	n, nit, ok := mgSize(class)
	if !ok {
		return nil, ErrClass("MG", class)
	}
	res, _, err := m.run(n, nit, class)
	return res, err
}

// run executes and also returns the residual-norm history (for
// convergence tests).
func (m *MG) run(n, nit int, class Class) (*Result, []float64, error) {
	// Level grids: n, n/2, …, 4.
	var sizes []int
	for s := n; s >= 4; s /= 2 {
		sizes = append(sizes, s)
	}
	levels := len(sizes)
	u := make([]*grid, levels)
	r := make([]*grid, levels)
	for l, s := range sizes {
		u[l] = newGrid(s)
		r[l] = newGrid(s)
	}
	v := newGrid(n)
	mgFillCharges(v)
	var w mgWork

	top := 0
	var norms []float64

	// r = v − A·u at the top.
	computeResidual := func() {
		stencil27(r[top], v, u[top], mgA, -1, &w)
	}

	computeResidual()
	norms = append(norms, l2norm(r[top]))

	for it := 0; it < nit; it++ {
		// V-cycle: restrict residuals to the bottom.
		for l := 0; l < levels-1; l++ {
			restrictGrid(r[l+1], r[l], &w)
		}
		// Coarsest: u = S·r from zero.
		u[levels-1].zero()
		stencil27(u[levels-1], u[levels-1], r[levels-1], mgC, 1, &w)
		// Back up: interpolate, correct residual, smooth. As in NPB's
		// mg3P, intermediate levels hold pure corrections and are zeroed
		// each cycle; only the top level accumulates the solution.
		for l := levels - 2; l >= 0; l-- {
			if l == 0 {
				// u ← u + Q·u₁ directly into the solution grid.
				interpAdd(u[0], u[1], &w)
				computeResidual()
			} else {
				u[l].zero()
				interpAdd(u[l], u[l+1], &w)
				// r_l ← r_l − A·u_l.
				tmp := newGrid(sizes[l])
				stencil27(tmp, r[l], u[l], mgA, -1, &w)
				r[l], tmp = tmp, r[l]
			}
			// u_l ← u_l + S·r_l.
			smoothed := newGrid(sizes[l])
			stencil27(smoothed, u[l], r[l], mgC, 1, &w)
			u[l], smoothed = smoothed, u[l]
			if l == 0 {
				computeResidual()
			}
		}
		norms = append(norms, l2norm(r[top]))
	}

	final := norms[len(norms)-1]
	res := &Result{Kernel: "MG", Class: class, Checksum: final}
	// Verification: the V-cycles must have reduced the residual norm by a
	// healthy factor and match the recorded golden for the class.
	reduction := norms[0] / final
	res.Verified = reduction > 50
	// Exact-golden check only while the residual is above roundoff; class
	// W's 40 V-cycles converge to machine noise, where only the reduction
	// factor is meaningful.
	if g, ok := mgGoldens[class]; ok && final > 1e-15 {
		res.Verified = res.Verified && math.Abs(final-g) <= 1e-10*math.Abs(g)
	} else if ok && final <= 1e-15 {
		res.Verified = res.Verified && final < 1e-12
	}

	// NPB counts ~58 flops per 27-point stencil application per point.
	res.Ops = 58*float64(w.points27) + 47*float64(w.pointsP) + 32*float64(w.pointsQ)
	res.Mix = mixFromCounts(
		50*w.points27+40*w.pointsP+26*w.pointsQ, // fpAdd
		8*w.points27+7*w.pointsP+6*w.pointsQ,    // fpMul
		0, 0,
		28*w.points27+28*w.pointsP+9*w.pointsQ, // loads
		w.points27+w.pointsP+8*w.pointsQ,       // stores
		6*(w.points27+w.pointsP+w.pointsQ),     // int ALU (indexing)
		w.points27/8,                           // branches
	)
	return res, norms, nil
}

// mgGoldens are recorded residual norms from this implementation
// (see EXPERIMENTS.md for why NPB's rnm2 constants do not transfer —
// the random charge placement differs; note the class-S value lands
// within 3% of NPB's official 0.5307707005734e-4 anyway).
var mgGoldens = map[Class]float64{
	ClassS: 5.162006854565330e-05,
	ClassW: 2.776908948144146e-18, // roundoff floor; see Verified logic
}

// mgFillCharges places +1 at the cells with the ten largest values of a
// sequential NPB-generator grid fill and −1 at the ten smallest.
func mgFillCharges(v *grid) {
	n := v.n
	g := NewLCG(314159265)
	type cell struct {
		val     float64
		i, j, k int
	}
	cells := make([]cell, 0, n*n*n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			for k := 1; k <= n; k++ {
				cells = append(cells, cell{g.Next(), i, j, k})
			}
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].val < cells[b].val })
	v.zero()
	for t := 0; t < 10 && t < len(cells); t++ {
		c := cells[t]
		*v.at(c.i, c.j, c.k) = -1
		c = cells[len(cells)-1-t]
		*v.at(c.i, c.j, c.k) = 1
	}
}
