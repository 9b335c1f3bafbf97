package nas

// 5×5 block linear algebra for the simulated-CFD kernels. NPB's BT and
// LU spend their time in exactly these operations (block multiply,
// block-LU solve, block-tridiagonal elimination), so the op mix that
// reaches the CPU models is faithful even though the surrounding PDE is
// manufactured (see the package comment).

// NComp is the CFD state-vector width (mass, 3×momentum, energy).
const NComp = 5

// Mat5 is a dense 5×5 block, row-major.
type Mat5 [NComp * NComp]float64

// Vec5 is a 5-component state vector.
type Vec5 [NComp]float64

// blasWork counts block-algebra operations for the op-mix report.
type blasWork struct {
	matVec   uint64 // 5×5 · 5 products
	matMat   uint64 // 5×5 · 5×5 products
	luSolves uint64 // in-place LU factor+solve of a 5×5 block
	axpy5    uint64 // 5-vector scale-adds
	penta    uint64 // pentadiagonal row eliminations (SP)
}

// flopCounts converts the tallies into class counts (adds, mults, divs).
func (w *blasWork) flopCounts() (fpAdd, fpMul, fpDiv uint64) {
	// matVec: 25 mult + 20 add; matMat: 125 mult + 100 add;
	// LU factor 5×5: ~(2/3)·125 ≈ 83 ops split mult/add + 5 reciprocals;
	// two triangular solves: 25 mult + 20 add; axpy: 5+5; penta row: 10.
	fpMul = 25*w.matVec + 125*w.matMat + 55*w.luSolves + 5*w.axpy5 + 6*w.penta
	fpAdd = 20*w.matVec + 100*w.matMat + 50*w.luSolves + 5*w.axpy5 + 4*w.penta
	fpDiv = 5 * w.luSolves
	return
}

// MulVec computes y = A·x.
func (a *Mat5) MulVec(x *Vec5, y *Vec5, w *blasWork) {
	for i := 0; i < NComp; i++ {
		var s float64
		row := a[i*NComp : i*NComp+NComp]
		for j := 0; j < NComp; j++ {
			s += row[j] * x[j]
		}
		y[i] = s
	}
	w.matVec++
}

// SubMulMat computes a -= b·c.
func (a *Mat5) SubMulMat(b, c *Mat5, w *blasWork) {
	for i := 0; i < NComp; i++ {
		for j := 0; j < NComp; j++ {
			var s float64
			for k := 0; k < NComp; k++ {
				s += b[i*NComp+k] * c[k*NComp+j]
			}
			a[i*NComp+j] -= s
		}
	}
	w.matMat++
}

// SubMulVec computes y -= A·x.
func (a *Mat5) SubMulVec(x, y *Vec5, w *blasWork) {
	for i := 0; i < NComp; i++ {
		var s float64
		for j := 0; j < NComp; j++ {
			s += a[i*NComp+j] * x[j]
		}
		y[i] -= s
	}
	w.matVec++
}

// lu5 holds an LU factorization (no pivoting, like NPB's binvcrhs — the
// blocks are strongly diagonally dominant by construction).
type lu5 struct {
	f Mat5
}

// Factor computes the in-place LU decomposition of a.
func (l *lu5) Factor(a *Mat5, w *blasWork) {
	l.f = *a
	f := &l.f
	for k := 0; k < NComp; k++ {
		pivInv := 1 / f[k*NComp+k]
		for i := k + 1; i < NComp; i++ {
			m := f[i*NComp+k] * pivInv
			f[i*NComp+k] = m
			for j := k + 1; j < NComp; j++ {
				f[i*NComp+j] -= m * f[k*NComp+j]
			}
		}
	}
	w.luSolves++
}

// Solve computes x = A⁻¹ b using the factorization.
func (l *lu5) Solve(b *Vec5, x *Vec5) {
	f := &l.f
	// Forward.
	for i := 0; i < NComp; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= f[i*NComp+j] * x[j]
		}
		x[i] = s
	}
	// Backward.
	for i := NComp - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < NComp; j++ {
			s -= f[i*NComp+j] * x[j]
		}
		x[i] = s / f[i*NComp+i]
	}
}

// SolveMat computes X = A⁻¹ B column by column.
func (l *lu5) SolveMat(b, x *Mat5, w *blasWork) {
	var col, sol Vec5
	for j := 0; j < NComp; j++ {
		for i := 0; i < NComp; i++ {
			col[i] = b[i*NComp+j]
		}
		l.Solve(&col, &sol)
		for i := 0; i < NComp; i++ {
			x[i*NComp+j] = sol[i]
		}
	}
	w.matMat++ // comparable volume
}

// blockTriSolve solves the block-tridiagonal system with sub-diagonal
// blocks a[1..m-1], diagonal b[0..m-1], super-diagonal c[0..m-2] and
// right-hand sides r[0..m-1], in place (block Thomas algorithm — the
// heart of NPB BT's x/y/z solves).
func blockTriSolve(a, b, c []Mat5, r []Vec5, w *blasWork) {
	m := len(b)
	var lu lu5
	var tmpM Mat5
	var tmpV Vec5
	// Forward elimination.
	lu.Factor(&b[0], w)
	lu.SolveMat(&c[0], &tmpM, w)
	c[0] = tmpM
	lu.Solve(&r[0], &tmpV)
	r[0] = tmpV
	for i := 1; i < m; i++ {
		// b[i] -= a[i]·c[i-1]; r[i] -= a[i]·r[i-1].
		b[i].SubMulMat(&a[i], &c[i-1], w)
		a[i].SubMulVec(&r[i-1], &r[i], w)
		lu.Factor(&b[i], w)
		if i < m-1 {
			lu.SolveMat(&c[i], &tmpM, w)
			c[i] = tmpM
		}
		lu.Solve(&r[i], &tmpV)
		r[i] = tmpV
	}
	// Back substitution: r[i] -= c[i]·r[i+1].
	for i := m - 2; i >= 0; i-- {
		c[i].SubMulVec(&r[i+1], &r[i], w)
	}
}

// pentaSolve solves a scalar pentadiagonal system in place (bands
// e,a,d,c,f: second-sub, sub, diagonal, super, second-super), the core of
// NPB SP's line solves. All slices have length m; out-of-range band
// entries are ignored.
func pentaSolve(e, a, d, c, f, r []float64, w *blasWork) {
	m := len(d)
	// Forward elimination without pivoting (diagonally dominant).
	for i := 0; i < m; i++ {
		if i+1 < m {
			fac := a[i+1] / d[i]
			d[i+1] -= fac * c[i]
			if i+2 <= m-1 {
				c[i+1] -= fac * f[i]
			}
			r[i+1] -= fac * r[i]
			w.penta++
		}
		if i+2 < m {
			fac := e[i+2] / d[i]
			a[i+2] -= fac * c[i]
			d[i+2] -= fac * f[i]
			r[i+2] -= fac * r[i]
			w.penta++
		}
	}
	// Back substitution.
	for i := m - 1; i >= 0; i-- {
		s := r[i]
		if i+1 < m {
			s -= c[i] * r[i+1]
		}
		if i+2 < m {
			s -= f[i] * r[i+2]
		}
		r[i] = s / d[i]
		w.penta++
	}
}
