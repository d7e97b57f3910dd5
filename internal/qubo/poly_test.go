package qubo

import (
	"math"
	"slices"
)

// This file is the reference oracle for the encoding: the quadratic
// pseudo-boolean map algebra that states Eq. 4–5, the d* normalisation and
// the QUBO→Ising conversion term by term. Production code never builds these
// polynomials — Encoding.Program sums the closed-form sub-clause objectives
// densely — and the tests check Program and the closed forms against this
// algebra bit for bit.

// Poly is a quadratic pseudo-boolean polynomial over binary variables
// ("nodes"): Offset + Σ Linear[i]·x_i + Σ Quad[{i,j}]·x_i·x_j, with
// x_i ∈ {0,1}. It is the representation of the paper's objective functions
// H (Eq. 2). Its maps never hold a zero coefficient.
type Poly struct {
	Offset float64
	Linear map[int]float64
	Quad   map[Edge]float64
}

// NewPoly returns the zero polynomial.
func NewPoly() *Poly {
	return &Poly{Linear: map[int]float64{}, Quad: map[Edge]float64{}}
}

// Const returns the constant polynomial c.
func Const(c float64) *Poly {
	p := NewPoly()
	p.Offset = c
	return p
}

// Variable returns the polynomial x_i.
func Variable(i int) *Poly {
	p := NewPoly()
	p.Linear[i] = 1
	return p
}

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	q := Const(p.Offset)
	for i, c := range p.Linear {
		q.Linear[i] = c
	}
	for e, c := range p.Quad {
		q.Quad[e] = c
	}
	return q
}

// AddLinear adds c·x_i in place.
func (p *Poly) AddLinear(i int, c float64) {
	p.Linear[i] += c
	if p.Linear[i] == 0 {
		delete(p.Linear, i)
	}
}

// AddQuad adds c·x_i·x_j in place.
func (p *Poly) AddQuad(i, j int, c float64) {
	e := MkEdge(i, j)
	p.Quad[e] += c
	if p.Quad[e] == 0 {
		delete(p.Quad, e)
	}
}

// AddScaled adds factor·q to p in place and returns p.
func (p *Poly) AddScaled(q *Poly, factor float64) *Poly {
	p.Offset += factor * q.Offset
	for i, c := range q.Linear {
		p.AddLinear(i, factor*c)
	}
	for e, c := range q.Quad {
		p.AddQuad(e.U, e.V, factor*c)
	}
	return p
}

// Add returns p + q as a new polynomial.
func (p *Poly) Add(q *Poly) *Poly { return p.Copy().AddScaled(q, 1) }

// Sub returns p − q as a new polynomial.
func (p *Poly) Sub(q *Poly) *Poly { return p.Copy().AddScaled(q, -1) }

// Scale returns factor·p as a new polynomial.
func (p *Poly) Scale(factor float64) *Poly { return NewPoly().AddScaled(p, factor) }

// Mul returns p·q. Both operands must be affine (no quadratic terms), since
// the result must stay within degree two; x_i·x_i simplifies to x_i because
// variables are binary.
func (p *Poly) Mul(q *Poly) *Poly {
	if len(p.Quad) > 0 || len(q.Quad) > 0 {
		panic("qubo: Mul operands must be affine")
	}
	out := NewPoly()
	out.Offset = p.Offset * q.Offset
	for i, c := range p.Linear {
		out.AddLinear(i, c*q.Offset)
	}
	for j, d := range q.Linear {
		out.AddLinear(j, d*p.Offset)
	}
	for i, c := range p.Linear {
		for j, d := range q.Linear {
			if i == j {
				out.AddLinear(i, c*d) // x² = x for binary x
			} else {
				out.AddQuad(i, j, c*d)
			}
		}
	}
	return out
}

// EnergyDense evaluates p at a dense assignment indexed by node.
func (p *Poly) EnergyDense(x []bool) float64 {
	e := p.Offset
	for i, c := range p.Linear {
		if x[i] {
			e += c
		}
	}
	for ed, c := range p.Quad {
		if x[ed.U] && x[ed.V] {
			e += c
		}
	}
	return e
}

// DStar computes the paper's d* (Eq. 6): the largest of |B_i|/2 over linear
// coefficients and |J_ij| over quadratic coefficients.
func (p *Poly) DStar() float64 {
	d := 0.0
	for _, c := range p.Linear {
		d = max(d, math.Abs(c)/2)
	}
	for _, c := range p.Quad {
		d = max(d, math.Abs(c))
	}
	return d
}

// Normalized returns p divided by its d* — the normalisation step that maps
// coefficients into the hardware ranges B ∈ [−2,2], J ∈ [−1,1] — together
// with the divisor used. A zero polynomial is returned unchanged with d*=1.
func (p *Poly) Normalized() (*Poly, float64) {
	d := p.DStar()
	if d == 0 {
		return p.Copy(), 1
	}
	return p.Scale(1 / d), d
}

// mapIsing is the reference algebra's Ising model: Offset + Σ h_i·s_i +
// Σ J_ij·s_i·s_j, holding only the non-zero terms.
type mapIsing struct {
	Offset float64
	H      map[int]float64
	J      map[Edge]float64
}

// ToIsing converts p via x = (1+s)/2. Terms are accumulated in sorted key
// order so the floating-point results are reproducible bit for bit
// regardless of map iteration order.
func (p *Poly) ToIsing() *mapIsing {
	is := &mapIsing{Offset: p.Offset, H: map[int]float64{}, J: map[Edge]float64{}}
	addH := func(i int, v float64) {
		is.H[i] += v
		if is.H[i] == 0 {
			delete(is.H, i)
		}
	}
	lin := make([]int, 0, len(p.Linear))
	for i := range p.Linear {
		lin = append(lin, i)
	}
	slices.Sort(lin)
	for _, i := range lin {
		// c·x = c/2 + (c/2)·s
		c := p.Linear[i]
		is.Offset += c / 2
		addH(i, c/2)
	}
	quad := make([]Edge, 0, len(p.Quad))
	for e := range p.Quad {
		quad = append(quad, e)
	}
	slices.SortFunc(quad, CompareEdges)
	for _, e := range quad {
		// c·x_u·x_v = c/4·(1 + s_u + s_v + s_u·s_v)
		c := p.Quad[e]
		is.Offset += c / 4
		addH(e.U, c/4)
		addH(e.V, c/4)
		is.J[e] += c / 4
		if is.J[e] == 0 {
			delete(is.J, e)
		}
	}
	return is
}

// Energy evaluates the Ising model at the given spin assignment
// (true = +1, false = −1). Nodes absent from spins default to −1.
func (is *mapIsing) Energy(spins map[int]bool) float64 {
	sv := func(i int) float64 {
		if spins[i] {
			return 1
		}
		return -1
	}
	e := is.Offset
	for i, h := range is.H {
		e += h * sv(i)
	}
	for ed, j := range is.J {
		e += j * sv(ed.U) * sv(ed.V)
	}
	return e
}

// subPoly returns a sub-clause's α=1 objective as a polynomial.
func subPoly(s *SubClause) *Poly {
	p := Const(s.Offset)
	for _, t := range s.Linear() {
		p.Linear[t.Node] = t.C
	}
	for _, t := range s.Quad() {
		p.Quad[t.Edge] = t.C
	}
	return p
}

// objective returns the summed objective of Eq. 5, Σ α_ij·H_ij, accumulated
// with AddScaled in sub-clause order.
func objective(e *Encoding) *Poly {
	p := NewPoly()
	for i := range e.Sub {
		p.AddScaled(subPoly(&e.Sub[i]), e.Sub[i].Alpha)
	}
	return p
}
