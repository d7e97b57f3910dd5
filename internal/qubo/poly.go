// Package qubo implements the quantum-annealing problem encoding of the
// HyQSAT paper: decomposition of 3-SAT clauses into sub-clauses with
// auxiliary variables (Eq. 3), quadratic pseudo-boolean objective functions
// per sub-clause (Eq. 4), the summed problem objective (Eq. 5), the paper's
// noise-optimising coefficient adjustment α_ij = d*/d_ij (Eq. 6–9),
// normalisation to the hardware coefficient ranges, and QUBO↔Ising
// conversion for the annealer.
package qubo

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is an unordered pair of node indices with U < V, identifying a
// quadratic term.
type Edge struct{ U, V int }

// CompareEdges orders edges by U, then V, for slices.SortFunc.
func CompareEdges(a, b Edge) int {
	if a.U != b.U {
		return a.U - b.U
	}
	return a.V - b.V
}

// MkEdge builds a canonical Edge from two distinct node indices.
func MkEdge(a, b int) Edge {
	if a == b {
		panic("qubo: self edge")
	}
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// Poly is a quadratic pseudo-boolean polynomial over binary variables
// ("nodes"): Offset + Σ Linear[i]·x_i + Σ Quad[{i,j}]·x_i·x_j, with
// x_i ∈ {0,1}. It is the representation of the paper's objective functions
// H (Eq. 2).
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

// newPolySized returns the zero polynomial with room for the given numbers
// of linear and quadratic terms.
func newPolySized(linear, quad int) *Poly {
	return &Poly{Linear: make(map[int]float64, linear), Quad: make(map[Edge]float64, quad)}
}

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	q := newPolySized(len(p.Linear), len(p.Quad))
	q.Offset = p.Offset
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
		p.Quad[e] += factor * c
		if p.Quad[e] == 0 {
			delete(p.Quad, e)
		}
	}
	return p
}

// Add returns p + q as a new polynomial.
func (p *Poly) Add(q *Poly) *Poly { return p.Copy().AddScaled(q, 1) }

// Sub returns p − q as a new polynomial.
func (p *Poly) Sub(q *Poly) *Poly { return p.Copy().AddScaled(q, -1) }

// Scale returns factor·p as a new polynomial.
func (p *Poly) Scale(factor float64) *Poly {
	return newPolySized(len(p.Linear), len(p.Quad)).AddScaled(p, factor)
}

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

// Energy evaluates p at the given binary assignment, where x reports whether
// each node is 1. Nodes absent from x default to 0.
func (p *Poly) Energy(x map[int]bool) float64 {
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

// Nodes returns the sorted set of node indices appearing in p.
func (p *Poly) Nodes() []int {
	set := map[int]struct{}{}
	for i := range p.Linear {
		set[i] = struct{}{}
	}
	for e := range p.Quad {
		set[e.U] = struct{}{}
		set[e.V] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// DStar computes the paper's d* (Eq. 6): the largest of |B_i|/2 over linear
// coefficients and |J_ij| over quadratic coefficients. It is the factor the
// hardware normalisation divides by, and hence the quantity that shrinks the
// energy gap.
func (p *Poly) DStar() float64 {
	d := 0.0
	for _, c := range p.Linear {
		if v := math.Abs(c) / 2; v > d {
			d = v
		}
	}
	for _, c := range p.Quad {
		if v := math.Abs(c); v > d {
			d = v
		}
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

// MinEnergyBrute exhaustively minimises p over its nodes (≤ 25 of them) and
// returns the minimum energy and a minimising assignment. Intended for tests
// and tiny instances.
func (p *Poly) MinEnergyBrute() (float64, map[int]bool) {
	nodes := p.Nodes()
	if len(nodes) > 25 {
		panic(fmt.Sprintf("qubo: MinEnergyBrute over %d nodes", len(nodes)))
	}
	best := math.Inf(1)
	var bestX map[int]bool
	x := map[int]bool{}
	for mask := 0; mask < 1<<len(nodes); mask++ {
		for k, n := range nodes {
			x[n] = mask&(1<<k) != 0
		}
		if e := p.Energy(x); e < best {
			best = e
			bestX = map[int]bool{}
			for k, v := range x {
				bestX[k] = v
			}
		}
	}
	return best, bestX
}

// Ising is the spin-model form of a QUBO polynomial: Offset + Σ h_i·s_i +
// Σ J_ij·s_i·s_j with s ∈ {−1,+1}. This is what quantum-annealing hardware
// (and our simulated annealer) executes.
type Ising struct {
	Offset float64
	H      map[int]float64
	J      map[Edge]float64
}

// ToIsing converts p via x = (1+s)/2. Terms are accumulated in sorted key
// order so the floating-point results are bit-for-bit reproducible
// regardless of map iteration order.
func (p *Poly) ToIsing() *Ising {
	is := &Ising{H: make(map[int]float64, len(p.Linear)), J: make(map[Edge]float64, len(p.Quad))}
	is.Offset = p.Offset
	add := func(m map[int]float64, i int, v float64) {
		m[i] += v
		if m[i] == 0 {
			delete(m, i)
		}
	}
	linKeys := make([]int, 0, len(p.Linear))
	for i := range p.Linear {
		linKeys = append(linKeys, i)
	}
	slices.Sort(linKeys)
	for _, i := range linKeys {
		// c·x = c/2 + (c/2)·s
		c := p.Linear[i]
		is.Offset += c / 2
		add(is.H, i, c/2)
	}
	quadKeys := make([]Edge, 0, len(p.Quad))
	for e := range p.Quad {
		quadKeys = append(quadKeys, e)
	}
	slices.SortFunc(quadKeys, CompareEdges)
	for _, e := range quadKeys {
		// c·x_u·x_v = c/4·(1 + s_u + s_v + s_u·s_v)
		c := p.Quad[e]
		is.Offset += c / 4
		add(is.H, e.U, c/4)
		add(is.H, e.V, c/4)
		is.J[e] += c / 4
		if is.J[e] == 0 {
			delete(is.J, e)
		}
	}
	return is
}

// Energy evaluates the Ising model at the given spin assignment
// (true = +1, false = −1). Nodes absent from spins default to −1.
func (is *Ising) Energy(spins map[int]bool) float64 {
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
