package qubo

import (
	"fmt"

	"hyqsat/internal/cnf"
)

// SubClause is one of the decomposed pieces of a clause (Eq. 3) with its own
// objective polynomial (Eq. 4, built with α = 1) and its adjusted coefficient
// α (Eq. 7–9). A violated sub-clause contributes exactly α to the total
// energy, which is what makes QA energies interpretable as (weighted) counts
// of violated sub-clauses.
type SubClause struct {
	Clause int   // index of the source clause within the encoded subset
	Poly   *Poly // objective with α=1
	Alpha  float64
}

// Encoding is the QA problem built from a set of clauses: node numbering for
// logical and auxiliary variables, per-sub-clause objectives, and the summed
// objective polynomial of Eq. 5.
type Encoding struct {
	Clauses []cnf.Clause // the encoded clause subset (aliases caller storage)

	VarNode map[cnf.Var]int // logical variable → node
	NodeVar []cnf.Var       // node → logical variable, or cnf.NoVar for auxiliaries
	AuxNode []int           // per clause: auxiliary node, or −1 when none was needed

	Sub  []SubClause
	Poly *Poly // Σ α_ij · H_ij  (Eq. 5); nil after EncodeSubClauses until Rebuild
}

// NumNodes returns the total number of nodes (logical + auxiliary).
func (e *Encoding) NumNodes() int { return len(e.NodeVar) }

// affine returns a literal's H_l (Eq. 4's building block) as s + t·x over
// its variable's node: x for a positive literal (s=0, t=1) and 1−x for a
// negative one (s=1, t=−1).
func affine(l cnf.Lit) (s, t int) {
	if l.IsNeg() {
		return 1, -1
	}
	return 0, 1
}

// newSubPoly returns an empty polynomial sized for one sub-clause objective
// (at most three linear and three quadratic terms).
func newSubPoly() *Poly {
	return &Poly{Linear: make(map[int]float64, 3), Quad: make(map[Edge]float64, 3)}
}

// addProduct adds c·x_i·x_j, folding x_i·x_i = x_i for binary variables.
func (p *Poly) addProduct(i, j int, c float64) {
	if i == j {
		p.AddLinear(i, c)
	} else {
		p.AddQuad(i, j, c)
	}
}

// Encode builds the QA encoding of the given clauses, following the paper's
// decomposition: a 3-literal clause c = l1∨l2∨l3 becomes
// c₁ = a ↔ (l1∨l2) and c₂ = l3∨a (Eq. 3) with the objectives of Eq. 4;
// 1- and 2-literal clauses are encoded directly without an auxiliary.
// Clauses longer than three literals are rejected (convert with cnf.To3CNF
// first). All α coefficients start at 1 (prior work's setting).
func Encode(clauses []cnf.Clause) (*Encoding, error) {
	e, err := EncodeSubClauses(clauses)
	if err != nil {
		return nil, err
	}
	e.Rebuild()
	return e, nil
}

// EncodeSubClauses is Encode without the summed objective of Eq. 5: Poly
// stays nil until Rebuild or AdjustCoefficients computes it. Pipelines that
// embed a prefix of the clause queue and Restrict the encoding to it (the
// restriction sums its own objective) skip summing over clauses that never
// reach the hardware.
//
// Each sub-clause objective is written in closed form. With every literal
// affine, H_l = s + t·x, Eq. 4 expands to
//
//	1 literal:  (1−s₁) − t₁x₁
//	2 literals: (1−s₁)(1−s₂) − t₂(1−s₁)x₂ − t₁(1−s₂)x₁ + t₁t₂x₁x₂
//	c₁ = a ↔ (l1∨l2): s₁+s₂+s₁s₂ + (1−2s₁−2s₂)a + t₁(1+s₂)x₁ + t₂(1+s₁)x₂
//	                  − 2t₁ax₁ − 2t₂ax₂ + t₁t₂x₁x₂
//	c₂ = l3 ∨ a:      (1−s₃) + (s₃−1)a − t₃x₃ + t₃ax₃
//
// with x_i·x_i = x_i when a clause repeats a variable. Every coefficient is
// a small integer, so the result equals the term-by-term product exactly.
func EncodeSubClauses(clauses []cnf.Clause) (*Encoding, error) {
	e := &Encoding{
		Clauses: clauses,
		VarNode: make(map[cnf.Var]int, len(clauses)),
		AuxNode: make([]int, len(clauses)),
		Sub:     make([]SubClause, 0, 2*len(clauses)),
	}
	node := func(v cnf.Var) int {
		if n, ok := e.VarNode[v]; ok {
			return n
		}
		n := len(e.NodeVar)
		e.VarNode[v] = n
		e.NodeVar = append(e.NodeVar, v)
		return n
	}

	for k, c := range clauses {
		e.AuxNode[k] = -1
		switch len(c) {
		case 0:
			return nil, fmt.Errorf("qubo: clause %d is empty", k)
		case 1:
			// H = 1 − H1: zero iff the literal is true.
			x1 := node(c[0].Var())
			s1, t1 := affine(c[0])
			h := newSubPoly()
			h.Offset = float64(1 - s1)
			h.AddLinear(x1, float64(-t1))
			e.Sub = append(e.Sub, SubClause{Clause: k, Poly: h, Alpha: 1})
		case 2:
			// H = (1−H1)(1−H2): zero iff some literal is true.
			x1, x2 := node(c[0].Var()), node(c[1].Var())
			s1, t1 := affine(c[0])
			s2, t2 := affine(c[1])
			h := newSubPoly()
			h.Offset = float64((1 - s1) * (1 - s2))
			h.AddLinear(x2, float64(-t2*(1-s1)))
			h.AddLinear(x1, float64(-t1*(1-s2)))
			h.addProduct(x1, x2, float64(t1*t2))
			e.Sub = append(e.Sub, SubClause{Clause: k, Poly: h, Alpha: 1})
		case 3:
			// The auxiliary is numbered before the clause's variables.
			a := len(e.NodeVar)
			e.NodeVar = append(e.NodeVar, cnf.NoVar)
			e.AuxNode[k] = a
			x1, x2, x3 := node(c[0].Var()), node(c[1].Var()), node(c[2].Var())
			s1, t1 := affine(c[0])
			s2, t2 := affine(c[1])
			s3, t3 := affine(c[2])
			// Eq. 4, first sub-clause: a ↔ (l1 ∨ l2).
			c1 := newSubPoly()
			c1.Offset = float64(s1 + s2 + s1*s2)
			c1.AddLinear(a, float64(1-2*s1-2*s2))
			c1.AddLinear(x1, float64(t1*(1+s2)))
			c1.AddLinear(x2, float64(t2*(1+s1)))
			c1.AddQuad(a, x1, float64(-2*t1))
			c1.AddQuad(a, x2, float64(-2*t2))
			c1.addProduct(x1, x2, float64(t1*t2))
			// Eq. 4, second sub-clause: l3 ∨ a.
			c2 := newSubPoly()
			c2.Offset = float64(1 - s3)
			c2.AddLinear(a, float64(s3-1))
			c2.AddLinear(x3, float64(-t3))
			c2.AddQuad(a, x3, float64(t3))
			e.Sub = append(e.Sub,
				SubClause{Clause: k, Poly: c1, Alpha: 1},
				SubClause{Clause: k, Poly: c2, Alpha: 1})
		default:
			return nil, fmt.Errorf("qubo: clause %d has %d literals; 3-CNF required", k, len(c))
		}
	}
	return e, nil
}

// Rebuild recomputes the summed objective (Eq. 5) from the sub-clause
// objectives and their current α coefficients.
func (e *Encoding) Rebuild() {
	linear, quad := 0, 0
	for i := range e.Sub {
		linear += len(e.Sub[i].Poly.Linear)
		quad += len(e.Sub[i].Poly.Quad)
	}
	p := newPolySized(min(linear, len(e.NodeVar)), quad)
	for i := range e.Sub {
		p.AddScaled(e.Sub[i].Poly, e.Sub[i].Alpha)
	}
	e.Poly = p
}

// AdjustCoefficients applies the paper's noise optimisation (§IV-C,
// Eq. 6–9): with all α=1 it computes the global d* of the summed objective
// and each sub-clause's own d_ij, then raises α_ij to d*/d_ij and rebuilds
// the objective. This widens the energy gap that normalisation would
// otherwise crush, at the cost of exactly one extra objective evaluation.
// It returns the d* that was used.
func (e *Encoding) AdjustCoefficients() float64 {
	for i := range e.Sub {
		e.Sub[i].Alpha = 1
	}
	e.Rebuild()
	dStar := e.Poly.DStar()
	if dStar == 0 {
		return 0
	}
	for i := range e.Sub {
		dij := e.Sub[i].Poly.DStar()
		if dij > 0 {
			e.Sub[i].Alpha = dStar / dij
		}
	}
	e.Rebuild()
	return dStar
}

// Restrict returns a new encoding over the same node numbering containing
// only the given clauses (indices into e.Clauses, in ascending order). The
// restriction is how a partially-embedded clause queue becomes the problem
// actually programmed on hardware: node ids stay aligned with the embedding
// produced against the full encoding.
func (e *Encoding) Restrict(clauseSet []int) *Encoding {
	r := &Encoding{
		Clauses: make([]cnf.Clause, 0, len(clauseSet)),
		VarNode: make(map[cnf.Var]int, len(clauseSet)),
		NodeVar: e.NodeVar,
		AuxNode: make([]int, 0, len(clauseSet)),
	}
	inSet := make([]int, len(e.Clauses)) // old clause index → new, or −1
	for i := range inSet {
		inSet[i] = -1
	}
	for _, ci := range clauseSet {
		inSet[ci] = len(r.Clauses)
		r.Clauses = append(r.Clauses, e.Clauses[ci])
		r.AuxNode = append(r.AuxNode, e.AuxNode[ci])
		for _, l := range e.Clauses[ci] {
			r.VarNode[l.Var()] = e.VarNode[l.Var()]
		}
	}
	for i := range e.Sub {
		if ni := inSet[e.Sub[i].Clause]; ni >= 0 {
			sc := e.Sub[i]
			sc.Clause = ni
			r.Sub = append(r.Sub, sc)
		}
	}
	r.Rebuild()
	return r
}

// UnitEnergy evaluates the α=1 objective at a node assignment: the number of
// violated sub-clauses. This is the scale on which the backend's
// satisfaction-probability intervals (Fig 8) are defined.
func (e *Encoding) UnitEnergy(x []bool) float64 {
	total := 0.0
	for i := range e.Sub {
		total += e.Sub[i].Poly.EnergyDense(x)
	}
	return total
}

// ViolatedSubClauses returns the indices of sub-clauses with positive energy
// under the assignment.
func (e *Encoding) ViolatedSubClauses(x []bool) []int {
	var out []int
	for i := range e.Sub {
		if e.Sub[i].Poly.EnergyDense(x) > 1e-9 {
			out = append(out, i)
		}
	}
	return out
}

// AssignmentFromNodes converts a node-level assignment back to a partial
// assignment over the original SAT variables (auxiliaries are dropped).
func (e *Encoding) AssignmentFromNodes(x []bool, numVars int) cnf.Assignment {
	a := cnf.NewAssignment(numVars)
	for v, n := range e.VarNode {
		a.Set(v, x[n])
	}
	return a
}

// NodesFromAssignment builds a node-level assignment from SAT variable
// values, choosing each auxiliary optimally (a_k := l1∨l2, its defining
// equivalence) so that a satisfying SAT assignment yields zero energy.
func (e *Encoding) NodesFromAssignment(a cnf.Assignment) []bool {
	x := make([]bool, e.NumNodes())
	for v, n := range e.VarNode {
		x[n] = a[v] == cnf.True
	}
	for k, c := range e.Clauses {
		if e.AuxNode[k] < 0 {
			continue
		}
		l1True := a.Lit(c[0]) == cnf.True
		l2True := a.Lit(c[1]) == cnf.True
		x[e.AuxNode[k]] = l1True || l2True
	}
	return x
}

// ProblemGraph returns the adjacency structure of the encoding's problem
// graph: the set of node pairs with non-zero quadratic coefficients. This is
// what must be embedded into the hardware graph.
func (e *Encoding) ProblemGraph() []Edge {
	out := make([]Edge, 0, len(e.Poly.Quad))
	for ed := range e.Poly.Quad {
		out = append(out, ed)
	}
	return out
}
