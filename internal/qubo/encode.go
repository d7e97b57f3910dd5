package qubo

import (
	"fmt"
	"slices"

	"hyqsat/internal/cnf"
)

// LinTerm is one linear term c·x_Node of a sub-clause objective.
type LinTerm struct {
	Node int
	C    float64
}

// QuadTerm is one quadratic term c·x_U·x_V of a sub-clause objective.
type QuadTerm struct {
	Edge Edge
	C    float64
}

// SubClause is one of the decomposed pieces of a clause (Eq. 3) with its own
// objective (Eq. 4, built with α = 1) and its adjusted coefficient α
// (Eq. 7–9). A violated sub-clause contributes exactly α to the total
// energy, which is what makes QA energies interpretable as (weighted) counts
// of violated sub-clauses.
//
// The objective is a fixed-size term list: Offset plus at most three linear
// and three quadratic terms, no term zero and no node or edge twice — the
// same terms a map polynomial would hold.
type SubClause struct {
	Clause int // index of the source clause within the encoded subset
	Alpha  float64
	Offset float64

	nLin, nQuad int8
	lin         [3]LinTerm
	quad        [3]QuadTerm
}

// Linear returns the objective's linear terms.
func (s *SubClause) Linear() []LinTerm { return s.lin[:s.nLin] }

// Quad returns the objective's quadratic terms.
func (s *SubClause) Quad() []QuadTerm { return s.quad[:s.nQuad] }

// addLinear adds c·x_i, dropping the term when it cancels to zero.
func (s *SubClause) addLinear(i int, c float64) {
	for k := range s.Linear() {
		if s.lin[k].Node == i {
			s.lin[k].C += c
			if s.lin[k].C == 0 {
				s.nLin--
				s.lin[k] = s.lin[s.nLin]
			}
			return
		}
	}
	if c != 0 {
		s.lin[s.nLin] = LinTerm{i, c}
		s.nLin++
	}
}

// addProduct adds c·x_i·x_j, folding x_i·x_i = x_i for binary variables and
// dropping a term that cancels to zero.
func (s *SubClause) addProduct(i, j int, c float64) {
	if i == j {
		s.addLinear(i, c)
		return
	}
	e := MkEdge(i, j)
	for k := range s.Quad() {
		if s.quad[k].Edge == e {
			s.quad[k].C += c
			if s.quad[k].C == 0 {
				s.nQuad--
				s.quad[k] = s.quad[s.nQuad]
			}
			return
		}
	}
	if c != 0 {
		s.quad[s.nQuad] = QuadTerm{e, c}
		s.nQuad++
	}
}

// DStar is the sub-clause's own d_ij (Eq. 6 over its α=1 objective).
func (s *SubClause) DStar() float64 {
	d := 0.0
	for _, t := range s.Linear() {
		d = max(d, abs(t.C)/2)
	}
	for _, t := range s.Quad() {
		d = max(d, abs(t.C))
	}
	return d
}

func abs(c float64) float64 {
	if c < 0 {
		return -c
	}
	return c
}

// Energy evaluates the α=1 objective at a dense node assignment.
func (s *SubClause) Energy(x []bool) float64 {
	e := s.Offset
	for _, t := range s.Linear() {
		if x[t.Node] {
			e += t.C
		}
	}
	for _, t := range s.Quad() {
		if x[t.Edge.U] && x[t.Edge.V] {
			e += t.C
		}
	}
	return e
}

// Encoding is the QA problem built from a set of clauses. It has two parts:
//
//   - the structure: node numbering for logical and auxiliary variables and,
//     per clause, its distinct logical nodes and the problem edges its
//     sub-clause objectives couple. This is all the Fast embedder reads.
//   - the objectives: per-sub-clause objectives (Sub) with their α
//     coefficients. Program sums them into the objective of Eq. 5 and
//     returns it as the Ising model programmed on the annealer.
//
// EncodeStructure builds only the structure, so a pipeline that embeds a
// prefix of a clause queue builds objectives (Restrict) only for the clauses
// that reach the hardware.
type Encoding struct {
	Clauses []cnf.Clause // the encoded clause subset (aliases caller storage)

	VarNode map[cnf.Var]int // logical variable → node
	NodeVar []cnf.Var       // node → logical variable, or cnf.NoVar for auxiliaries
	AuxNode []int           // per clause: auxiliary node, or −1 when none was needed

	// Clause k's distinct logical nodes, in literal order, are
	// logical[logicalAt[k]:logicalAt[k+1]]; its problem edges, sorted and
	// without duplicates, are edges[edgesAt[k]:edgesAt[k+1]].
	logical, logicalAt []int
	edges              []Edge
	edgesAt            []int

	Sub []SubClause // nil after EncodeStructure until Restrict
}

// NumNodes returns the total number of nodes (logical + auxiliary).
func (e *Encoding) NumNodes() int { return len(e.NodeVar) }

// LogicalNodes returns the distinct logical nodes of clause k, in literal
// order.
func (e *Encoding) LogicalNodes(k int) []int { return e.logical[e.logicalAt[k]:e.logicalAt[k+1]] }

// ClauseEdges returns the problem edges clause k's sub-clause objectives
// couple (their non-zero quadratic terms), sorted by CompareEdges.
func (e *Encoding) ClauseEdges(k int) []Edge { return e.edges[e.edgesAt[k]:e.edgesAt[k+1]] }

// affine returns a literal's H_l (Eq. 4's building block) as s + t·x over
// its variable's node: x for a positive literal (s=0, t=1) and 1−x for a
// negative one (s=1, t=−1).
func affine(l cnf.Lit) (s, t int) {
	if l.IsNeg() {
		return 1, -1
	}
	return 0, 1
}

// clauseObjectives writes the Eq. 4 objectives (α = 1) of clause c, the
// k-th of its encoding, into dst and returns them. x holds the nodes of the
// clause's literal variables in literal order, aux its auxiliary node.
//
// Each objective is written in closed form. With every literal affine,
// H_l = s + t·x, Eq. 4 expands to
//
//	1 literal:  (1−s₁) − t₁x₁
//	2 literals: (1−s₁)(1−s₂) − t₂(1−s₁)x₂ − t₁(1−s₂)x₁ + t₁t₂x₁x₂
//	c₁ = a ↔ (l1∨l2): s₁+s₂+s₁s₂ + (1−2s₁−2s₂)a + t₁(1+s₂)x₁ + t₂(1+s₁)x₂
//	                  − 2t₁ax₁ − 2t₂ax₂ + t₁t₂x₁x₂
//	c₂ = l3 ∨ a:      (1−s₃) + (s₃−1)a − t₃x₃ + t₃ax₃
//
// with x_i·x_i = x_i when a clause repeats a variable. Every coefficient is
// a small integer, so the result equals the term-by-term product exactly.
func clauseObjectives(dst *[2]SubClause, k int, c cnf.Clause, x [3]int, aux int) []SubClause {
	switch len(c) {
	case 1:
		// H = 1 − H1: zero iff the literal is true.
		s1, t1 := affine(c[0])
		h := &dst[0]
		*h = SubClause{Clause: k, Alpha: 1, Offset: float64(1 - s1)}
		h.addLinear(x[0], float64(-t1))
		return dst[:1]
	case 2:
		// H = (1−H1)(1−H2): zero iff some literal is true.
		s1, t1 := affine(c[0])
		s2, t2 := affine(c[1])
		h := &dst[0]
		*h = SubClause{Clause: k, Alpha: 1, Offset: float64((1 - s1) * (1 - s2))}
		h.addLinear(x[1], float64(-t2*(1-s1)))
		h.addLinear(x[0], float64(-t1*(1-s2)))
		h.addProduct(x[0], x[1], float64(t1*t2))
		return dst[:1]
	}
	s1, t1 := affine(c[0])
	s2, t2 := affine(c[1])
	s3, t3 := affine(c[2])
	// Eq. 4, first sub-clause: a ↔ (l1 ∨ l2).
	c1 := &dst[0]
	*c1 = SubClause{Clause: k, Alpha: 1, Offset: float64(s1 + s2 + s1*s2)}
	c1.addLinear(aux, float64(1-2*s1-2*s2))
	c1.addLinear(x[0], float64(t1*(1+s2)))
	c1.addLinear(x[1], float64(t2*(1+s1)))
	c1.addProduct(aux, x[0], float64(-2*t1))
	c1.addProduct(aux, x[1], float64(-2*t2))
	c1.addProduct(x[0], x[1], float64(t1*t2))
	// Eq. 4, second sub-clause: l3 ∨ a.
	c2 := &dst[1]
	*c2 = SubClause{Clause: k, Alpha: 1, Offset: float64(1 - s3)}
	c2.addLinear(aux, float64(s3-1))
	c2.addLinear(x[2], float64(-t3))
	c2.addProduct(aux, x[2], float64(t3))
	return dst[:2]
}

// Encode builds the QA encoding of the given clauses, following the paper's
// decomposition: a 3-literal clause c = l1∨l2∨l3 becomes
// c₁ = a ↔ (l1∨l2) and c₂ = l3∨a (Eq. 3) with the objectives of Eq. 4;
// 1- and 2-literal clauses are encoded directly without an auxiliary.
// Clauses longer than three literals are rejected (convert with cnf.To3CNF
// first). All α coefficients start at 1 (prior work's setting).
func Encode(clauses []cnf.Clause) (*Encoding, error) {
	e, err := EncodeStructure(clauses)
	if err != nil {
		return nil, err
	}
	e.Sub = make([]SubClause, 0, 2*len(clauses))
	var buf [2]SubClause
	for k, c := range clauses {
		e.Sub = append(e.Sub, clauseObjectives(&buf, k, c, e.literalNodes(c), e.AuxNode[k])...)
	}
	return e, nil
}

// EncodeStructure is Encode without the objectives: it numbers the nodes and
// records each clause's logical nodes and problem edges, leaving Sub nil.
// Restrict builds the objectives for the clauses that need them.
func EncodeStructure(clauses []cnf.Clause) (*Encoding, error) {
	e := &Encoding{}
	if err := e.Reset(clauses); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-encodes e as EncodeStructure(clauses) would, reusing e's storage:
// a caller that encodes a clause queue per iteration keeps one Encoding and
// allocates nothing in steady state. Encodings derived from e by Restrict
// share no storage with it and stay valid.
func (e *Encoding) Reset(clauses []cnf.Clause) error {
	e.Clauses = clauses
	if e.VarNode == nil {
		e.VarNode = make(map[cnf.Var]int, len(clauses))
	} else {
		clear(e.VarNode)
	}
	e.NodeVar = e.NodeVar[:0]
	e.AuxNode = e.AuxNode[:0]
	e.logical = e.logical[:0]
	e.logicalAt = append(e.logicalAt[:0], 0)
	e.edges = e.edges[:0]
	e.edgesAt = append(e.edgesAt[:0], 0)
	e.Sub = nil

	var buf [2]SubClause
	for k, c := range clauses {
		if len(c) == 0 {
			return fmt.Errorf("qubo: clause %d is empty", k)
		}
		if len(c) > 3 {
			return fmt.Errorf("qubo: clause %d has %d literals; 3-CNF required", k, len(c))
		}
		// The auxiliary is numbered before the clause's variables.
		aux := -1
		if len(c) == 3 {
			aux = len(e.NodeVar)
			e.NodeVar = append(e.NodeVar, cnf.NoVar)
		}
		e.AuxNode = append(e.AuxNode, aux)
		var x [3]int
		for i, l := range c {
			n, ok := e.VarNode[l.Var()]
			if !ok {
				n = len(e.NodeVar)
				e.VarNode[l.Var()] = n
				e.NodeVar = append(e.NodeVar, l.Var())
			}
			x[i] = n
			if !slices.Contains(e.logical[e.logicalAt[k]:], n) {
				e.logical = append(e.logical, n)
			}
		}
		e.logicalAt = append(e.logicalAt, len(e.logical))

		// The problem edges are the sub-clause objectives' quadratic terms
		// (what survives cancellation within each objective), deduplicated
		// across the clause's sub-clauses and sorted.
		first := len(e.edges)
		for _, sc := range clauseObjectives(&buf, k, c, x, aux) {
			for _, t := range sc.Quad() {
				if !slices.Contains(e.edges[first:], t.Edge) {
					e.edges = append(e.edges, t.Edge)
				}
			}
		}
		slices.SortFunc(e.edges[first:], CompareEdges)
		e.edgesAt = append(e.edgesAt, len(e.edges))
	}
	return nil
}

// literalNodes returns the nodes of clause c's literal variables, in literal
// order.
func (e *Encoding) literalNodes(c cnf.Clause) [3]int {
	var x [3]int
	for i, l := range c {
		x[i] = e.VarNode[l.Var()]
	}
	return x
}

// Restrict returns a new encoding over the same node numbering containing
// only the given clauses (indices into e.Clauses, in ascending order), with
// their sub-clause objectives built at α = 1. The restriction is how a
// partially-embedded clause queue becomes the problem actually programmed on
// hardware: node ids stay aligned with the embedding produced against the
// full encoding. It shares no storage with e, so e may be Reset afterwards.
func (e *Encoding) Restrict(clauseSet []int) *Encoding {
	nLogical, nEdges := 0, 0
	for _, ci := range clauseSet {
		nLogical += len(e.LogicalNodes(ci))
		nEdges += len(e.ClauseEdges(ci))
	}
	r := &Encoding{
		Clauses:   make([]cnf.Clause, len(clauseSet)),
		VarNode:   make(map[cnf.Var]int, nLogical),
		NodeVar:   slices.Clone(e.NodeVar),
		AuxNode:   make([]int, len(clauseSet)),
		logical:   make([]int, 0, nLogical),
		logicalAt: make([]int, 1, len(clauseSet)+1),
		edges:     make([]Edge, 0, nEdges),
		edgesAt:   make([]int, 1, len(clauseSet)+1),
		Sub:       make([]SubClause, 0, 2*len(clauseSet)),
	}
	var buf [2]SubClause
	for k, ci := range clauseSet {
		c := e.Clauses[ci]
		r.Clauses[k] = c
		r.AuxNode[k] = e.AuxNode[ci]
		for _, l := range c {
			r.VarNode[l.Var()] = e.VarNode[l.Var()]
		}
		r.logical = append(r.logical, e.LogicalNodes(ci)...)
		r.logicalAt = append(r.logicalAt, len(r.logical))
		r.edges = append(r.edges, e.ClauseEdges(ci)...)
		r.edgesAt = append(r.edgesAt, len(r.edges))
		r.Sub = append(r.Sub, clauseObjectives(&buf, k, c, e.literalNodes(c), r.AuxNode[k])...)
	}
	return r
}

// Program applies the paper's noise optimisation (§IV-C, Eq. 6–9) when
// adjust is set — with every α=1 it finds the global d* of the summed
// objective, then raises each α_ij to d*/d_ij, widening the energy gap that
// normalisation would otherwise crush — and leaves every α at 1 otherwise.
// It returns the summed objective (Eq. 5) normalised by its d* into the
// hardware ranges B ∈ [−2,2], J ∈ [−1,1] and converted to an Ising model:
// the problem programmed on the annealer. The sum is built in s, which a
// caller may reuse across encodings; afterwards s.DStar reports the d* of
// the programmed objective.
func (e *Encoding) Program(s *Sums, adjust bool) *Ising {
	for i := range e.Sub {
		e.Sub[i].Alpha = 1
	}
	s.sum(e)
	if adjust {
		if dStar := s.DStar(); dStar != 0 {
			for i := range e.Sub {
				if dij := e.Sub[i].DStar(); dij > 0 {
					e.Sub[i].Alpha = dStar / dij
				}
			}
			s.resum(e)
		}
	}
	return s.ising()
}

// UnitEnergy evaluates the α=1 objective at a node assignment: the number of
// violated sub-clauses. This is the scale on which the backend's
// satisfaction-probability intervals (Fig 8) are defined.
func (e *Encoding) UnitEnergy(x []bool) float64 {
	total := 0.0
	for i := range e.Sub {
		total += e.Sub[i].Energy(x)
	}
	return total
}

// AssignmentFromNodes converts a node-level assignment back to a partial
// assignment over the original SAT variables (auxiliaries are dropped),
// written into a, which must cover every encoded variable: a is reset to
// all-Undef first and returned.
func (e *Encoding) AssignmentFromNodes(x []bool, a cnf.Assignment) cnf.Assignment {
	for v := range a {
		a[v] = cnf.Undef
	}
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
// graph: the node pairs whose summed quadratic coefficient (at the current
// α) is non-zero, sorted by CompareEdges so embedders see the same graph in
// the same order on every call. This is what must be embedded into the
// hardware graph. It is summed from the sub-clause objectives, so a
// structure-only encoding has none (its per-clause ClauseEdges remain).
func (e *Encoding) ProblemGraph() []Edge {
	var s Sums
	s.sum(e)
	out := make([]Edge, 0, len(s.keys))
	for j, key := range s.keys {
		if s.quad[j] != 0 {
			out = append(out, s.edge(key))
		}
	}
	return out
}
