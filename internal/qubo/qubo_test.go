package qubo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hyqsat/internal/cnf"
)

func TestPolyArithmetic(t *testing.T) {
	// (x0 + 1)(1 - x1) = 1 + x0 - x1 - x0x1
	p := Variable(0).Add(Const(1)).Mul(Const(1).Sub(Variable(1)))
	if p.Offset != 1 || p.Linear[0] != 1 || p.Linear[1] != -1 || p.Quad[MkEdge(0, 1)] != -1 {
		t.Fatalf("product wrong: %+v", p)
	}
	// x·x = x for binary variables.
	q := Variable(2).Mul(Variable(2))
	if q.Linear[2] != 1 || len(q.Quad) != 0 {
		t.Fatalf("x²≠x: %+v", q)
	}
}

func TestPolyMulRejectsQuadratic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul of quadratic operand should panic")
		}
	}()
	p := Variable(0).Mul(Variable(1))
	p.Mul(Variable(2))
}

func TestPolyEnergyMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		p := NewPoly()
		p.Offset = rng.NormFloat64()
		for i := 0; i < 4; i++ {
			p.AddLinear(i, rng.NormFloat64())
		}
		p.AddQuad(0, 1, rng.NormFloat64())
		p.AddQuad(2, 3, rng.NormFloat64())
		x := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		want := p.Offset
		for i := 0; i < 4; i++ {
			if x[i] {
				want += p.Linear[i]
			}
		}
		if x[0] && x[1] {
			want += p.Quad[MkEdge(0, 1)]
		}
		if x[2] && x[3] {
			want += p.Quad[MkEdge(2, 3)]
		}
		if got := p.EnergyDense(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("energy %v want %v", got, want)
		}
	}
}

func TestAddScaledCancelsTerms(t *testing.T) {
	p := Variable(0).Add(Variable(1))
	p = p.Sub(Variable(1))
	if _, ok := p.Linear[1]; ok {
		t.Fatal("cancelled linear term not removed")
	}
	q := Variable(0).Mul(Variable(1))
	q = q.Sub(Variable(0).Mul(Variable(1)))
	if len(q.Quad) != 0 {
		t.Fatal("cancelled quad term not removed")
	}
}

func TestIsingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := NewPoly()
		n := 5
		p.Offset = rng.NormFloat64()
		for i := 0; i < n; i++ {
			p.AddLinear(i, rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					p.AddQuad(i, j, rng.NormFloat64())
				}
			}
		}
		is := p.ToIsing()
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]bool, n)
			spins := map[int]bool{}
			for i := 0; i < n; i++ {
				x[i] = mask&(1<<i) != 0
				spins[i] = x[i] // x=1 ⟺ s=+1
			}
			if qe, ie := p.EnergyDense(x), is.Energy(spins); math.Abs(qe-ie) > 1e-9 {
				t.Fatalf("trial %d mask %b: qubo %v ising %v", trial, mask, qe, ie)
			}
		}
	}
}

func TestDStarAndNormalize(t *testing.T) {
	p := NewPoly()
	p.AddLinear(0, 6) // |B|/2 = 3
	p.AddQuad(0, 1, -2)
	if d := p.DStar(); d != 3 {
		t.Fatalf("d* = %v, want 3", d)
	}
	n, d := p.Normalized()
	if d != 3 {
		t.Fatalf("normalizer %v", d)
	}
	if n.Linear[0] != 2 || math.Abs(n.Quad[MkEdge(0, 1)]+2.0/3.0) > 1e-12 {
		t.Fatalf("normalized wrong: %+v", n)
	}
	// After normalisation, |B| ≤ 2 and |J| ≤ 1.
	for _, c := range n.Linear {
		if math.Abs(c) > 2+1e-12 {
			t.Fatalf("linear out of range: %v", c)
		}
	}
	for _, c := range n.Quad {
		if math.Abs(c) > 1+1e-12 {
			t.Fatalf("quad out of range: %v", c)
		}
	}
	zero, d0 := NewPoly().Normalized()
	if d0 != 1 || zero.Offset != 0 {
		t.Fatal("zero poly normalisation wrong")
	}
}

// enumerate all assignments of the encoding's nodes and return min energy of
// the current (α-weighted) objective.
func minEnergyOf(e *Encoding) float64 {
	p := objective(e)
	n := e.NumNodes()
	best := math.Inf(1)
	x := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = mask&(1<<i) != 0
		}
		if v := p.EnergyDense(x); v < best {
			best = v
		}
	}
	return best
}

func TestEncodeSingleClauseSemantics(t *testing.T) {
	// For every clause shape and every assignment of its SAT variables, the
	// minimum over auxiliaries must be 0 iff the clause is satisfied, and
	// ≥1 otherwise (each violated sub-clause contributes exactly 1).
	shapes := [][]int{
		{1}, {-1},
		{1, 2}, {-1, 2}, {1, -2}, {-1, -2},
		{1, 2, 3}, {-1, 2, 3}, {1, -2, 3}, {1, 2, -3}, {-1, -2, -3}, {-1, 2, -3},
	}
	for _, shape := range shapes {
		c := cnf.NewClause(shape...)
		enc, err := Encode([]cnf.Clause{c})
		if err != nil {
			t.Fatal(err)
		}
		p := objective(enc)
		nSATVars := len(c.Vars())
		for mask := 0; mask < 1<<nSATVars; mask++ {
			a := cnf.NewAssignment(3)
			for i, v := range c.Vars() {
				a.Set(v, mask&(1<<i) != 0)
			}
			satisfied := a.Status(c) == cnf.ClauseSatisfied

			// Minimise over the auxiliary (if any) with SAT vars fixed.
			minE := math.Inf(1)
			auxCount := 0
			if enc.AuxNode[0] >= 0 {
				auxCount = 1
			}
			for am := 0; am < 1<<auxCount; am++ {
				x := make([]bool, enc.NumNodes())
				for v, n := range enc.VarNode {
					x[n] = a[v] == cnf.True
				}
				if auxCount == 1 {
					x[enc.AuxNode[0]] = am != 0
				}
				if v := p.EnergyDense(x); v < minE {
					minE = v
				}
			}
			if satisfied && math.Abs(minE) > 1e-9 {
				t.Fatalf("clause %v assignment %v: satisfied but min energy %v", c, a, minE)
			}
			if !satisfied && minE < 1-1e-9 {
				t.Fatalf("clause %v assignment %v: unsatisfied but min energy %v", c, a, minE)
			}
		}
	}
}

func TestEncodePaperExample(t *testing.T) {
	// §IV-C example: c1 = x1 ∨ x2 ∨ x3 gives (Eq. 8)
	// H = x1 + x2 − x3 + x1x2 − 2a x1 − 2a x2 + a x3 + 1, d*=2, d11=2, d12=1.
	c := cnf.NewClause(1, 2, 3)
	enc, err := Encode([]cnf.Clause{c})
	if err != nil {
		t.Fatal(err)
	}
	nx1, nx2, nx3 := enc.VarNode[0], enc.VarNode[1], enc.VarNode[2]
	a := enc.AuxNode[0]
	p := objective(enc)
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	check("offset", p.Offset, 1)
	check("x1", p.Linear[nx1], 1)
	check("x2", p.Linear[nx2], 1)
	check("x3", p.Linear[nx3], -1)
	check("a", p.Linear[a], 0)
	check("x1x2", p.Quad[MkEdge(nx1, nx2)], 1)
	check("ax1", p.Quad[MkEdge(a, nx1)], -2)
	check("ax2", p.Quad[MkEdge(a, nx2)], -2)
	check("ax3", p.Quad[MkEdge(a, nx3)], 1)

	check("d*", p.DStar(), 2)
	check("d11", enc.Sub[0].DStar(), 2)
	check("d12", enc.Sub[1].DStar(), 1)

	var s Sums
	enc.Program(&s, true)
	check("α11", enc.Sub[0].Alpha, 1)
	check("α12", enc.Sub[1].Alpha, 2)

	// Eq. 9: H' = x1 + x2 − 2x3 − a + x1x2 − 2ax1 − 2ax2 + 2ax3 + 2.
	p = objective(enc)
	check("offset'", p.Offset, 2)
	check("x1'", p.Linear[nx1], 1)
	check("x2'", p.Linear[nx2], 1)
	check("x3'", p.Linear[nx3], -2)
	check("a'", p.Linear[a], -1)
	check("x1x2'", p.Quad[MkEdge(nx1, nx2)], 1)
	check("ax1'", p.Quad[MkEdge(a, nx1)], -2)
	check("ax2'", p.Quad[MkEdge(a, nx2)], -2)
	check("ax3'", p.Quad[MkEdge(a, nx3)], 2)
	check("d*' preserved", p.DStar(), 2)
	check("programmed d*", s.DStar(), 2)
}

func TestEncodeMultiClauseMinEnergyEqualsSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		nv := rng.Intn(4) + 2
		ncl := rng.Intn(4) + 1
		f := cnf.New(nv)
		for i := 0; i < ncl; i++ {
			k := rng.Intn(3) + 1
			if k > nv {
				k = nv
			}
			c := make(cnf.Clause, 0, k)
			for _, v := range rng.Perm(nv)[:k] {
				c = append(c, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		enc, err := Encode(f.Clauses)
		if err != nil {
			t.Fatal(err)
		}
		if enc.NumNodes() > 14 {
			continue
		}
		minE := minEnergyOf(enc)

		satisfiable := false
		for mask := 0; mask < 1<<nv; mask++ {
			a := cnf.NewAssignment(nv)
			for i := 0; i < nv; i++ {
				a.Set(cnf.Var(i), mask&(1<<i) != 0)
			}
			if a.Satisfies(f) {
				satisfiable = true
				break
			}
		}
		if satisfiable && math.Abs(minE) > 1e-9 {
			t.Fatalf("trial %d: satisfiable but min energy %v", trial, minE)
		}
		if !satisfiable && minE < 1-1e-9 {
			t.Fatalf("trial %d: unsatisfiable but min energy %v < 1", trial, minE)
		}
	}
}

func TestAdjustCoefficientsNeverShrinksMinUnsatEnergy(t *testing.T) {
	// The α adjustment multiplies violated-sub-clause contributions by
	// α ≥ 1, so for every assignment the adjusted energy ≥ the unit energy.
	rng := rand.New(rand.NewSource(5))
	var s Sums
	for trial := 0; trial < 30; trial++ {
		f := cnf.New(4)
		for i := 0; i < 4; i++ {
			c := make(cnf.Clause, 0, 3)
			for _, v := range rng.Perm(4)[:3] {
				c = append(c, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		enc, _ := Encode(f.Clauses)
		enc.Program(&s, true)
		p := objective(enc)
		n := enc.NumNodes()
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]bool, n)
			for i := 0; i < n; i++ {
				x[i] = mask&(1<<i) != 0
			}
			adjusted := p.EnergyDense(x)
			unit := enc.UnitEnergy(x)
			if adjusted < unit-1e-9 {
				t.Fatalf("adjusted %v < unit %v", adjusted, unit)
			}
		}
	}
}

func TestNodesFromAssignmentZeroEnergyOnModels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		nv := 6
		f := cnf.New(nv)
		for i := 0; i < 8; i++ {
			c := make(cnf.Clause, 0, 3)
			for _, v := range rng.Perm(nv)[:3] {
				c = append(c, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		// Find a model by brute force, if any.
		var model cnf.Assignment
		for mask := 0; mask < 1<<nv; mask++ {
			a := cnf.NewAssignment(nv)
			for i := 0; i < nv; i++ {
				a.Set(cnf.Var(i), mask&(1<<i) != 0)
			}
			if a.Satisfies(f) {
				model = a
				break
			}
		}
		if model == nil {
			continue
		}
		enc, _ := Encode(f.Clauses)
		x := enc.NodesFromAssignment(model)
		if e := objective(enc).EnergyDense(x); math.Abs(e) > 1e-9 {
			t.Fatalf("model maps to energy %v", e)
		}
		if e := enc.UnitEnergy(x); math.Abs(e) > 1e-9 {
			t.Fatalf("model maps to unit energy %v", e)
		}
		// Round trip back to SAT variables.
		back := enc.AssignmentFromNodes(x, cnf.NewAssignment(nv))
		for v := range enc.VarNode {
			if back[v] != model[v] {
				t.Fatalf("round trip changed var %d", v)
			}
		}
	}
}

func TestViolatedSubClauses(t *testing.T) {
	c := cnf.NewClause(1, 2, 3)
	enc, _ := Encode([]cnf.Clause{c})
	x := make([]bool, enc.NumNodes()) // all-false: clause violated
	violated := 0
	for i := range enc.Sub {
		if enc.Sub[i].Energy(x) > 1e-9 {
			violated++
		}
	}
	if violated == 0 {
		t.Fatal("all-false assignment should violate a sub-clause")
	}
	if e := enc.UnitEnergy(x); e < 1 {
		t.Fatalf("unit energy %v", e)
	}
}

func TestEncodeRejectsBadClauses(t *testing.T) {
	if _, err := Encode([]cnf.Clause{{}}); err == nil {
		t.Fatal("empty clause should be rejected")
	}
	long := cnf.NewClause(1, 2, 3, 4)
	if _, err := Encode([]cnf.Clause{long}); err == nil {
		t.Fatal("4-literal clause should be rejected")
	}
}

func TestProblemGraphMatchesQuadTerms(t *testing.T) {
	enc, _ := Encode([]cnf.Clause{cnf.NewClause(1, 2, 3), cnf.NewClause(-1, 2, 4)})
	g := enc.ProblemGraph()
	if !slices.IsSortedFunc(g, CompareEdges) {
		t.Fatalf("graph edges not sorted: %v", g)
	}
	quad := objective(enc).Quad
	if len(g) != len(quad) {
		t.Fatalf("graph has %d edges, poly has %d quad terms", len(g), len(quad))
	}
	for _, e := range g {
		if _, ok := quad[e]; !ok {
			t.Fatalf("edge %v not in poly", e)
		}
	}
}

func TestMkEdgeCanonical(t *testing.T) {
	if MkEdge(3, 1) != (Edge{1, 3}) {
		t.Fatal("MkEdge not canonical")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self edge should panic")
		}
	}()
	MkEdge(2, 2)
}

// eq4Reference builds the Eq. 4 objectives of one clause term by term with
// Poly arithmetic, numbering the auxiliary (if any) before the variables as
// Encode does.
func eq4Reference(c cnf.Clause) []*Poly {
	nodes := map[cnf.Var]int{}
	next := 0
	lit := func(l cnf.Lit) *Poly {
		n, ok := nodes[l.Var()]
		if !ok {
			n = next
			nodes[l.Var()] = n
			next++
		}
		if l.IsNeg() {
			return Const(1).Sub(Variable(n))
		}
		return Variable(n)
	}
	switch len(c) {
	case 1:
		return []*Poly{Const(1).Sub(lit(c[0]))}
	case 2:
		h1 := lit(c[0])
		h2 := lit(c[1])
		return []*Poly{Const(1).Sub(h1).Mul(Const(1).Sub(h2))}
	}
	a := Variable(next)
	next++
	h1, h2, h3 := lit(c[0]), lit(c[1]), lit(c[2])
	c1 := a.Add(h1).Add(h2).
		Sub(a.Mul(h1).Scale(2)).
		Sub(a.Mul(h2).Scale(2)).
		Add(h1.Mul(h2))
	c2 := Const(1).Sub(a).Sub(h3).Add(a.Mul(h3))
	return []*Poly{c1, c2}
}

func samePoly(p, q *Poly) bool {
	if math.Float64bits(p.Offset) != math.Float64bits(q.Offset) ||
		len(p.Linear) != len(q.Linear) || len(p.Quad) != len(q.Quad) {
		return false
	}
	for i, c := range p.Linear {
		if d, ok := q.Linear[i]; !ok || math.Float64bits(c) != math.Float64bits(d) {
			return false
		}
	}
	for e, c := range p.Quad {
		if d, ok := q.Quad[e]; !ok || math.Float64bits(c) != math.Float64bits(d) {
			return false
		}
	}
	return true
}

// TestEncodeClosedFormMatchesPolyAlgebra checks the closed-form sub-clause
// objectives against the term-by-term Poly expansion of Eq. 4, bit for bit
// (including which zero terms are absent), for every sign pattern and every
// way a clause of 1–3 literals can repeat a variable.
func TestEncodeClosedFormMatchesPolyAlgebra(t *testing.T) {
	for n := 1; n <= 3; n++ {
		total := 1
		for i := 0; i < n; i++ {
			total *= 2 * n // each literal: one of n variables, either sign
		}
		for code := 0; code < total; code++ {
			c := make(cnf.Clause, n)
			x := code
			for i := range c {
				c[i] = cnf.MkLit(cnf.Var(x%n), (x/n)%2 == 1)
				x /= 2 * n
			}
			enc, err := Encode([]cnf.Clause{c})
			if err != nil {
				t.Fatal(err)
			}
			want := eq4Reference(c)
			if len(enc.Sub) != len(want) {
				t.Fatalf("clause %v: %d sub-clauses, want %d", c, len(enc.Sub), len(want))
			}
			for i, w := range want {
				if got := subPoly(&enc.Sub[i]); !samePoly(got, w) {
					t.Fatalf("clause %v sub-clause %d: got %+v, want %+v", c, i, *got, *w)
				}
			}
		}
	}
}

// TestEncodeStructureDefersObjectives pins that EncodeStructure builds the
// structure alone, and that restricting it to every clause gives exactly
// Encode's objectives.
func TestEncodeStructureDefersObjectives(t *testing.T) {
	clauses := []cnf.Clause{cnf.NewClause(1, -2, 3), cnf.NewClause(-1, 4), cnf.NewClause(2)}
	full, _ := Encode(clauses)
	lazy, err := EncodeStructure(clauses)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Sub != nil {
		t.Fatal("EncodeStructure built objectives")
	}
	r := lazy.Restrict([]int{0, 1, 2})
	if !samePoly(objective(r), objective(full)) || len(r.Sub) != len(full.Sub) {
		t.Fatal("summed objective after EncodeStructure and Restrict differs from Encode")
	}
	for i := range r.Sub {
		if r.Sub[i].Clause != full.Sub[i].Clause || !samePoly(subPoly(&r.Sub[i]), subPoly(&full.Sub[i])) {
			t.Fatalf("sub-clause %d differs from Encode's", i)
		}
	}
}

// randomQueue returns n clauses of 1–3 literals over nVars variables, so
// repeated variables within a clause and tautologies occur.
func randomQueue(rng *rand.Rand, nVars, n int) []cnf.Clause {
	q := make([]cnf.Clause, n)
	for i := range q {
		c := make(cnf.Clause, 1+rng.Intn(3))
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 1)
		}
		q[i] = c
	}
	return q
}

// TestClauseStructureMatchesObjectives pins each clause's logical nodes
// (distinct, in literal order) and problem edges (the union of its
// sub-clause objectives' quadratic terms, sorted) against the objectives.
func TestClauseStructureMatchesObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		enc, err := Encode(randomQueue(rng, 2+rng.Intn(20), 1+rng.Intn(40)))
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range enc.Clauses {
			var logical []int
			for _, l := range c {
				if n := enc.VarNode[l.Var()]; !slices.Contains(logical, n) {
					logical = append(logical, n)
				}
			}
			if !slices.Equal(enc.LogicalNodes(k), logical) {
				t.Fatalf("clause %d %v: logical nodes %v, want %v", k, c, enc.LogicalNodes(k), logical)
			}
			var edges []Edge
			for i := range enc.Sub {
				if enc.Sub[i].Clause != k {
					continue
				}
				for _, q := range enc.Sub[i].Quad() {
					if !slices.Contains(edges, q.Edge) {
						edges = append(edges, q.Edge)
					}
				}
			}
			slices.SortFunc(edges, CompareEdges)
			if !slices.Equal(enc.ClauseEdges(k), edges) {
				t.Fatalf("clause %d %v: edges %v, want %v", k, c, enc.ClauseEdges(k), edges)
			}
		}
	}
}

// sameIsing compares an Ising model with the reference one bit for bit: the
// same non-zero fields, and the same couplings in ascending edge order.
func sameIsing(a *Ising, b *mapIsing) bool {
	if math.Float64bits(a.Offset) != math.Float64bits(b.Offset) || len(a.J) != len(b.J) {
		return false
	}
	fields := 0
	for i, h := range a.H {
		if h == 0 {
			continue
		}
		fields++
		if g, ok := b.H[i]; !ok || math.Float64bits(g) != math.Float64bits(h) {
			return false
		}
	}
	if fields != len(b.H) {
		return false
	}
	for k, t := range a.J {
		if k > 0 && CompareEdges(a.J[k-1].Edge, t.Edge) >= 0 {
			return false
		}
		if g, ok := b.J[t.Edge]; !ok || math.Float64bits(g) != math.Float64bits(t.C) {
			return false
		}
	}
	return true
}

// TestProgramMatchesPolyAlgebra checks Program against the reference map
// algebra — Σ α·H accumulated with AddScaled, §IV-C α from the α=1 sum's
// DStar, Normalized, ToIsing — bit for bit, with and without the adjustment,
// on random restrictions of random queues, reusing one Sums.
func TestProgramMatchesPolyAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s Sums
	for trial := 0; trial < 200; trial++ {
		q := randomQueue(rng, 2+rng.Intn(30), 1+rng.Intn(60))
		full, err := EncodeStructure(q)
		if err != nil {
			t.Fatal(err)
		}
		var set []int
		for k := range q {
			if rng.Intn(3) > 0 {
				set = append(set, k)
			}
		}
		adjust := trial%2 == 0

		ref := full.Restrict(set)
		if adjust {
			dStar := objective(ref).DStar()
			for i := range ref.Sub {
				if dij := ref.Sub[i].DStar(); dStar != 0 && dij > 0 {
					ref.Sub[i].Alpha = dStar / dij
				}
			}
		}
		norm, _ := objective(ref).Normalized()
		want := norm.ToIsing()

		got := full.Restrict(set)
		is := got.Program(&s, adjust)
		if !sameIsing(is, want) {
			t.Fatalf("trial %d (adjust %v): Program %+v, want %+v", trial, adjust, *is, *want)
		}
		for i := range got.Sub {
			if math.Float64bits(got.Sub[i].Alpha) != math.Float64bits(ref.Sub[i].Alpha) {
				t.Fatalf("trial %d: α[%d] = %v, want %v", trial, i, got.Sub[i].Alpha, ref.Sub[i].Alpha)
			}
		}
		if d, want := s.DStar(), objective(ref).DStar(); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("trial %d: Sums.DStar %v, want %v", trial, d, want)
		}
	}
}
