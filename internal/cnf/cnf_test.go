package cnf

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	for v := Var(0); v < 100; v++ {
		p, n := Pos(v), Neg(v)
		if p.Var() != v || n.Var() != v {
			t.Fatalf("Var() round trip failed for %d", v)
		}
		if p.IsNeg() || !n.IsNeg() {
			t.Fatalf("polarity wrong for %d", v)
		}
		if p.Not() != n || n.Not() != p {
			t.Fatalf("Not() wrong for %d", v)
		}
	}
}

func TestLitDimacsRoundTrip(t *testing.T) {
	if err := quick.Check(func(d int16) bool {
		if d == 0 {
			return true
		}
		l := LitFromDimacs(int(d))
		return l.Dimacs() == int(d)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLitFromDimacsZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on DIMACS literal 0")
		}
	}()
	LitFromDimacs(0)
}

func TestMkLit(t *testing.T) {
	if MkLit(3, false) != Pos(3) || MkLit(3, true) != Neg(3) {
		t.Fatal("MkLit mismatch with Pos/Neg")
	}
}

func TestClauseBasics(t *testing.T) {
	c := NewClause(1, -2, 3)
	if len(c) != 3 {
		t.Fatalf("len = %d", len(c))
	}
	if !slices.Contains(c, Pos(0)) || !slices.Contains(c, Neg(1)) || !slices.Contains(c, Pos(2)) {
		t.Fatal("clause missing expected literal")
	}
	if slices.Contains(c, Neg(0)) {
		t.Fatal("clause holds absent literal")
	}
	vars := c.Vars()
	if len(vars) != 3 || vars[0] != 0 || vars[1] != 1 || vars[2] != 2 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestClauseTautologyAndNormalize(t *testing.T) {
	if NewClause(1, -2, 3).IsTautology() {
		t.Fatal("non-tautology flagged")
	}
	if !NewClause(1, -1).IsTautology() {
		t.Fatal("tautology missed")
	}
	n := NewClause(3, 1, 1, -2).Normalized()
	if len(n) != 3 {
		t.Fatalf("Normalized kept duplicates: %v", n)
	}
	for i := 1; i < len(n); i++ {
		if n[i-1] >= n[i] {
			t.Fatalf("Normalized not sorted: %v", n)
		}
	}
}

func TestFormulaAddGrowsVars(t *testing.T) {
	f := New(2)
	f.Add(1, -5)
	if f.NumVars != 5 {
		t.Fatalf("NumVars = %d, want 5", f.NumVars)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d", f.NumClauses())
	}
	v := f.NewVar()
	if v != 5 || f.NumVars != 6 {
		t.Fatalf("NewVar gave %d, NumVars %d", v, f.NumVars)
	}
}

func TestFormulaCopyIndependent(t *testing.T) {
	f := New(3)
	f.Add(1, 2, 3)
	g := f.Copy()
	g.Clauses[0][0] = Neg(0)
	if f.Clauses[0][0] != Pos(0) {
		t.Fatal("Copy aliased clause storage")
	}
}

func TestAssignmentStatus(t *testing.T) {
	a := NewAssignment(4)
	c := NewClause(1, 2, 3)
	if a.Status(c) != ClauseUnresolved {
		t.Fatal("all-unassigned clause should be unresolved")
	}
	a.Set(0, false)
	a.Set(1, false)
	if a.Status(c) != ClauseUnit {
		t.Fatal("clause with one unassigned should be unit")
	}
	a.Set(2, false)
	if a.Status(c) != ClauseFalsified {
		t.Fatal("all-false clause should be falsified")
	}
	a.Set(2, true)
	if a.Status(c) != ClauseSatisfied {
		t.Fatal("clause with true literal should be satisfied")
	}
}

func TestAssignmentLitAndNot(t *testing.T) {
	a := NewAssignment(2)
	a.Set(0, true)
	if a.Lit(Pos(0)) != True || a.Lit(Neg(0)) != False {
		t.Fatal("Lit polarity wrong")
	}
	if a.Lit(Pos(1)) != Undef || a.Lit(Neg(1)) != Undef {
		t.Fatal("unassigned literal should be Undef")
	}
	if True.Not() != False || False.Not() != True || Undef.Not() != Undef {
		t.Fatal("Value.Not wrong")
	}
}

func TestAssignmentSatisfies(t *testing.T) {
	f := New(3)
	f.Add(1, 2)
	f.Add(-1, 3)
	a := FromBools([]bool{true, false, true})
	if !a.Satisfies(f) {
		t.Fatal("model should satisfy")
	}
	b := FromBools([]bool{true, false, false})
	if b.Satisfies(f) {
		t.Fatal("non-model reported satisfying")
	}
}

func TestBoolsRoundTrip(t *testing.T) {
	m := []bool{true, false, true, true}
	a := FromBools(m)
	got := a.Bools()
	for i := range m {
		if got[i] != m[i] {
			t.Fatalf("Bools()[%d] = %v", i, got[i])
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := New(4)
	f.Add(1, -2, 3)
	f.Add(-3, 4)
	f.Add(2)
	s := DIMACSString(f)
	g, err := ParseDIMACSString(s)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g.NumVars, g.NumClauses(), f.NumVars, f.NumClauses())
	}
	for i := range f.Clauses {
		if len(f.Clauses[i]) != len(g.Clauses[i]) {
			t.Fatalf("clause %d length mismatch", i)
		}
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d literal %d mismatch", i, j)
			}
		}
	}
}

func TestParseDIMACSCommentsAndMultiline(t *testing.T) {
	src := "c a comment\np cnf 3 2\n1 2\n-3 0\nc inline\n2 3 0\n"
	f, err := ParseDIMACSString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("parsed %d vars %d clauses", f.NumVars, f.NumClauses())
	}
	if len(f.Clauses[0]) != 3 {
		t.Fatalf("multiline clause len = %d", len(f.Clauses[0]))
	}
}

func TestParseDIMACSSATLIBTrailer(t *testing.T) {
	src := "p cnf 2 1\n1 2 0\n%\n0\n"
	f, err := ParseDIMACSString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("trailer parsed as clauses: %d", f.NumClauses())
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	for _, src := range []string{
		"p cnf x 2\n",
		"p cnf 2 y\n",
		"p dnf 2 2\n",
		"p cnf 2\n",
		"1 2 zzz 0\n",
		"",                                  // empty input
		"c only comments\nc nothing else\n", // still empty
		"p cnf 2 2\n1 2 0\n",                // header declares 2 clauses, 1 present
		"p cnf 2 0\n1 2 0\n",                // header declares 0 clauses, 1 present
		"p cnf 2 1\n1 2 0\n-1 2 0\n",        // undeclared extra clause
		"p cnf 2 1\n1 2\n",                  // trailing clause missing its 0
		"1 0 2\n",                           // ditto, headerless
		"p cnf 2 1\n1 -0 0\n",               // "-0" is neither terminator nor literal
		"p cnf 2 1\n1 2 0\np cnf 2 1\n",     // duplicate problem line
		"p cnf -3 1\n1 0\n",                 // negative variable count
		"p cnf 2 -1\n1 0\n",                 // negative clause count
		"p cnf 999999999999 0\n",            // variable count overflow
		"p cnf 2 1\n999999999 0\n",          // literal out of range
		"p cnf 2 1\n-999999999 0\n",         // negated literal out of range
	} {
		if _, err := ParseDIMACSString(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestParseDIMACSCommentMidClause(t *testing.T) {
	// A comment line between the literals of a single clause must not split
	// or corrupt the clause.
	src := "p cnf 3 1\n1 2\nc interrupting comment\n3 0\n"
	f, err := ParseDIMACSString(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 3 {
		t.Fatalf("mid-clause comment mis-parsed: %d clauses, first len %d",
			f.NumClauses(), len(f.Clauses[0]))
	}
}

func TestParseDIMACSEmptyFormulaWithHeader(t *testing.T) {
	// "p cnf 0 0" is the legitimate empty formula; only headerless empty
	// input is rejected.
	f, err := ParseDIMACSString("p cnf 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 0 || f.NumClauses() != 0 {
		t.Fatalf("empty formula parsed as %d vars %d clauses", f.NumVars, f.NumClauses())
	}
}

func TestParseDIMACSEmptyClause(t *testing.T) {
	// A bare 0 is an explicit empty clause (trivially UNSAT), not a syntax
	// error.
	f, err := ParseDIMACSString("p cnf 1 2\n1 0\n0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 2 || len(f.Clauses[1]) != 0 {
		t.Fatalf("empty clause mis-parsed: %d clauses", f.NumClauses())
	}
}

func TestTo3CNFShortClausesVerbatim(t *testing.T) {
	f := New(3)
	f.Add(1, -2, 3)
	f.Add(1, 2)
	g := To3CNF(f)
	if g.NumClauses() != 2 || g.NumVars != 3 {
		t.Fatalf("short clauses changed: %d clauses %d vars", g.NumClauses(), g.NumVars)
	}
}

func TestTo3CNFLongClause(t *testing.T) {
	f := New(5)
	f.Add(1, 2, 3, 4, 5)
	g := To3CNF(f)
	for _, c := range g.Clauses {
		if len(c) > 3 {
			t.Fatalf("output not 3-CNF: clause %v", c)
		}
	}
	// Equisatisfiability on all assignments of the original 5 variables:
	// the long clause is satisfiable iff some extension of the split is.
	for mask := 0; mask < 32; mask++ {
		orig := false
		for i := 0; i < 5; i++ {
			if mask&(1<<i) != 0 {
				orig = true
			}
		}
		split := satisfiableWithFixedPrefix(g, 5, mask)
		if orig != split {
			t.Fatalf("mask %05b: original %v split %v", mask, orig, split)
		}
	}
}

// satisfiableWithFixedPrefix brute-forces whether g is satisfiable when its
// first n variables are fixed by mask bits.
func satisfiableWithFixedPrefix(g *Formula, n, mask int) bool {
	aux := g.NumVars - n
	for ext := 0; ext < 1<<aux; ext++ {
		a := NewAssignment(g.NumVars)
		for i := 0; i < n; i++ {
			a.Set(Var(i), mask&(1<<i) != 0)
		}
		for i := 0; i < aux; i++ {
			a.Set(Var(n+i), ext&(1<<i) != 0)
		}
		if a.Satisfies(g) {
			return true
		}
	}
	return false
}

func TestVarAdjacency(t *testing.T) {
	f := New(3)
	f.Add(1, 2)
	f.Add(-2, 3)
	f.Add(1, 1) // duplicate literal must not duplicate adjacency
	adj := VarAdjacency(f)
	if len(adj[0]) != 2 || adj[0][0] != 0 || adj[0][1] != 2 {
		t.Fatalf("adj[0] = %v", adj[0])
	}
	if len(adj[1]) != 2 {
		t.Fatalf("adj[1] = %v", adj[1])
	}
	if len(adj[2]) != 1 || adj[2][0] != 1 {
		t.Fatalf("adj[2] = %v", adj[2])
	}
}

func TestNormalizedPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := make(Clause, rng.Intn(10)+1)
		for i := range c {
			c[i] = MkLit(Var(rng.Intn(6)), rng.Intn(2) == 0)
		}
		n := c.Normalized()
		seen := map[Lit]bool{}
		for _, l := range n {
			if seen[l] {
				t.Fatalf("Normalized has duplicate %v in %v", l, n)
			}
			seen[l] = true
			if !slices.Contains(c, l) {
				t.Fatalf("Normalized invented literal %v", l)
			}
		}
		for _, l := range c {
			if !seen[l] {
				t.Fatalf("Normalized dropped literal %v", l)
			}
		}
	}
}

func TestParseDIMACSNeverPanics(t *testing.T) {
	// Malformed inputs must produce errors or formulas, never panics.
	inputs := []string{
		"", "p", "p cnf", "p cnf 1 1\n", "0", "1 0 2", "p cnf 1 1\n1",
		"c only comments\nc more\n", "p cnf 0 0\n", "%\n0\n",
		"p cnf 3 1\n1 -2 3 0\np cnf 2 1\n1 0\n",
		"-0 0", "99999999 0",
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", in, r)
				}
			}()
			f, err := ParseDIMACSString(in)
			if err == nil && f == nil {
				t.Fatalf("nil formula without error for %q", in)
			}
		}()
	}
}

func TestDimacsRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 50; trial++ {
		nv := rng.Intn(30) + 1
		f := New(nv)
		for i := 0; i < rng.Intn(40); i++ {
			k := rng.Intn(5) + 1
			c := make(Clause, k)
			for j := range c {
				c[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 0)
			}
			f.AddClause(c)
		}
		g, err := ParseDIMACSString(DIMACSString(f))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
			t.Fatalf("trial %d: shape changed", trial)
		}
	}
}
