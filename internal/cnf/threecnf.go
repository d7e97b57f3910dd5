package cnf

// To3CNF converts f into an equisatisfiable 3-CNF formula: clauses with more
// than three literals are split by introducing chain variables
// (l1 ∨ l2 ∨ s1)(¬s1 ∨ l3 ∨ s2)…, the standard Tseitin-style reduction the
// paper assumes in §VII-B. Clauses of length ≤3 are copied verbatim.
func To3CNF(f *Formula) *Formula {
	g := &Formula{NumVars: f.NumVars}
	for _, c := range f.Clauses {
		if len(c) <= 3 {
			g.Clauses = append(g.Clauses, append(Clause(nil), c...))
			continue
		}
		// (l1 l2 s1), (¬s1 l3 s2), …, (¬s_{k} l_{n-1} l_n)
		rest := c
		prev := NoLit
		for (prev == NoLit && len(rest) > 3) || (prev != NoLit && len(rest) > 2) {
			s := g.NewVar()
			var cl Clause
			if prev == NoLit {
				cl = Clause{rest[0], rest[1], Pos(s)}
				rest = rest[2:]
			} else {
				cl = Clause{prev.Not(), rest[0], Pos(s)}
				rest = rest[1:]
			}
			g.Clauses = append(g.Clauses, cl)
			prev = Pos(s)
		}
		last := Clause{prev.Not()}
		last = append(last, rest...)
		g.Clauses = append(g.Clauses, last)
	}
	return g
}

// VarAdjacency returns, for each variable, the indices of the clauses that
// mention it. This is the shared-variable adjacency used by the clause-queue
// breadth-first traversal (paper §IV-A).
func VarAdjacency(f *Formula) [][]int {
	adj := make([][]int, f.NumVars)
	for i, c := range f.Clauses {
		seen := make(map[Var]struct{}, len(c))
		for _, l := range c {
			v := l.Var()
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
			adj[v] = append(adj[v], i)
		}
	}
	return adj
}
