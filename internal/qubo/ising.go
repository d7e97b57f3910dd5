// Package qubo implements the quantum-annealing problem encoding of the
// HyQSAT paper: decomposition of 3-SAT clauses into sub-clauses with
// auxiliary variables (Eq. 3), quadratic pseudo-boolean objective functions
// per sub-clause (Eq. 4), the summed problem objective (Eq. 5), the paper's
// noise-optimising coefficient adjustment α_ij = d*/d_ij (Eq. 6–9),
// normalisation to the hardware coefficient ranges, and conversion to the
// Ising model the annealer runs (Encoding.Program).
package qubo

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

// Ising is the spin-model form of a QUBO objective: Offset + Σ h_i·s_i +
// Σ J_ij·s_i·s_j with s ∈ {−1,+1}. This is what quantum-annealing hardware
// (and our simulated annealer) executes.
type Ising struct {
	Offset float64
	H      []float64  // field per node; 0 for a node without one
	J      []QuadTerm // the non-zero couplings, sorted by CompareEdges
}
