package topo

import "fmt"

// Chimera is a Chimera(M,N,L) hardware graph — the D-Wave 2000Q fabric — with
// a set of broken (unusable) qubits fixed at construction, as a calibrated
// annealer's are. The graph is an M×N grid of cells, each containing L
// horizontal and L vertical qubits with a complete bipartite (K_{L,L})
// intra-cell coupler set; horizontal qubits couple to the same-index
// horizontal qubit of the neighbouring cell in their row, and vertical qubits
// likewise along their column.
type Chimera struct {
	M, N, L int
	broken  []bool
	adj     intAdj
}

// NewChimera returns a Chimera graph with M rows and N columns of cells, each
// with L horizontal and L vertical qubits, whose qubits listed in broken are
// unusable. A repeated index is harmless; one out of range panics.
func NewChimera(m, n, l int, broken ...int) *Chimera {
	if m <= 0 || n <= 0 || l <= 0 {
		panic(fmt.Sprintf("chimera: invalid dimensions %d×%d×%d", m, n, l))
	}
	return newChimera(m, n, l, brokenMask("chimera", m*n*2*l, broken))
}

// newChimera builds the graph over a broken mask of m·n·2·l qubits, which it
// keeps without copying.
func newChimera(m, n, l int, broken []bool) *Chimera {
	g := &Chimera{M: m, N: n, L: l, broken: broken}
	g.adj = buildAdj(g.NumQubits(), broken, func(q int, emit func(p int)) {
		r, c, h, k := g.Coords(q)
		for j := 0; j < g.L; j++ {
			emit(g.Qubit(r, c, !h, j))
		}
		if h {
			if c > 0 {
				emit(g.Qubit(r, c-1, true, k))
			}
			if c < g.N-1 {
				emit(g.Qubit(r, c+1, true, k))
			}
		} else {
			if r > 0 {
				emit(g.Qubit(r-1, c, false, k))
			}
			if r < g.M-1 {
				emit(g.Qubit(r+1, c, false, k))
			}
		}
	})
	return g
}

// DWave2000Q returns the Chimera(16,16,4) topology of the D-Wave 2000Q.
func DWave2000Q() *Chimera { return NewChimera(16, 16, 4) }

// Name identifies the topology family.
func (g *Chimera) Name() string { return "chimera" }

// NumQubits returns the total number of qubits, including broken ones.
func (g *Chimera) NumQubits() int { return g.M * g.N * 2 * g.L }

// Qubit returns the linear index of the qubit at cell (r,c), orientation
// horizontal/vertical, and in-cell index k ∈ [0,L).
func (g *Chimera) Qubit(r, c int, horizontal bool, k int) int {
	if r < 0 || r >= g.M || c < 0 || c >= g.N || k < 0 || k >= g.L {
		panic(fmt.Sprintf("chimera: qubit (%d,%d,%v,%d) out of range", r, c, horizontal, k))
	}
	u := 1
	if horizontal {
		u = 0
	}
	return ((r*g.N+c)*2+u)*g.L + k
}

// Coords inverts Qubit.
func (g *Chimera) Coords(q int) (r, c int, horizontal bool, k int) {
	k = q % g.L
	q /= g.L
	u := q % 2
	q /= 2
	c = q % g.N
	r = q / g.N
	return r, c, u == 0, k
}

// IsBroken reports whether qubit q is unusable.
func (g *Chimera) IsBroken(q int) bool { return g.broken[q] }

// Coupled reports whether qubits a and b share a coupler. Broken qubits have
// no couplers.
func (g *Chimera) Coupled(a, b int) bool {
	if a == b || g.broken[a] || g.broken[b] {
		return false
	}
	ra, ca, ha, ka := g.Coords(a)
	rb, cb, hb, kb := g.Coords(b)
	switch {
	case ra == rb && ca == cb && ha != hb:
		return true // intra-cell K_{L,L}
	case ha && hb && ra == rb && ka == kb && (ca-cb == 1 || cb-ca == 1):
		return true // horizontal line link
	case !ha && !hb && ca == cb && ka == kb && (ra-rb == 1 || rb-ra == 1):
		return true // vertical line link
	}
	return false
}

// Neighbors returns the working qubits coupled to q as a view into the
// precomputed CSR adjacency (nil when q is broken). The view must not be
// modified.
func (g *Chimera) Neighbors(q int) []int { return g.adj.row(q) }

// Edges enumerates every working coupler of the graph.
func (g *Chimera) Edges() []Edge {
	var out []Edge
	for q := range g.NumQubits() {
		for _, p := range g.adj.row(q) {
			if q < p {
				out = append(out, Edge{q, p})
			}
		}
	}
	return out
}

// Tiles enumerates the unit cells row-major: side A holds the horizontal
// qubits of a cell, side B the vertical ones. Broken qubits are included.
func (g *Chimera) Tiles() []Tile {
	out := make([]Tile, 0, g.M*g.N)
	for r := 0; r < g.M; r++ {
		for c := 0; c < g.N; c++ {
			t := Tile{A: make([]int, g.L), B: make([]int, g.L)}
			for k := 0; k < g.L; k++ {
				t.A[k] = g.Qubit(r, c, true, k)
				t.B[k] = g.Qubit(r, c, false, k)
			}
			out = append(out, t)
		}
	}
	return out
}

// NumVerticalLines returns the number of vertical lines (N·L): a vertical
// line is the chain of vertically-coupled qubits V(·,c,k) spanning all M
// rows of one column. The paper's fast embedding allocates one logical
// variable per vertical line.
func (g *Chimera) NumVerticalLines() int { return g.N * g.L }

// VerticalLineQubit returns the qubit of vertical line `line` at row r.
// Lines are numbered left to right: line = c·L + k.
func (g *Chimera) VerticalLineQubit(line, r int) int {
	c, k := line/g.L, line%g.L
	return g.Qubit(r, c, false, k)
}

// VerticalLineOf returns the vertical line index of a vertical qubit,
// or -1 for horizontal qubits.
func (g *Chimera) VerticalLineOf(q int) int {
	_, c, h, k := g.Coords(q)
	if h {
		return -1
	}
	return c*g.L + k
}

// NumHorizontalLines returns the number of horizontal lines (M·L): a
// horizontal line is the chain H(r,·,k) spanning all N columns of one row.
// The paper's fast embedding allocates auxiliary variables and chain
// extensions on horizontal lines.
func (g *Chimera) NumHorizontalLines() int { return g.M * g.L }

// HorizontalLineQubit returns the qubit of horizontal line `line` at
// column c. Lines are numbered bottom row first (the paper's greedy
// allocation starts from the bottom horizontal line): line = (M−1−r)·L + k.
func (g *Chimera) HorizontalLineQubit(line, c int) int {
	r := g.M - 1 - line/g.L
	k := line % g.L
	return g.Qubit(r, c, true, k)
}

// HorizontalLineOf returns the horizontal line index of a horizontal qubit,
// or -1 for vertical qubits.
func (g *Chimera) HorizontalLineOf(q int) int {
	r, _, h, k := g.Coords(q)
	if !h {
		return -1
	}
	return (g.M-1-r)*g.L + k
}
