package topo

import "fmt"

// Pegasus is a Pegasus-family hardware model in "nice coordinates": three
// interleaved Chimera(s,s,4) fabrics (s = m−1) whose cells are augmented with
// odd couplers inside each K_{4,4} side and cross-fabric couplers between
// consecutive copies. A qubit is addressed (t, y, x, u, k) with fabric copy
// t ∈ [0,3), cell (y,x) ∈ [0,s)², orientation u ∈ {0,1} (0 horizontal) and
// in-cell index k ∈ [0,4); the linear index is ((t·s+y)·s+x)·8 + u·4 + k.
//
// The coupler set is the Chimera set per copy (intra-cell K_{4,4} plus
// same-orientation line links), plus:
//
//   - odd couplers: (t,y,x,u,k) — (t,y,x,u,k⊕1), pairing k=0↔1 and k=2↔3
//     within one side of a cell;
//   - cross-copy couplers: (t,y,x,u,k) — ((t+1) mod 3, y, x, 1−u, k),
//     stitching the three fabrics into one graph.
//
// This is a structurally faithful approximation of D-Wave's Pegasus P_m —
// same nice-coordinate skeleton, qubit degree 9 vs Chimera's 6 — not a
// coupler-exact replica of an Advantage working graph. What the embedding
// layers need from it is exactly what it models: denser connectivity than
// Chimera, so chains are shorter (Pudenz et al. tie chain length to error
// rates). Copy 0 alone is a Chimera(s,s,4) with the same qubit indices
// (Fabric), which is where the hybrid solver's Fast embedder places its
// clauses.
type Pegasus struct {
	M      int // Pegasus size parameter; the fabric grid is s×s with s = M−1
	s      int
	broken []bool
	adj    intAdj
	fabric *Chimera
}

// NewPegasus returns the Pegasus(m) model, m ≥ 2, whose qubits listed in
// broken are unusable. A repeated index is harmless; one out of range
// panics.
func NewPegasus(m int, broken ...int) *Pegasus {
	if m < 2 {
		panic(fmt.Sprintf("pegasus: invalid size %d", m))
	}
	s := m - 1
	g := &Pegasus{M: m, s: s, broken: brokenMask("pegasus", 3*s*s*8, broken)}
	g.adj = buildAdj(g.NumQubits(), g.broken, func(q int, emit func(p int)) {
		t, y, x, u, k := g.Coords(q)
		// Intra-cell K_{4,4} to the opposite side.
		for j := 0; j < 4; j++ {
			emit(g.Qubit(t, y, x, 1-u, j))
		}
		// Same-orientation line links within the copy.
		if u == 0 { // horizontal: along the row
			if x > 0 {
				emit(g.Qubit(t, y, x-1, 0, k))
			}
			if x < g.s-1 {
				emit(g.Qubit(t, y, x+1, 0, k))
			}
		} else { // vertical: along the column
			if y > 0 {
				emit(g.Qubit(t, y-1, x, 1, k))
			}
			if y < g.s-1 {
				emit(g.Qubit(t, y+1, x, 1, k))
			}
		}
		// Odd coupler: partner within the same side.
		emit(g.Qubit(t, y, x, u, k^1))
		// Cross-copy couplers: forward image in copy t+1 and the qubit in
		// copy t−1 whose forward image is q (both with flipped orientation).
		emit(g.Qubit((t+1)%3, y, x, 1-u, k))
		emit(g.Qubit((t+2)%3, y, x, 1-u, k))
	})
	copy0 := s * s * 8
	g.fabric = newChimera(s, s, 4, g.broken[:copy0:copy0])
	return g
}

// AdvantagePegasus returns the Pegasus(16) model, the generation-size of the
// D-Wave Advantage.
func AdvantagePegasus() *Pegasus { return NewPegasus(16) }

// Name identifies the topology family.
func (g *Pegasus) Name() string { return "pegasus" }

// NumQubits returns the total number of qubits, including broken ones.
func (g *Pegasus) NumQubits() int { return 3 * g.s * g.s * 8 }

// Qubit returns the linear index of qubit (t,y,x,u,k).
func (g *Pegasus) Qubit(t, y, x, u, k int) int {
	if t < 0 || t >= 3 || y < 0 || y >= g.s || x < 0 || x >= g.s ||
		u < 0 || u >= 2 || k < 0 || k >= 4 {
		panic(fmt.Sprintf("pegasus: qubit (%d,%d,%d,%d,%d) out of range", t, y, x, u, k))
	}
	return ((t*g.s+y)*g.s+x)*8 + u*4 + k
}

// Coords inverts Qubit.
func (g *Pegasus) Coords(q int) (t, y, x, u, k int) {
	k = q % 4
	q /= 4
	u = q % 2
	q /= 2
	x = q % g.s
	q /= g.s
	y = q % g.s
	t = q / g.s
	return
}

// Fabric returns fabric copy 0 as a Chimera(m−1, m−1, 4) over the same
// qubit indices: Chimera qubit ((y·s+x)·2+u)·4+k is Pegasus qubit
// (0,y,x,u,k), whose index is the same number, and every Chimera coupler is
// a Pegasus coupler. An embedding found on the fabric is therefore an
// embedding on g. The fabric's qubits are broken where g's are; NewPegasus
// builds it once over g's broken mask, and every call returns that graph.
func (g *Pegasus) Fabric() *Chimera { return g.fabric }

// IsBroken reports whether qubit q is unusable.
func (g *Pegasus) IsBroken(q int) bool { return g.broken[q] }

// Coupled reports whether working qubits a and b share a coupler, by scanning
// a's bounded-degree adjacency row.
func (g *Pegasus) Coupled(a, b int) bool { return coupledViaAdj(&g.adj, a, b) }

// Neighbors returns the working qubits coupled to q as a view into the
// precomputed CSR adjacency (nil when q is broken). The view must not be
// modified.
func (g *Pegasus) Neighbors(q int) []int { return g.adj.row(q) }

// Tiles enumerates the K_{4,4} unit cells copy-major then row-major: side A
// holds the horizontal (u=0) qubits of a cell, side B the vertical (u=1)
// ones. Broken qubits are included. Pegasus(m) yields 3·(m−1)² tiles — for
// m=16 that is 675 vs Chimera(16,16,4)'s 256, room for that many more
// co-tiled batch members.
func (g *Pegasus) Tiles() []Tile {
	out := make([]Tile, 0, 3*g.s*g.s)
	for t := 0; t < 3; t++ {
		for y := 0; y < g.s; y++ {
			for x := 0; x < g.s; x++ {
				tl := Tile{A: make([]int, 4), B: make([]int, 4)}
				for k := 0; k < 4; k++ {
					tl.A[k] = g.Qubit(t, y, x, 0, k)
					tl.B[k] = g.Qubit(t, y, x, 1, k)
				}
				out = append(out, tl)
			}
		}
	}
	return out
}
