// Package topo models quantum-annealer hardware graphs behind one Topology
// interface, so the embedding layers (embed.Fast, the minor-embedding
// heuristics) and the qbatch co-tiling packer can target any qubit fabric.
//
// Two concrete topologies are provided:
//
//   - Chimera(M,N,L): the D-Wave 2000Q fabric the HyQSAT paper targets — an
//     M×N grid of K_{L,L} unit cells with line couplers along rows/columns.
//   - Pegasus(m): a denser Pegasus-family model (three interleaved Chimera
//     fabrics plus odd and cross-fabric couplers), in the spirit of the
//     D-Wave Advantage generation: higher degree means shorter chains, and
//     chain length drives error rates (Pudenz et al.).
//
// Both take their broken qubits at construction, as a calibrated chip's
// working graph is fixed, and precompute CSR adjacency then, so Neighbors
// returns a subslice view with zero allocations — it sits under the
// minor-embedding heuristics' routing, anneal.EmbedIsing and embed.Verify.
// Nothing changes a graph once its constructor returns, so one graph may be
// shared by any number of solvers and goroutines.
package topo

import "fmt"

// Edge is an unordered coupler between two qubits, with A < B.
type Edge struct{ A, B int }

// Tile is one K_{L,L} unit cell of a topology: every working qubit on side A
// shares a coupler with every working qubit on side B (no couplers within a
// side are implied). Tiles are the unit the qbatch packer allocates when it
// co-tiles several small problems into one device program. Broken qubits
// are included in the slices; consumers filter with IsBroken.
type Tile struct {
	A, B []int
}

// Topology is an immutable hardware qubit graph: a fixed qubit index space,
// a coupler relation, the set of broken (unusable) qubits given to its
// constructor, and a tiling into K_{L,L} unit cells. Implementations
// precompute CSR adjacency; Neighbors must be allocation-free.
type Topology interface {
	// Name identifies the topology family ("chimera", "pegasus").
	Name() string
	// NumQubits returns the size of the qubit index space, broken included.
	NumQubits() int
	// IsBroken reports whether qubit q is unusable.
	IsBroken(q int) bool
	// Coupled reports whether working qubits a and b share a coupler.
	Coupled(a, b int) bool
	// Neighbors returns the working qubits coupled to q as a view into
	// precomputed adjacency (nil when q is broken). Callers must not modify
	// it.
	Neighbors(q int) []int
	// Tiles enumerates the K_{L,L} unit cells in a fixed deterministic order;
	// the qbatch packer places batch members tile by tile.
	Tiles() []Tile
}

// New builds a topology by family name with its hardware-default size:
// "chimera" is the D-Wave 2000Q Chimera(16,16,4), "pegasus" the Pegasus(16)
// model. Unknown names error.
func New(name string) (Topology, error) {
	switch name {
	case "chimera":
		return DWave2000Q(), nil
	case "pegasus":
		return AdvantagePegasus(), nil
	default:
		return nil, fmt.Errorf("topo: unknown topology %q (want chimera or pegasus)", name)
	}
}

// brokenMask returns the broken mask over n qubits with every listed qubit
// set. A repeated index is harmless; one outside [0,n) panics, naming the
// topology family and the index.
func brokenMask(family string, n int, broken []int) []bool {
	mask := make([]bool, n)
	for _, q := range broken {
		if q < 0 || q >= n {
			panic(fmt.Sprintf("%s: broken qubit %d out of range [0,%d)", family, q, n))
		}
		mask[q] = true
	}
	return mask
}

// intAdj is precomputed compressed-sparse-row adjacency over working qubits:
// the neighbours of q are list[start[q]:start[q+1]]. Rows are []int (not a
// narrower type) so Neighbors can return a subslice view with zero allocs.
type intAdj struct {
	start []int32
	list  []int
}

func (a *intAdj) row(q int) []int {
	s, e := a.start[q], a.start[q+1]
	if s == e {
		return nil
	}
	return a.list[s:e:e]
}

// buildAdj constructs CSR adjacency for n qubits from a neighbour generator:
// forEach(q, emit) must call emit(p) once per coupler partner of q (in the
// order Neighbors should present them), regardless of broken state — broken
// endpoints are filtered here. Rows of broken qubits are left empty. The two
// emit callbacks are built once, not once per qubit, so construction
// allocates only the CSR arrays.
func buildAdj(n int, broken []bool, forEach func(q int, emit func(p int))) intAdj {
	counts := make([]int32, n+1)
	var q int
	count := func(p int) {
		if !broken[p] {
			counts[q+1]++
		}
	}
	for q = 0; q < n; q++ {
		if !broken[q] {
			forEach(q, count)
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	adj := intAdj{start: counts, list: make([]int, counts[n])}
	fill := make([]int32, n)
	copy(fill, counts[:n])
	add := func(p int) {
		if !broken[p] {
			adj.list[fill[q]] = p
			fill[q]++
		}
	}
	for q = 0; q < n; q++ {
		if !broken[q] {
			forEach(q, add)
		}
	}
	return adj
}

// coupledViaAdj implements Coupled by scanning the (bounded-degree) row.
func coupledViaAdj(adj *intAdj, a, b int) bool {
	if a == b {
		return false
	}
	for _, p := range adj.row(a) {
		if p == b {
			return true
		}
	}
	return false
}
