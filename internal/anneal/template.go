package anneal

import (
	"math"

	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
)

// TemplateBuilder instantiates EmbeddedProblems from a precomputed clause
// template (embed.TemplateSet) without re-running any embedding search. The
// key fact it exploits: for a fixed queue shape, *everything structural* in
// an EmbeddedProblem — the active qubits, the CSR adjacency, the coupler pair
// ids, the chain lists — is identical across instantiations; only the
// programmed coefficients (H, adjJ, maxAbs, offset) depend on which literals
// the clauses carry. So the builder runs EmbedIsing once at construction, on
// a synthetic Ising with unit coefficients over the shape's edge support,
// keeps the result as an immutable skeleton, and instantiation reduces to
// rewriting two float slices.
//
// Build reuses one EmbeddedProblem in place — zero allocations in steady
// state, result valid until the next Build. BuildNew returns a fresh
// EmbeddedProblem that shares the read-only skeleton arrays but owns its
// coefficient slices, for results that outlive the builder's next call
// (cache entries). A builder is not safe for concurrent use; the
// EmbeddedProblems BuildNew returns are, like any other EmbeddedProblem.
type TemplateBuilder struct {
	ep        *EmbeddedProblem // reusable instance, skeleton + scratch coefficients
	edges     []qubo.Edge      // logical edge per edge id
	edgeID    map[qubo.Edge]int32
	numNodes  int
	nodeOf    []int     // per active qubit: the logical node of its chain
	entrySrc  []int32   // per CSR entry: edge id, or −1 for a chain coupler
	entrySpan []float64 // per CSR entry: 1/(couplers realising its edge)
	hScale    []float64 // per active qubit: 1/(chain length of its node)
}

// NewTemplateBuilder prepares the skeleton for one (template set, shape)
// pair. It errors when the shape does not fit the template set.
func NewTemplateBuilder(ts *embed.TemplateSet, shape []int) (*TemplateBuilder, error) {
	emb, err := ts.EmbeddingFor(shape)
	if err != nil {
		return nil, err
	}
	_, numNodes := qubo.LayoutForShape(shape)
	edges := qubo.EdgesForShape(shape)

	// Program a synthetic unit Ising through the trusted EmbedIsing path:
	// with every h = 1, every J = 1 and chainStrength = 1, the resulting
	// coefficient arrays *are* the instantiation scale factors — H[i] comes
	// out as 1/len(chain), each logical entry as 1/(parallel couplers), each
	// chain entry as −1.
	unit := &qubo.Ising{H: map[int]float64{}, J: map[qubo.Edge]float64{}}
	for n := 0; n < numNodes; n++ {
		unit.H[n] = 1
	}
	for _, e := range edges {
		unit.J[e] = 1
	}
	ep := EmbedIsing(unit, emb, ts.Topology(), 1)

	b := &TemplateBuilder{
		ep:        ep,
		edges:     edges,
		edgeID:    make(map[qubo.Edge]int32, len(edges)),
		numNodes:  numNodes,
		nodeOf:    make([]int, len(ep.Qubits)),
		entrySrc:  make([]int32, len(ep.adjJ)),
		entrySpan: make([]float64, len(ep.adjJ)),
		hScale:    append([]float64(nil), ep.H...),
	}
	for i, e := range edges {
		b.edgeID[e] = int32(i)
	}
	for ci, ix := range ep.chainIx {
		for _, i := range ix {
			b.nodeOf[i] = ep.chainNodes[ci]
		}
	}
	n := len(ep.Qubits)
	for i := 0; i < n; i++ {
		for k := ep.adjStart[i]; k < ep.adjStart[i+1]; k++ {
			u, v := b.nodeOf[i], b.nodeOf[ep.adjOther[k]]
			if u == v {
				b.entrySrc[k] = -1 // intra-chain ferromagnetic coupler
				continue
			}
			b.entrySrc[k] = b.edgeID[qubo.MkEdge(u, v)]
			b.entrySpan[k] = ep.adjJ[k] // unit J ÷ parallel couplers
		}
	}
	return b, nil
}

// NumNodes returns the logical node count of the builder's shape.
func (b *TemplateBuilder) NumNodes() int { return b.numNodes }

// Embedding returns the template embedding the builder instantiates over.
func (b *TemplateBuilder) Embedding() *embed.Embedding { return b.ep.Embedding }

// fits reports whether the Ising model is programmable on this skeleton:
// every coupling lies on a template edge and every field on a template node.
// Models that fail must go through the Fast path instead — silently dropping
// a coupling would emit an invalid programming.
func (b *TemplateBuilder) fits(is *qubo.Ising) bool {
	for e := range is.J {
		if _, ok := b.edgeID[e]; !ok {
			return false
		}
	}
	for n := range is.H {
		if n < 0 || n >= b.numNodes {
			return false
		}
	}
	return true
}

// program writes the Ising coefficients into dst's H/adjJ and refreshes the
// derived maxAbs and offset. dst must share this builder's skeleton.
func (b *TemplateBuilder) program(dst *EmbeddedProblem, is *qubo.Ising, chainStrength float64) {
	dst.offset = is.Offset
	maxAbs := 0.0
	for i := range dst.H {
		h := is.H[b.nodeOf[i]] * b.hScale[i]
		dst.H[i] = h
		if a := math.Abs(h); a > maxAbs {
			maxAbs = a
		}
	}
	for k := range dst.adjJ {
		var j float64
		if src := b.entrySrc[k]; src < 0 {
			j = -chainStrength
		} else {
			j = is.J[b.edges[src]] * b.entrySpan[k]
		}
		dst.adjJ[k] = j
		if a := math.Abs(j); a > maxAbs {
			maxAbs = a
		}
	}
	dst.maxAbs = maxAbs
}

// Build programs the Ising model into the builder's reusable
// EmbeddedProblem: zero allocations, result valid until the next Build or
// BuildNew call on this builder. It returns nil when the model does not fit
// the template shape (callers fall back to embed.Fast).
func (b *TemplateBuilder) Build(is *qubo.Ising, chainStrength float64) *EmbeddedProblem {
	if !b.fits(is) {
		return nil
	}
	b.program(b.ep, is, chainStrength)
	return b.ep
}

// BuildNew is Build into a fresh EmbeddedProblem that shares the immutable
// skeleton (qubit order, CSR adjacency, pair ids, chains) but owns its H and
// adjJ, so it stays valid — and safe for concurrent sampling — independent
// of later builder calls. It returns nil when the model does not fit.
func (b *TemplateBuilder) BuildNew(is *qubo.Ising, chainStrength float64) *EmbeddedProblem {
	if !b.fits(is) {
		return nil
	}
	ep := &EmbeddedProblem{}
	*ep = *b.ep
	ep.H = make([]float64, len(b.ep.H))
	ep.adjJ = make([]float64, len(b.ep.adjJ))
	b.program(ep, is, chainStrength)
	return ep
}
