package hyqsat

import (
	"fmt"
	"math/rand"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// EmbedBench is the fixture behind `benchreport -suite embed`: one clause
// queue (var-disjoint 3-literal clauses) prepared for ColdFast, the
// frontend's embedding pass — Fast embedding search on the topology's
// fabric, restriction, coefficient adjustment, normalisation, EmbedIsing —
// on reused scratch as the solver runs it. The encoding is built once in
// NewEmbedBench, so ColdFast measures only the embedding pass.
type EmbedBench struct {
	graph  topo.Topology
	fabric *topo.Chimera
	enc    *qubo.Encoding
	front  frontendScratch
}

// NewEmbedBench prepares the fixture for a topology ("chimera" or "pegasus")
// and queue length.
func NewEmbedBench(topology string, nClauses int) (*EmbedBench, error) {
	g, err := topo.New(topology)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	queue := make([]cnf.Clause, nClauses)
	for i := range queue {
		c := make(cnf.Clause, 3)
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(3*i+j), rng.Intn(2) == 1)
		}
		queue[i] = c
	}
	enc, err := qubo.Encode(queue)
	if err != nil {
		return nil, err
	}
	eb := &EmbedBench{graph: g, fabric: embed.FastFabric(g), enc: enc}
	if eb.fabric == nil {
		return nil, fmt.Errorf("embedbench: topology %s has no Fast embedder", g.Name())
	}
	return eb, nil
}

// ColdFast runs the embedding pass once (embedding search included), as
// Solver.encodeAndEmbed does after encoding, and returns the number of
// embedded clauses.
func (e *EmbedBench) ColdFast() int {
	fastRes := e.front.fast.Fast(e.enc, e.fabric)
	if fastRes.EmbeddedClauses == 0 {
		panic("embedbench: Fast embedded nothing")
	}
	ising := e.enc.Restrict(fastRes.EmbeddedSet).Program(&e.front.sums, true)
	e.front.ising.EmbedIsing(ising, fastRes.Embedding, e.graph, anneal.ChainStrengthFor(ising))
	return fastRes.EmbeddedClauses
}
