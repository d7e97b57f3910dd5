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

// EmbedBench is the fixture behind `benchreport -suite embed`: one
// template-eligible clause queue (var-disjoint 3-literal clauses) prepared
// for all three ways the frontend can produce an EmbeddedProblem, so the
// three costs are directly comparable on identical input:
//
//   - ColdFast — the pre-template miss path: Fast embedding search,
//     restriction, coefficient adjustment, normalisation, EmbedIsing, on
//     reused scratch as the solver runs it.
//   - TemplateInstantiate — the template miss path: rewrite the precomputed
//     skeleton's coefficient arrays in place (zero allocations).
//   - CacheHit — a content-key lookup in a prewarmed sharded LRU.
//
// Everything shape-dependent (encoding, Ising model, template builder,
// cache key) is built once in NewEmbedBench; the methods measure only the
// step they are named after.
type EmbedBench struct {
	graph   topo.Topology
	chim    *topo.Chimera // nil when the topology has no Fast embedder
	enc     *qubo.Encoding
	ising   *qubo.Ising
	builder *anneal.TemplateBuilder
	cs      float64
	cache   *SharedEmbedCache
	key     []cnf.Lit
	hash    uint64
	front   frontendScratch
}

// NewEmbedBench prepares the fixture for a topology ("chimera" or "pegasus")
// and queue length. The queue must fit the topology's template capacity.
func NewEmbedBench(topology string, nClauses int) (*EmbedBench, error) {
	g, err := topo.New(topology)
	if err != nil {
		return nil, err
	}
	ts := embed.NewTemplateSet(g)
	if nClauses > ts.Capacity() {
		return nil, fmt.Errorf("embedbench: %d clauses exceed %s template capacity %d",
			nClauses, g.Name(), ts.Capacity())
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
	shape, ok := qubo.NewShapeChecker().Shape(queue)
	if !ok {
		return nil, fmt.Errorf("embedbench: fixture queue not template-eligible")
	}
	builder, err := anneal.NewTemplateBuilder(ts, shape)
	if err != nil {
		return nil, err
	}
	eb := &EmbedBench{
		graph:   g,
		enc:     enc,
		builder: builder,
		cache:   newEmbedCache(),
	}
	eb.ising = enc.Program(&eb.front.sums, true)
	eb.cs = anneal.ChainStrengthFor(eb.ising)
	eb.chim, _ = g.(*topo.Chimera)

	n := len(queue)
	for _, c := range queue {
		n += len(c)
	}
	eb.key = make([]cnf.Lit, 0, n)
	for _, c := range queue {
		eb.key = append(eb.key, c...)
		eb.key = append(eb.key, cnf.NoLit)
	}
	eb.hash = hashLits(eb.key)
	ep := builder.BuildNew(eb.ising, eb.cs)
	if ep == nil {
		return nil, fmt.Errorf("embedbench: fixture Ising does not fit its own template")
	}
	eb.cache.store(eb.key, eb.hash, &embedCacheEntry{
		embEnc: enc, ep: ep, embedded: nClauses, viaTemplate: true,
	})
	return eb, nil
}

// SupportsFast reports whether the fixture's topology has a Fast embedder.
func (e *EmbedBench) SupportsFast() bool { return e.chim != nil }

// ColdFast runs the legacy miss pipeline once (embedding search included)
// and returns the number of embedded clauses.
func (e *EmbedBench) ColdFast() int {
	if e.chim == nil {
		panic("embedbench: topology has no Fast embedder")
	}
	fastRes := e.front.fast.Fast(e.enc, e.chim)
	if fastRes.EmbeddedClauses == 0 {
		panic("embedbench: Fast embedded nothing")
	}
	ising := e.enc.Restrict(fastRes.EmbeddedSet).Program(&e.front.sums, true)
	anneal.EmbedIsing(ising, fastRes.Embedding, e.graph,
		anneal.ChainStrengthFor(ising))
	return fastRes.EmbeddedClauses
}

// TemplateInstantiate programs the fixture's Ising onto the template
// skeleton (the zero-allocation steady-state miss path) and returns the
// instantiated problem.
func (e *EmbedBench) TemplateInstantiate() *anneal.EmbeddedProblem {
	ep := e.builder.Build(e.ising, e.cs)
	if ep == nil {
		panic("embedbench: template instantiation rejected fixture Ising")
	}
	return ep
}

// CacheHit looks the fixture queue up in the prewarmed cache and returns the
// entry's embedded-clause count.
func (e *EmbedBench) CacheHit() int {
	ent := e.cache.lookup(e.key, e.hash)
	if ent == nil {
		panic("embedbench: prewarmed cache missed")
	}
	return ent.embedded
}
