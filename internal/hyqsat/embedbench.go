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
// queue (var-disjoint 3-literal clauses) prepared for both ways the frontend
// can produce an EmbeddedProblem, so the two costs are directly comparable
// on identical input:
//
//   - ColdFast — the miss path: Fast embedding search on the topology's
//     fabric, restriction, coefficient adjustment, normalisation,
//     EmbedIsing, on reused scratch as the solver runs it.
//   - CacheHit — a content-key lookup in a prewarmed sharded LRU.
//
// The encoding and cache key are built once in NewEmbedBench; the methods
// measure only the step they are named after.
type EmbedBench struct {
	graph  topo.Topology
	fabric *topo.Chimera
	enc    *qubo.Encoding
	cache  *SharedEmbedCache
	key    []cnf.Lit
	hash   uint64
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
	eb := &EmbedBench{
		graph:  g,
		fabric: embed.FastFabric(g),
		enc:    enc,
		cache:  newEmbedCache(),
	}
	if eb.fabric == nil {
		return nil, fmt.Errorf("embedbench: topology %s has no Fast embedder", g.Name())
	}

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
	eb.cache.store(eb.key, eb.hash, eb.embed())
	return eb, nil
}

// ColdFast runs the miss pipeline once (embedding search included) and
// returns the number of embedded clauses.
func (e *EmbedBench) ColdFast() int { return e.embed().embedded }

// embed runs the miss pipeline as Solver.encodeAndEmbed does after encoding.
func (e *EmbedBench) embed() *embedCacheEntry {
	fastRes := e.front.fast.Fast(e.enc, e.fabric)
	if fastRes.EmbeddedClauses == 0 {
		panic("embedbench: Fast embedded nothing")
	}
	embEnc := e.enc.Restrict(fastRes.EmbeddedSet)
	ising := embEnc.Program(&e.front.sums, true)
	ep := anneal.EmbedIsing(ising, fastRes.Embedding, e.graph, anneal.ChainStrengthFor(ising))
	return &embedCacheEntry{embEnc: embEnc, ep: ep, embedded: fastRes.EmbeddedClauses}
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
