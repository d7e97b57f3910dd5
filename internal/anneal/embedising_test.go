package anneal

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// referenceCouplers is the coupler list EmbedIsing must program, built from
// its definition: per embedded node in ascending order, the chain's
// ferromagnetic couplers (QubitOwners.IntraChainCouplers); then per logical
// coupling in ascending edge order with both ends embedded, the couplers
// between the two chains (QubitOwners.InterChainCouplers), each taking an
// equal share of J.
func referenceCouplers(is *qubo.Ising, emb *embed.Embedding, g topo.Topology, chainStrength float64, qubitIx map[int]int32) []coupler {
	nodes := make([]int, 0, len(emb.Chains))
	for n := range emb.Chains {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	owners := embed.NewQubitOwners(g.NumQubits())
	for _, n := range nodes {
		owners.Claim(n, emb.Chains[n])
	}
	var out []coupler
	add := func(es []topo.Edge, j float64) {
		for _, e := range es {
			out = append(out, coupler{qubitIx[e.A], qubitIx[e.B], j})
		}
	}
	for _, n := range nodes {
		add(owners.IntraChainCouplers(nil, g, n, emb.Chains[n]), -chainStrength)
	}
	terms := slices.Clone(is.J)
	slices.SortFunc(terms, func(a, b qubo.QuadTerm) int { return qubo.CompareEdges(a.Edge, b.Edge) })
	for _, t := range terms {
		e := t.Edge
		chainU, okU := emb.Chains[e.U]
		if _, okV := emb.Chains[e.V]; !okU || !okV {
			continue
		}
		es := owners.InterChainCouplers(nil, g, chainU, e.V)
		add(es, t.C/float64(len(es)))
	}
	return out
}

// TestEmbedIsingMatchesReferenceCouplers programs Fast embeddings of random
// queues (restricted to the embedded clauses, so some J edges have an
// unembedded end) and Minorminer embeddings, and checks that the CSR
// adjacency EmbedIsing builds is exactly the one its reference coupler list
// lays out. One scratch serves every trial, so state left by a larger
// problem must not leak into the next.
func TestEmbedIsingMatchesReferenceCouplers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := topo.NewChimera(8, 8, 4)
	var sc EmbedScratch
	for trial := 0; trial < 12; trial++ {
		q := make([]cnf.Clause, 20+rng.Intn(60))
		for i := range q {
			c := make(cnf.Clause, 1+rng.Intn(3))
			for j := range c {
				c[j] = cnf.MkLit(cnf.Var(rng.Intn(30)), rng.Intn(2) == 1)
			}
			q[i] = c
		}
		enc, err := qubo.Encode(q)
		if err != nil {
			t.Fatal(err)
		}
		var emb *embed.Embedding
		is := enc.Program(&qubo.Sums{}, false)
		if trial%3 == 2 {
			p := embed.ProblemFromEncoding(enc)
			if emb, err = (&embed.Minorminer{Seed: int64(trial)}).Embed(p, g); err != nil {
				continue
			}
		} else {
			res := embed.Fast(enc, g)
			emb = res.Embedding
			if trial%3 == 1 {
				sub := enc.Restrict(res.EmbeddedSet)
				is = sub.Program(&qubo.Sums{}, true)
			}
		}
		ep := sc.EmbedIsing(is, emb, g, 1.5)
		qubitIx := map[int]int32{}
		for i, q := range ep.Qubits {
			qubitIx[q] = int32(i)
		}
		want := &EmbeddedProblem{Qubits: ep.Qubits}
		want.finalize(referenceCouplers(is, emb, g, 1.5, qubitIx))
		if !reflect.DeepEqual(ep.adjStart, want.adjStart) || !reflect.DeepEqual(ep.adjOther, want.adjOther) ||
			!reflect.DeepEqual(ep.adjJ, want.adjJ) || !reflect.DeepEqual(ep.adjPair, want.adjPair) {
			t.Fatalf("trial %d: EmbedIsing's couplers differ from the reference list", trial)
		}
	}
}
