// Embedding comparison: take one clause queue, embed it on a D-Wave 2000Q
// Chimera topology with the paper's linear-time scheme and with the two
// baseline embedders, and compare time, capacity, and chain lengths —
// a miniature of the paper's Figure 13.
package main

import (
	"fmt"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

func main() {
	g := topo.DWave2000Q()
	fmt.Printf("hardware: Chimera %d×%d×%d, %d qubits, %d couplers\n",
		g.M, g.N, g.L, g.NumQubits(), len(g.Edges()))

	inst := gen.Random3SAT(200, 860, 13)
	adj := cnf.VarAdjacency(inst.Formula)
	// Breadth-first clause queue from clause 0, as the frontend would build.
	visited := make([]bool, inst.Formula.NumClauses())
	queue := []int{0}
	visited[0] = true
	for head := 0; head < len(queue) && len(queue) < 60; head++ {
		for _, v := range inst.Formula.Clauses[queue[head]].Vars() {
			for _, j := range adj[v] {
				if !visited[j] && len(queue) < 60 {
					visited[j] = true
					queue = append(queue, j)
				}
			}
		}
	}
	clauses := make([]cnf.Clause, len(queue))
	for i, ci := range queue {
		clauses[i] = inst.Formula.Clauses[ci]
	}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		panic(err)
	}
	problem := embed.ProblemFromEncoding(enc)
	fmt.Printf("queue: %d clauses → %d nodes, %d couplings\n\n",
		len(clauses), problem.NumNodes, len(problem.Edges))

	// The paper's linear-time scheme.
	start := time.Now()
	res := embed.Fast(enc, g)
	fastTime := time.Since(start)
	fmt.Printf("%-16s %10v  embedded %d/%d clauses, mean chain %.2f, max %d\n",
		"hyqsat-fast", fastTime, res.EmbeddedClauses, len(clauses),
		res.Embedding.MeanChainLength(), res.Embedding.MaxChainLength())

	// Minorminer-style baseline.
	start = time.Now()
	mm := &embed.Minorminer{Seed: 1, MaxRounds: 64, Timeout: 30 * time.Second}
	if emb, err := mm.Embed(problem, g); err == nil {
		fmt.Printf("%-16s %10v  embedded %d/%d clauses, mean chain %.2f, max %d\n",
			"minorminer", time.Since(start), len(clauses), len(clauses),
			emb.MeanChainLength(), emb.MaxChainLength())
	} else {
		fmt.Printf("%-16s %10v  failed: %v\n", "minorminer", time.Since(start), err)
	}

	// Place-and-route baseline.
	start = time.Now()
	pr := &embed.PandR{Seed: 1, Timeout: 30 * time.Second}
	if emb, err := pr.Embed(problem, g); err == nil {
		fmt.Printf("%-16s %10v  embedded %d/%d clauses, mean chain %.2f, max %d\n",
			"place-and-route", time.Since(start), len(clauses), len(clauses),
			emb.MeanChainLength(), emb.MaxChainLength())
	} else {
		fmt.Printf("%-16s %10v  failed: %v\n", "place-and-route", time.Since(start), err)
	}
}
