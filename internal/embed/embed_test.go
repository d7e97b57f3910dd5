package embed

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

func random3SATClauses(rng *rand.Rand, nVars, nClauses int) []cnf.Clause {
	out := make([]cnf.Clause, nClauses)
	for i := range out {
		perm := rng.Perm(nVars)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		out[i] = c
	}
	return out
}

// bfsQueue reorders clauses breadth-first by shared variables, mimicking the
// frontend's queue so Fast sees realistic locality.
func bfsQueue(clauses []cnf.Clause, numVars int) []cnf.Clause {
	f := cnf.New(numVars)
	for _, c := range clauses {
		f.AddClause(c)
	}
	adj := cnf.VarAdjacency(f)
	visited := make([]bool, len(clauses))
	var queue []cnf.Clause
	var worklist []int
	push := func(i int) {
		if !visited[i] {
			visited[i] = true
			worklist = append(worklist, i)
		}
	}
	push(0)
	for head := 0; head < len(worklist); head++ {
		i := worklist[head]
		queue = append(queue, clauses[i])
		for _, v := range clauses[i].Vars() {
			for _, j := range adj[v] {
				push(j)
			}
		}
	}
	for i := range clauses {
		if !visited[i] {
			queue = append(queue, clauses[i])
		}
	}
	return queue
}

func TestFastSingleClause(t *testing.T) {
	g := topo.NewChimera(2, 2, 2)
	enc, err := qubo.Encode([]cnf.Clause{cnf.NewClause(1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	res := Fast(enc, g)
	if res.EmbeddedClauses != 1 {
		t.Fatalf("embedded %d clauses, want 1", res.EmbeddedClauses)
	}
	p := ProblemFromEncoding(enc)
	if err := Verify(p, g, res.Embedding); err != nil {
		t.Fatal(err)
	}
	if len(res.Embedding.Chains) != 4 { // x1,x2,x3 + aux
		t.Fatalf("chains = %d, want 4", len(res.Embedding.Chains))
	}
}

func TestFastShortClauses(t *testing.T) {
	g := topo.NewChimera(4, 4, 4)
	clauses := []cnf.Clause{
		cnf.NewClause(1),
		cnf.NewClause(2, -3),
		cnf.NewClause(1, 2, 4),
	}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := Fast(enc, g)
	if res.EmbeddedClauses != 3 {
		t.Fatalf("embedded %d clauses, want 3", res.EmbeddedClauses)
	}
	if err := Verify(ProblemFromEncoding(enc), g, res.Embedding); err != nil {
		t.Fatal(err)
	}
}

func TestFastOn2000QRandomQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := topo.DWave2000Q()
	clauses := bfsQueue(random3SATClauses(rng, 200, 250), 200)
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := Fast(enc, g)
	if res.EmbeddedClauses < 20 {
		t.Fatalf("embedded only %d clauses on a 2000Q", res.EmbeddedClauses)
	}
	// Verify against the problem graph restricted to the embedded clauses
	// (same node numbering as the full encoding).
	sub := enc.Restrict(res.EmbeddedSet)
	if err := Verify(ProblemFromEncoding(sub), g, res.Embedding); err != nil {
		t.Fatal(err)
	}
	t.Logf("embedded %d/250 clauses, %d chains, mean chain %.2f, max chain %d, qubits used %d",
		res.EmbeddedClauses, len(res.Embedding.Chains),
		res.Embedding.MeanChainLength(), res.Embedding.MaxChainLength(),
		res.Embedding.QubitsUsed())
}

func TestFastPrefixEdgesAllRealized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := topo.NewChimera(8, 8, 4)
	clauses := bfsQueue(random3SATClauses(rng, 60, 120), 60)
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := Fast(enc, g)
	if res.EmbeddedClauses == 0 {
		t.Fatal("nothing embedded")
	}
	// Every quadratic term of every embedded clause must have a coupler.
	inSet := map[int]bool{}
	for _, k := range res.EmbeddedSet {
		inSet[k] = true
	}
	owners := NewQubitOwners(g.NumQubits())
	for node, chain := range res.Embedding.Chains {
		owners.Claim(node, chain)
	}
	for i := range enc.Sub {
		if !inSet[enc.Sub[i].Clause] {
			continue
		}
		for _, q := range enc.Sub[i].Quad() {
			e := q.Edge
			if len(owners.InterChainCouplers(nil, g, res.Embedding.Chains[e.U], e.V)) == 0 {
				t.Fatalf("edge %v of embedded clause %d not realised", e, enc.Sub[i].Clause)
			}
		}
	}
}

func TestFastDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clauses := bfsQueue(random3SATClauses(rng, 50, 80), 50)
	g := topo.NewChimera(8, 8, 4)
	enc1, _ := qubo.Encode(clauses)
	enc2, _ := qubo.Encode(clauses)
	r1, r2 := Fast(enc1, g), Fast(enc2, g)
	if r1.EmbeddedClauses != r2.EmbeddedClauses {
		t.Fatalf("non-deterministic: %d vs %d", r1.EmbeddedClauses, r2.EmbeddedClauses)
	}
	if r1.Embedding.QubitsUsed() != r2.Embedding.QubitsUsed() {
		t.Fatal("non-deterministic qubit usage")
	}
}

func TestFastCapacityGrowsWithGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	clauses := bfsQueue(random3SATClauses(rng, 150, 250), 150)
	var prev int
	for _, m := range []int{8, 16, 24} {
		enc, _ := qubo.Encode(clauses)
		res := Fast(enc, topo.NewChimera(m, m, 4))
		if res.EmbeddedClauses < prev {
			t.Fatalf("capacity shrank on larger grid: %d on %d×%d (prev %d)",
				res.EmbeddedClauses, m, m, prev)
		}
		prev = res.EmbeddedClauses
	}
}

func triangle() *Problem {
	return &Problem{NumNodes: 3, Edges: []qubo.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}}
}

func completeGraph(n int) *Problem {
	p := &Problem{NumNodes: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.Edges = append(p.Edges, qubo.Edge{U: i, V: j})
		}
	}
	return p
}

func TestMinorminerTriangle(t *testing.T) {
	g := topo.NewChimera(2, 2, 4)
	mm := &Minorminer{Seed: 1}
	emb, err := mm.Embed(triangle(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(triangle(), g, emb); err != nil {
		t.Fatal(err)
	}
}

func TestMinorminerK6NeedsChains(t *testing.T) {
	// K6 is not a subgraph of Chimera (max degree 6 but bipartite cells),
	// so chains are mandatory.
	g := topo.NewChimera(3, 3, 4)
	mm := &Minorminer{Seed: 3, MaxRounds: 64}
	p := completeGraph(6)
	emb, err := mm.Embed(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, g, emb); err != nil {
		t.Fatal(err)
	}
	if emb.MaxChainLength() < 2 {
		t.Fatal("K6 embedding should need chains of length ≥ 2")
	}
}

func TestMinorminerClauseQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	clauses := bfsQueue(random3SATClauses(rng, 40, 40), 40)
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	p := ProblemFromEncoding(enc)
	g := topo.DWave2000Q()
	mm := &Minorminer{Seed: 7, MaxRounds: 32}
	emb, err := mm.Embed(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, g, emb); err != nil {
		t.Fatal(err)
	}
	t.Logf("minorminer: %d chains, mean %.2f, max %d",
		len(emb.Chains), emb.MeanChainLength(), emb.MaxChainLength())
}

// TestMinorminerDeterministicOnEncodings pins that a same-seed Minorminer
// run on an encoding's problem graph gives the same chains every time: the
// graph reaches it in the same edge order on every extraction.
func TestMinorminerDeterministicOnEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	clauses := bfsQueue(random3SATClauses(rng, 20, 91), 20)[:25]
	g := topo.DWave2000Q()
	var first *Embedding
	for run := 0; run < 4; run++ {
		enc, err := qubo.Encode(clauses)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := (&Minorminer{Seed: 3, MaxRounds: 8}).Embed(ProblemFromEncoding(enc), g)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = emb
		} else if !reflect.DeepEqual(emb.Chains, first.Chains) {
			t.Fatalf("run %d: same-seed embedding differs from run 0", run)
		}
	}
}

func TestMinorminerTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	clauses := bfsQueue(random3SATClauses(rng, 120, 200), 120)
	enc, _ := qubo.Encode(clauses)
	p := ProblemFromEncoding(enc)
	mm := &Minorminer{Seed: 1, MaxRounds: 1000, Timeout: time.Millisecond}
	if _, err := mm.Embed(p, topo.DWave2000Q()); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPandRTriangle(t *testing.T) {
	g := topo.NewChimera(2, 2, 4)
	pr := &PandR{Seed: 1}
	emb, err := pr.Embed(triangle(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(triangle(), g, emb); err != nil {
		t.Fatal(err)
	}
}

func TestPandRClauseQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	clauses := bfsQueue(random3SATClauses(rng, 30, 25), 30)
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	p := ProblemFromEncoding(enc)
	g := topo.DWave2000Q()
	pr := &PandR{Seed: 5}
	emb, err := pr.Embed(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, g, emb); err != nil {
		t.Fatal(err)
	}
}

func TestPandROverCapacity(t *testing.T) {
	g := topo.NewChimera(1, 1, 4)
	if _, err := (&PandR{Seed: 1}).Embed(completeGraph(10), g); err == nil {
		t.Fatal("expected failure beyond capacity")
	}
}

func TestVerifyCatchesBadEmbeddings(t *testing.T) {
	g := topo.NewChimera(2, 2, 4)
	p := triangle()

	// Empty chain.
	e := NewEmbedding()
	e.Chains[0] = []int{}
	if Verify(p, g, e) == nil {
		t.Fatal("empty chain accepted")
	}

	// Overlapping chains.
	e = NewEmbedding()
	e.Chains[0] = []int{0}
	e.Chains[1] = []int{0}
	if Verify(p, g, e) == nil {
		t.Fatal("overlapping chains accepted")
	}

	// Disconnected chain: two qubits with no coupler.
	q1 := g.Qubit(0, 0, true, 0)
	q2 := g.Qubit(1, 1, true, 0)
	if g.Coupled(q1, q2) {
		t.Fatal("test setup: qubits unexpectedly coupled")
	}
	e = NewEmbedding()
	e.Chains[0] = []int{q1, q2}
	if Verify(p, g, e) == nil {
		t.Fatal("disconnected chain accepted")
	}

	// Unrealised edge: nodes 0 and 1 far apart with no coupler.
	e = NewEmbedding()
	e.Chains[0] = []int{g.Qubit(0, 0, true, 0)}
	e.Chains[1] = []int{g.Qubit(1, 1, true, 1)}
	e.Chains[2] = []int{g.Qubit(0, 0, false, 0)}
	if Verify(p, g, e) == nil {
		t.Fatal("unrealised edge accepted")
	}

	// Out-of-range and broken qubits.
	e = NewEmbedding()
	e.Chains[0] = []int{9999}
	if Verify(p, g, e) == nil {
		t.Fatal("out-of-range qubit accepted")
	}
	e = NewEmbedding()
	e.Chains[0] = []int{5}
	if Verify(p, topo.NewChimera(2, 2, 4, 5), e) == nil {
		t.Fatal("broken qubit accepted")
	}
}

func TestEmbeddingStats(t *testing.T) {
	e := NewEmbedding()
	e.Chains[0] = []int{1, 2, 3}
	e.Chains[1] = []int{4}
	if e.QubitsUsed() != 4 {
		t.Fatalf("QubitsUsed = %d", e.QubitsUsed())
	}
	if e.MeanChainLength() != 2 {
		t.Fatalf("MeanChainLength = %v", e.MeanChainLength())
	}
	if e.MaxChainLength() != 3 {
		t.Fatalf("MaxChainLength = %d", e.MaxChainLength())
	}
	if NewEmbedding().MeanChainLength() != 0 {
		t.Fatal("empty embedding mean should be 0")
	}
}

func TestIntraChainCouplers(t *testing.T) {
	g := topo.NewChimera(2, 2, 4)
	// A vertical line chain of two rows: one coupler between them.
	chain := []int{g.VerticalLineQubit(0, 0), g.VerticalLineQubit(0, 1)}
	o := NewQubitOwners(g.NumQubits())
	o.Claim(7, chain)
	cs := o.IntraChainCouplers(nil, g, 7, chain)
	if len(cs) != 1 {
		t.Fatalf("couplers = %v", cs)
	}
}

func TestFastAlwaysProducesValidEmbeddings(t *testing.T) {
	// Property: for random clause queues of any shape, the fast embedder's
	// output always verifies — chains disjoint, connected, and every edge of
	// every embedded clause realised. This is the regression test for the
	// shared-vertical-line span collision bug.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		nv := 20 + rng.Intn(180)
		m := nv*3 + rng.Intn(nv*2)
		clauses := bfsQueue(random3SATClauses(rng, nv, m), nv)
		if len(clauses) > 300 {
			clauses = clauses[:300]
		}
		enc, err := qubo.Encode(clauses)
		if err != nil {
			t.Fatal(err)
		}
		grids := []int{8, 16, 24}
		g := topo.NewChimera(grids[trial%3], grids[trial%3], 4)
		res := Fast(enc, g)
		if res.EmbeddedClauses == 0 {
			continue
		}
		sub := enc.Restrict(res.EmbeddedSet)
		if err := Verify(ProblemFromEncoding(sub), g, res.Embedding); err != nil {
			t.Fatalf("trial %d (nv=%d m=%d grid=%d): %v", trial, nv, m, g.M, err)
		}
	}
}
