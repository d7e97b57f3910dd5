package embed

import (
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// verifyFast runs Fast on g's fabric and checks the result with Verify
// against g itself, returning the embedded clause count.
func verifyFast(t *testing.T, clauses []cnf.Clause, g topo.Topology) int {
	t.Helper()
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := Fast(enc, FastFabric(g))
	if err := Verify(ProblemFromEncoding(enc.Restrict(res.EmbeddedSet)), g, res.Embedding); err != nil {
		broken := 0
		for q := range g.NumQubits() {
			if g.IsBroken(q) {
				broken++
			}
		}
		t.Fatalf("%s with %d broken qubits: %v", g.Name(), broken, err)
	}
	return res.EmbeddedClauses
}

// TestFastEmbeddingsVerify crosses random BFS queues with the 2000Q and
// Pegasus(16) at 0, 60, 120 and 300 random broken qubits: every Fast
// embedding must pass Verify against the real graph, and every chip must
// still host clauses.
func TestFastEmbeddingsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, chip := range []struct {
		name  string
		build func(broken ...int) topo.Topology
	}{
		{"chimera", func(b ...int) topo.Topology { return topo.NewChimera(16, 16, 4, b...) }},
		{"pegasus", func(b ...int) topo.Topology { return topo.NewPegasus(16, b...) }},
	} {
		qubits := chip.build().NumQubits()
		for _, broken := range []int{0, 60, 120, 300} {
			g := chip.build(distinctQubits(rng, qubits, broken)...)
			total := 0
			const queues = 10
			for range queues {
				nv := 100 + rng.Intn(100)
				clauses := bfsQueue(random3SATClauses(rng, nv, nv*43/10), nv)
				n := verifyFast(t, clauses[:300], g)
				if n == 0 {
					t.Fatalf("%s with %d broken qubits: Fast embedded nothing", chip.name, broken)
				}
				total += n
			}
			t.Logf("%s, %d broken: %.1f clauses per queue", chip.name, broken, float64(total)/queues)
		}
	}
}

// FastFabric hands out one fabric per graph: a Chimera is its own, and a
// Pegasus's is the one it built, so a solver built on a Pegasus builds no
// adjacency.
func TestFastFabricBuiltOnce(t *testing.T) {
	c := topo.NewChimera(4, 4, 4)
	if FastFabric(c) != c {
		t.Fatal("FastFabric(chimera) is not the chimera itself")
	}
	p := topo.NewPegasus(16, 7, 300)
	f := FastFabric(p)
	if f == nil || f != FastFabric(p) || f != p.Fabric() {
		t.Fatal("FastFabric(pegasus) is not the one fabric the pegasus built")
	}
	if !f.IsBroken(7) || !f.IsBroken(300) {
		t.Fatal("fabric lost the pegasus's broken qubits")
	}
}

// distinctQubits draws rng.Intn(n) until it has k distinct qubits.
func distinctQubits(rng *rand.Rand, n, k int) []int {
	drawn := map[int]bool{}
	var out []int
	for len(out) < k {
		if q := rng.Intn(n); !drawn[q] {
			drawn[q] = true
			out = append(out, q)
		}
	}
	return out
}

// FuzzFastVerify lets the input bytes choose a grid (a Chimera or a
// Pegasus), a set of broken qubits and a clause queue, and asserts that
// Fast's embedding passes Verify against the real graph.
func FuzzFastVerify(f *testing.F) {
	f.Add([]byte{3, 3, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0x85, 0, 0, 4, 7, 1, 9, 2, 200, 17, 33, 5, 8, 12, 99, 14, 3, 250})
	f.Add([]byte{7, 2, 1, 12, 0, 1, 0, 2, 0, 3, 0, 4, 1, 0, 1, 1, 5, 9, 13, 2, 40, 41, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var build func(broken ...int) topo.Topology
		if b := next(); b&0x80 != 0 {
			m := 2 + b%6
			build = func(broken ...int) topo.Topology { return topo.NewPegasus(m, broken...) }
		} else {
			m, n, l := 1+b%10, 1+next()%10, 1+next()%4
			build = func(broken ...int) topo.Topology { return topo.NewChimera(m, n, l, broken...) }
		}
		qubits := build().NumQubits()
		broken := make([]int, next()%16)
		for i := range broken {
			broken[i] = (next()<<8 | next()) % qubits
		}
		g := build(broken...)
		const vars = 24
		var clauses []cnf.Clause
		for len(data) > 0 && len(clauses) < 64 {
			c := make(cnf.Clause, 0, 3)
			for range 1 + next()%3 {
				b := next()
				c = append(c, cnf.MkLit(cnf.Var((b>>1)%vars), b&1 == 1))
			}
			clauses = append(clauses, c)
		}
		if _, err := qubo.Encode(clauses); err != nil {
			return // tautologies and repeated literals are not 3-SAT clauses
		}
		verifyFast(t, clauses, g)
	})
}
