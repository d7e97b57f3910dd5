package anneal

import (
	"math"
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// templateTopologies returns small fresh instances of both hardware models.
func templateTopologies() []topo.Topology {
	return []topo.Topology{topo.NewChimera(4, 4, 4), topo.NewPegasus(4)}
}

// randTemplateQueue builds a template-eligible queue: var-disjoint clauses of
// random lengths 1–3 with random polarities.
func randTemplateQueue(rng *rand.Rand, n int) []cnf.Clause {
	var clauses []cnf.Clause
	v := cnf.Var(0)
	for i := 0; i < n; i++ {
		cl := make(cnf.Clause, 1+rng.Intn(3))
		for j := range cl {
			cl[j] = cnf.MkLit(v, rng.Intn(2) == 0)
			v++
		}
		clauses = append(clauses, cl)
	}
	return clauses
}

// isingFor runs a queue through the paper's full coefficient pipeline:
// encode → adjust → normalise → Ising.
func isingFor(t testing.TB, clauses []cnf.Clause) (*qubo.Encoding, *qubo.Ising) {
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	return enc, enc.Program(&qubo.Sums{}, true)
}

// Every template instantiation must pass embed.Verify, on both topologies,
// with and without randomly broken qubits.
func TestTemplateEmbeddingsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, g := range templateTopologies() {
		for round := 0; round < 2; round++ {
			if round == 1 {
				for i := 0; i < g.NumQubits()/25; i++ {
					g.MarkBroken(rng.Intn(g.NumQubits()))
				}
			}
			ts := embed.NewTemplateSet(g)
			if ts.Capacity() == 0 {
				t.Fatalf("%s: no capacity", g.Name())
			}
			for trial := 0; trial < 25; trial++ {
				checker := qubo.NewShapeChecker()
				queue := randTemplateQueue(rng, 1+rng.Intn(ts.Capacity()))
				shape, ok := checker.Shape(queue)
				if !ok {
					t.Fatal("generator produced ineligible queue")
				}
				emb, err := ts.EmbeddingFor(shape)
				if err != nil {
					t.Fatalf("%s round %d: %v", g.Name(), round, err)
				}
				if err := embed.Verify(ts.ProblemFor(shape), g, emb); err != nil {
					t.Fatalf("%s round %d shape %v: %v", g.Name(), round, shape, err)
				}
			}
		}
	}
}

// Broken qubits must shrink capacity (skipping short tiles) rather than ever
// appearing inside an instantiated chain.
func TestTemplateCapacityShrinksWithBrokenTiles(t *testing.T) {
	g := topo.NewChimera(3, 3, 4)
	full := embed.NewTemplateSet(g).Capacity()
	if full != 9 {
		t.Fatalf("capacity %d, want one per cell (9)", full)
	}
	// Break two horizontal (A-side) qubits of cell (0,0): 2 working A < 3.
	g.MarkBroken(g.Qubit(0, 0, true, 0))
	g.MarkBroken(g.Qubit(0, 0, true, 1))
	if got := embed.NewTemplateSet(g).Capacity(); got != full-1 {
		t.Fatalf("capacity %d after breaking a tile, want %d", got, full-1)
	}
	// Breaking one A qubit elsewhere leaves 3 working: capacity unchanged.
	g.MarkBroken(g.Qubit(1, 1, true, 3))
	if got := embed.NewTemplateSet(g).Capacity(); got != full-1 {
		t.Fatalf("capacity %d after redundant break, want %d", got, full-1)
	}
}

// The builder must program exactly what EmbedIsing would program over the
// same template embedding — same structure, coefficients equal to fp
// round-off — for both reuse (Build) and fresh (BuildNew) instantiation.
func TestTemplateBuilderMatchesEmbedIsing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range templateTopologies() {
		ts := embed.NewTemplateSet(g)
		for trial := 0; trial < 20; trial++ {
			queue := randTemplateQueue(rng, 1+rng.Intn(10))
			shape, _ := qubo.NewShapeChecker().Shape(queue)
			b, err := NewTemplateBuilder(ts, shape)
			if err != nil {
				t.Fatal(err)
			}
			_, is := isingFor(t, queue)
			cs := ChainStrengthFor(is)
			want := EmbedIsing(is, b.Embedding(), g, cs)
			for _, got := range []*EmbeddedProblem{b.BuildNew(is, cs), b.Build(is, cs)} {
				if got == nil {
					t.Fatalf("%s: Build rejected a fitting model", g.Name())
				}
				compareEmbedded(t, g.Name(), got, want)
			}
		}
	}
}

func compareEmbedded(t *testing.T, name string, got, want *EmbeddedProblem) {
	t.Helper()
	if len(got.Qubits) != len(want.Qubits) {
		t.Fatalf("%s: %d qubits, want %d", name, len(got.Qubits), len(want.Qubits))
	}
	gotNodes, wantNodes := qubitNodes(got), qubitNodes(want)
	for i := range got.Qubits {
		if got.Qubits[i] != want.Qubits[i] || gotNodes[i] != wantNodes[i] {
			t.Fatalf("%s: qubit order diverges at %d", name, i)
		}
		if !approxEq(got.H[i], want.H[i]) {
			t.Fatalf("%s: H[%d] = %v, want %v", name, i, got.H[i], want.H[i])
		}
	}
	if len(got.adjJ) != len(want.adjJ) {
		t.Fatalf("%s: %d adj entries, want %d", name, len(got.adjJ), len(want.adjJ))
	}
	for k := range got.adjJ {
		if got.adjOther[k] != want.adjOther[k] || got.adjPair[k] != want.adjPair[k] {
			t.Fatalf("%s: adjacency structure diverges at entry %d", name, k)
		}
		if !approxEq(got.adjJ[k], want.adjJ[k]) {
			t.Fatalf("%s: adjJ[%d] = %v, want %v", name, k, got.adjJ[k], want.adjJ[k])
		}
	}
	if !approxEq(got.offset, want.offset) || !approxEq(got.maxAbs, want.maxAbs) {
		t.Fatalf("%s: offset/maxAbs %v/%v, want %v/%v",
			name, got.offset, got.maxAbs, want.offset, want.maxAbs)
	}
	if len(got.chainNodes) != len(want.chainNodes) {
		t.Fatalf("%s: %d chains, want %d", name, len(got.chainNodes), len(want.chainNodes))
	}
}

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12 || d <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// Models that do not fit the shape must be rejected, not silently truncated.
func TestTemplateBuilderRejectsForeignModels(t *testing.T) {
	ts := embed.NewTemplateSet(topo.NewChimera(4, 4, 4))
	queue := randTemplateQueue(rand.New(rand.NewSource(8)), 3)
	shape, _ := qubo.NewShapeChecker().Shape(queue)
	b, err := NewTemplateBuilder(ts, shape)
	if err != nil {
		t.Fatal(err)
	}
	_, is := isingFor(t, queue)
	if b.Build(is, 1) == nil {
		t.Fatal("fitting model rejected")
	}
	// A coupling outside the template's edge support must be refused.
	bad := &qubo.Ising{H: is.H, J: map[qubo.Edge]float64{}}
	for e, j := range is.J {
		bad.J[e] = j
	}
	bad.J[qubo.MkEdge(0, b.NumNodes()-1)] = 0.5
	if b.Build(bad, 1) != nil {
		t.Fatal("foreign coupling accepted")
	}
	// A field on a node the shape does not carry must be refused.
	bad2 := &qubo.Ising{H: map[int]float64{b.NumNodes(): 1}, J: is.J}
	if b.Build(bad2, 1) != nil {
		t.Fatal("foreign field accepted")
	}
}

// The steady-state instantiation gate: Build must not allocate. This is the
// contract check.sh enforces (same discipline as the sweep kernel).
func TestTemplateInstantiateZeroAllocs(t *testing.T) {
	for _, g := range templateTopologies() {
		ts := embed.NewTemplateSet(g)
		queue := randTemplateQueue(rand.New(rand.NewSource(13)), 8)
		shape, _ := qubo.NewShapeChecker().Shape(queue)
		b, err := NewTemplateBuilder(ts, shape)
		if err != nil {
			t.Fatal(err)
		}
		_, is := isingFor(t, queue)
		cs := ChainStrengthFor(is)
		allocs := testing.AllocsPerRun(100, func() {
			if b.Build(is, cs) == nil {
				t.Fatal("Build rejected fitting model")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Build allocates %v allocs/run, want 0", g.Name(), allocs)
		}
	}
}

// Template-built problems must be samplable like any other EmbeddedProblem:
// the kernel stays allocation-free and the read set validates.
func TestTemplateBuiltProblemSamples(t *testing.T) {
	for _, g := range templateTopologies() {
		ts := embed.NewTemplateSet(g)
		queue := randTemplateQueue(rand.New(rand.NewSource(21)), 6)
		shape, _ := qubo.NewShapeChecker().Shape(queue)
		b, err := NewTemplateBuilder(ts, shape)
		if err != nil {
			t.Fatal(err)
		}
		_, is := isingFor(t, queue)
		ep := b.BuildNew(is, ChainStrengthFor(is))
		s := NewSampler(DefaultSchedule(), NoNoise, 7)
		rs := s.Sample(ep, 4)
		if err := ValidateReadSet(ep, &rs, 4); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
}

// FuzzTemplateInstantiate pins the safety contract of the whole template
// path: whatever queue the bytes decode to, it never panics, and when it
// produces an embedding or an EmbeddedProblem, they are valid.
func FuzzTemplateInstantiate(f *testing.F) {
	f.Add([]byte{3, 0, 2, 5, 9}, uint8(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, uint8(1))
	f.Add([]byte{200, 7, 7, 42, 0, 0, 3}, uint8(0))
	g := topo.NewChimera(3, 3, 4)
	gp := topo.NewPegasus(3)
	tsC := embed.NewTemplateSet(g)
	tsP := embed.NewTemplateSet(gp)
	checker := qubo.NewShapeChecker()

	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		ts, top := tsC, topo.Topology(g)
		if which%2 == 1 {
			ts, top = tsP, gp
		}
		// Decode a clause queue from the bytes: each byte contributes one
		// literal; a zero byte (or clause length 3) closes the clause. Vars
		// deliberately collide sometimes, producing ineligible queues.
		var queue []cnf.Clause
		var cur cnf.Clause
		for _, bb := range data {
			if bb == 0 {
				if len(cur) > 0 {
					queue = append(queue, cur)
					cur = nil
				}
				continue
			}
			cur = append(cur, cnf.MkLit(cnf.Var(bb>>1), bb&1 == 1))
			if len(cur) == 3 {
				queue = append(queue, cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			queue = append(queue, cur)
		}
		if len(queue) == 0 {
			return
		}
		shape, ok := checker.Shape(queue)
		if !ok || len(shape) > ts.Capacity() {
			return // Fast-fallback territory; nothing to instantiate
		}
		b, err := NewTemplateBuilder(ts, shape)
		if err != nil {
			t.Fatalf("eligible shape %v rejected: %v", shape, err)
		}
		if err := embed.Verify(ts.ProblemFor(shape), top, b.Embedding()); err != nil {
			t.Fatalf("invalid embedding for shape %v: %v", shape, err)
		}
		enc, err := qubo.Encode(queue)
		if err != nil {
			t.Fatalf("eligible queue failed to encode: %v", err)
		}
		is := enc.Program(&qubo.Sums{}, true)
		ep := b.Build(is, ChainStrengthFor(is))
		if ep == nil {
			t.Fatalf("template-shaped model rejected for shape %v", shape)
		}
		for i, h := range ep.H {
			if math.IsNaN(h) || math.IsInf(h, 0) {
				t.Fatalf("non-finite H[%d] = %v", i, h)
			}
		}
		for k, j := range ep.adjJ {
			if math.IsNaN(j) || math.IsInf(j, 0) {
				t.Fatalf("non-finite adjJ[%d] = %v", k, j)
			}
		}
	})
}
