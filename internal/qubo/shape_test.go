package qubo

import (
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
)

// randEligibleQueue builds a template-eligible queue (var-disjoint clauses of
// random lengths 1–3 and random polarities) and its shape.
func randEligibleQueue(rng *rand.Rand, n int) ([]cnf.Clause, []int) {
	var clauses []cnf.Clause
	var shape []int
	v := cnf.Var(0)
	for i := 0; i < n; i++ {
		ln := 1 + rng.Intn(3)
		cl := make(cnf.Clause, ln)
		for j := range cl {
			cl[j] = cnf.MkLit(v, rng.Intn(2) == 0)
			v++
		}
		clauses = append(clauses, cl)
		shape = append(shape, ln)
	}
	return clauses, shape
}

// The layout/edge contract the template embedder relies on must match what
// Encode actually produces, for every polarity combination.
func TestLayoutMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		clauses, shape := randEligibleQueue(rng, 1+rng.Intn(8))
		enc, err := Encode(clauses)
		if err != nil {
			t.Fatal(err)
		}
		layout, numNodes := LayoutForShape(shape)
		if numNodes != enc.NumNodes() {
			t.Fatalf("shape %v: %d nodes, Encode made %d", shape, numNodes, enc.NumNodes())
		}
		for i, cl := range clauses {
			if enc.AuxNode[i] != layout[i].Aux {
				t.Fatalf("clause %d: aux %d, Encode used %d", i, layout[i].Aux, enc.AuxNode[i])
			}
			for j, l := range cl {
				if got := enc.VarNode[l.Var()]; got != layout[i].Lit[j] {
					t.Fatalf("clause %d lit %d: node %d, Encode used %d", i, j, layout[i].Lit[j], got)
				}
			}
		}
		// Quadratic support must match exactly — no missing and no extra
		// edges, for any polarities, both before and after coefficient
		// adjustment and normalisation.
		is := enc.Program(&Sums{}, true)
		want := map[Edge]bool{}
		for _, e := range EdgesForShape(shape) {
			if want[e] {
				t.Fatalf("EdgesForShape emitted duplicate edge %v", e)
			}
			want[e] = true
		}
		for _, quad := range []map[Edge]float64{objective(enc).Quad, is.J} {
			if len(quad) != len(want) {
				t.Fatalf("shape %v: %d quad edges, want %d", shape, len(quad), len(want))
			}
			for e := range quad {
				if !want[e] {
					t.Fatalf("shape %v: unexpected quad edge %v", shape, e)
				}
			}
		}
	}
}

func TestShapeCheckerAcceptsEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewShapeChecker()
	for trial := 0; trial < 100; trial++ {
		clauses, want := randEligibleQueue(rng, 1+rng.Intn(10))
		shape, ok := c.Shape(clauses)
		if !ok {
			t.Fatalf("eligible queue rejected: %v", clauses)
		}
		if len(shape) != len(want) {
			t.Fatalf("shape %v, want %v", shape, want)
		}
		for i := range shape {
			if shape[i] != want[i] {
				t.Fatalf("shape %v, want %v", shape, want)
			}
		}
	}
}

func TestShapeCheckerRejectsIneligible(t *testing.T) {
	c := NewShapeChecker()
	lit := func(v int) cnf.Lit { return cnf.MkLit(cnf.Var(v), true) }
	cases := map[string][]cnf.Clause{
		"shared var across clauses": {{lit(0), lit(1)}, {lit(1), lit(2)}},
		"duplicate var in clause":   {{lit(0), lit(0).Not(), lit(1)}},
		"empty clause":              {{}},
		"four literals":             {{lit(0), lit(1), lit(2), lit(3)}},
	}
	for name, q := range cases {
		if _, ok := c.Shape(q); ok {
			t.Errorf("%s: accepted", name)
		}
	}
	// And the checker must still accept a clean queue afterwards (scratch
	// reset works).
	if _, ok := c.Shape([]cnf.Clause{{lit(0), lit(1), lit(2)}}); !ok {
		t.Error("checker did not recover after rejection")
	}
}

func TestShapeCheckerSteadyStateAllocs(t *testing.T) {
	c := NewShapeChecker()
	rng := rand.New(rand.NewSource(3))
	clauses, _ := randEligibleQueue(rng, 12)
	c.Shape(clauses) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Shape(clauses); !ok {
			t.Fatal("rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Shape allocates %v allocs/run, want 0", allocs)
	}
}
