package topo

import (
	"fmt"
	"math/rand"
	"testing"
)

// both returns the two stock topologies at test-friendly sizes.
func both() []Topology {
	return []Topology{NewChimera(4, 4, 4), NewPegasus(4)}
}

// faulted rebuilds g at its size with k qubits drawn from rng broken
// (repeats allowed, so fewer may break).
func faulted(g Topology, rng *rand.Rand, k int) Topology {
	broken := make([]int, k)
	for i := range broken {
		broken[i] = rng.Intn(g.NumQubits())
	}
	switch g := g.(type) {
	case *Chimera:
		return NewChimera(g.M, g.N, g.L, broken...)
	case *Pegasus:
		return NewPegasus(g.M, broken...)
	}
	panic(fmt.Sprintf("faulted: unknown topology %T", g))
}

func TestNewByName(t *testing.T) {
	g, err := New("chimera")
	if err != nil || g.Name() != "chimera" || g.NumQubits() != 2048 {
		t.Fatalf("New(chimera) = %v, %v", g, err)
	}
	p, err := New("pegasus")
	if err != nil || p.Name() != "pegasus" || p.NumQubits() != 3*15*15*8 {
		t.Fatalf("New(pegasus) = %v, %v", p, err)
	}
	if _, err := New("zephyr"); err == nil {
		t.Fatal("New(zephyr) should error")
	}
}

// Neighbors must agree with Coupled, be symmetric, and exclude broken and
// self qubits — on every topology, including after random breakage.
func TestNeighborsConsistent(t *testing.T) {
	for _, g := range both() {
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 2; round++ {
			if round == 1 {
				g = faulted(g, rng, g.NumQubits()/20)
			}
			for q := 0; q < g.NumQubits(); q++ {
				ns := map[int]bool{}
				for _, n := range g.Neighbors(q) {
					if n == q {
						t.Fatalf("%s: self neighbor %d", g.Name(), q)
					}
					if g.IsBroken(n) {
						t.Fatalf("%s: broken neighbor %d of %d", g.Name(), n, q)
					}
					if ns[n] {
						t.Fatalf("%s: duplicate neighbor %d of %d", g.Name(), n, q)
					}
					ns[n] = true
				}
				if g.IsBroken(q) && g.Neighbors(q) != nil {
					t.Fatalf("%s: broken qubit %d has neighbors", g.Name(), q)
				}
			}
			// Coupled agreement + symmetry, spot-checked on random pairs (the
			// full quadratic scan is covered for Chimera in chimera_test.go).
			for i := 0; i < 20000; i++ {
				a, b := rng.Intn(g.NumQubits()), rng.Intn(g.NumQubits())
				if g.Coupled(a, b) != g.Coupled(b, a) {
					t.Fatalf("%s: asymmetric coupling %d,%d", g.Name(), a, b)
				}
				inRow := false
				for _, n := range g.Neighbors(a) {
					if n == b {
						inRow = true
					}
				}
				if inRow != g.Coupled(a, b) {
					t.Fatalf("%s: Neighbors/Coupled disagree for %d,%d", g.Name(), a, b)
				}
			}
		}
	}
}

// Neighbors must not allocate: it is a subslice view into precomputed CSR.
func TestNeighborsZeroAllocs(t *testing.T) {
	for _, g := range both() {
		g := g
		allocs := testing.AllocsPerRun(100, func() {
			for q := 0; q < g.NumQubits(); q += 7 {
				_ = g.Neighbors(q)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Neighbors allocates %v allocs/run, want 0", g.Name(), allocs)
		}
	}
}

// Every tile must be a true K_{L,L}: each working A-side qubit coupled to
// each working B-side qubit, and tile qubit sets disjoint across tiles.
func TestTilesAreCompleteBipartite(t *testing.T) {
	for _, g := range both() {
		g = faulted(g, rand.New(rand.NewSource(11)), g.NumQubits()/30)
		seen := map[int]bool{}
		tiles := g.Tiles()
		if len(tiles) == 0 {
			t.Fatalf("%s: no tiles", g.Name())
		}
		for ti, tile := range tiles {
			for _, q := range append(append([]int{}, tile.A...), tile.B...) {
				if seen[q] {
					t.Fatalf("%s: qubit %d in two tiles", g.Name(), q)
				}
				seen[q] = true
			}
			for _, a := range tile.A {
				if g.IsBroken(a) {
					continue
				}
				for _, b := range tile.B {
					if g.IsBroken(b) {
						continue
					}
					if !g.Coupled(a, b) {
						t.Fatalf("%s: tile %d qubits %d,%d not coupled", g.Name(), ti, a, b)
					}
				}
			}
		}
	}
}

func TestEdgesMatchNeighbors(t *testing.T) {
	g := NewChimera(4, 4, 4, 3)
	want := 0
	for q := 0; q < g.NumQubits(); q++ {
		want += len(g.Neighbors(q))
	}
	edges := g.Edges()
	if got := len(edges); got*2 != want {
		t.Fatalf("%d edges vs %d directed neighbor entries", got, want)
	}
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("unordered edge %v", e)
		}
		if !g.Coupled(e.A, e.B) {
			t.Fatalf("edge %v not coupled", e)
		}
	}
}

// A Pegasus builds its fabric once: every Fabric call returns the same
// graph, broken exactly where copy 0 of the Pegasus is, whose couplers are
// all Pegasus couplers.
func TestPegasusFabric(t *testing.T) {
	healthy := NewPegasus(4)
	copy0 := healthy.Fabric().NumQubits()
	g := NewPegasus(4, 3, copy0-1, copy0, healthy.NumQubits()-1)
	f := g.Fabric()
	if g.Fabric() != f {
		t.Fatal("Fabric returned a different graph on a second call")
	}
	if f.M != 3 || f.N != 3 || f.L != 4 || copy0 != 3*3*8 {
		t.Fatalf("fabric is Chimera(%d,%d,%d) over %d qubits, want Chimera(3,3,4) over 72", f.M, f.N, f.L, copy0)
	}
	for q := range copy0 {
		if f.IsBroken(q) != g.IsBroken(q) {
			t.Fatalf("qubit %d: fabric broken %v, pegasus broken %v", q, f.IsBroken(q), g.IsBroken(q))
		}
		for _, p := range f.Neighbors(q) {
			if !g.Coupled(q, p) {
				t.Fatalf("fabric coupler %d-%d is not a pegasus coupler", q, p)
			}
		}
	}
	if !f.IsBroken(3) || !f.IsBroken(copy0-1) {
		t.Fatal("fabric lost a broken qubit of copy 0")
	}
}

func TestPegasusCoordsRoundTrip(t *testing.T) {
	g := NewPegasus(4)
	seen := map[int]bool{}
	for tt := 0; tt < 3; tt++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				for u := 0; u < 2; u++ {
					for k := 0; k < 4; k++ {
						q := g.Qubit(tt, y, x, u, k)
						if seen[q] {
							t.Fatalf("duplicate qubit id %d", q)
						}
						seen[q] = true
						t2, y2, x2, u2, k2 := g.Coords(q)
						if t2 != tt || y2 != y || x2 != x || u2 != u || k2 != k {
							t.Fatalf("round trip (%d,%d,%d,%d,%d) → %d → (%d,%d,%d,%d,%d)",
								tt, y, x, u, k, q, t2, y2, x2, u2, k2)
						}
					}
				}
			}
		}
	}
	if len(seen) != g.NumQubits() {
		t.Fatalf("enumerated %d ids, want %d", len(seen), g.NumQubits())
	}
}

// Pegasus must be denser than Chimera: the density argument behind shorter
// chains. Interior qubit degree is 9 (4 intra-cell + 2 line + 1 odd +
// 2 cross-copy) vs Chimera's 6.
func TestPegasusDenserThanChimera(t *testing.T) {
	p := NewPegasus(4)
	q := p.Qubit(1, 1, 1, 0, 2) // interior qubit
	if d := len(p.Neighbors(q)); d != 9 {
		t.Fatalf("pegasus interior degree = %d, want 9", d)
	}
	c := NewChimera(4, 4, 4)
	qc := c.Qubit(1, 1, true, 2)
	if d := len(c.Neighbors(qc)); d != 6 {
		t.Fatalf("chimera interior degree = %d, want 6", d)
	}
}
