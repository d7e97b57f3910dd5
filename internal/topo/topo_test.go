package topo

import (
	"math/rand"
	"testing"
)

// both returns the two stock topologies at test-friendly sizes.
func both() []Topology {
	return []Topology{NewChimera(4, 4, 4), NewPegasus(4)}
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
				for i := 0; i < g.NumQubits()/20; i++ {
					g.MarkBroken(rng.Intn(g.NumQubits()))
				}
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
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < g.NumQubits()/30; i++ {
			g.MarkBroken(rng.Intn(g.NumQubits()))
		}
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
	for _, g := range both() {
		g.MarkBroken(3)
		want := 0
		for q := 0; q < g.NumQubits(); q++ {
			want += len(g.Neighbors(q))
		}
		if got := len(g.Edges()); got*2 != want {
			t.Fatalf("%s: %d edges vs %d directed neighbor entries", g.Name(), got, want)
		}
		for _, e := range g.Edges() {
			if e.A >= e.B {
				t.Fatalf("%s: unordered edge %v", g.Name(), e)
			}
			if !g.Coupled(e.A, e.B) {
				t.Fatalf("%s: edge %v not coupled", g.Name(), e)
			}
		}
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
