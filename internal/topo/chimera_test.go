package topo

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestDWave2000QShape(t *testing.T) {
	g := DWave2000Q()
	if g.NumQubits() != 2048 {
		t.Fatalf("2000Q has %d qubits, want 2048", g.NumQubits())
	}
	if g.NumVerticalLines() != 64 || g.NumHorizontalLines() != 64 {
		t.Fatalf("lines = %d/%d, want 64/64", g.NumVerticalLines(), g.NumHorizontalLines())
	}
	// Couplers: per cell L*L = 16 intra-cell; inter-cell: 15*16*4 horizontal
	// rows of links + same vertical = 2*15*16*4.
	want := 16*16*16 + 2*15*16*4
	if got := len(g.Edges()); got != want {
		t.Fatalf("2000Q has %d couplers, want %d", got, want)
	}
}

func TestQubitCoordsRoundTrip(t *testing.T) {
	g := NewChimera(3, 5, 4)
	seen := map[int]bool{}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			for _, h := range []bool{true, false} {
				for k := 0; k < 4; k++ {
					q := g.Qubit(r, c, h, k)
					if seen[q] {
						t.Fatalf("duplicate qubit id %d", q)
					}
					seen[q] = true
					r2, c2, h2, k2 := g.Coords(q)
					if r2 != r || c2 != c || h2 != h || k2 != k {
						t.Fatalf("round trip (%d,%d,%v,%d) → %d → (%d,%d,%v,%d)",
							r, c, h, k, q, r2, c2, h2, k2)
					}
				}
			}
		}
	}
	if len(seen) != g.NumQubits() {
		t.Fatalf("enumerated %d ids, want %d", len(seen), g.NumQubits())
	}
}

func TestQubitPanicsOutOfRange(t *testing.T) {
	g := NewChimera(2, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Qubit(2, 0, true, 0)
}

func TestCoupledSymmetricAndCorrect(t *testing.T) {
	g := NewChimera(2, 2, 2)
	for a := 0; a < g.NumQubits(); a++ {
		for b := 0; b < g.NumQubits(); b++ {
			if g.Coupled(a, b) != g.Coupled(b, a) {
				t.Fatalf("asymmetric coupling %d,%d", a, b)
			}
		}
		if g.Coupled(a, a) {
			t.Fatalf("self coupling %d", a)
		}
	}
	// Intra-cell: horizontal 0 of cell (0,0) couples to both verticals there.
	h := g.Qubit(0, 0, true, 0)
	for k := 0; k < 2; k++ {
		if !g.Coupled(h, g.Qubit(0, 0, false, k)) {
			t.Fatal("intra-cell coupler missing")
		}
	}
	// Same-orientation qubits in one cell are not coupled.
	if g.Coupled(h, g.Qubit(0, 0, true, 1)) {
		t.Fatal("spurious intra-cell horizontal-horizontal coupler")
	}
	// Horizontal line links along the row, same k only.
	if !g.Coupled(h, g.Qubit(0, 1, true, 0)) {
		t.Fatal("horizontal line link missing")
	}
	if g.Coupled(h, g.Qubit(0, 1, true, 1)) {
		t.Fatal("cross-k horizontal link present")
	}
	if g.Coupled(h, g.Qubit(1, 0, true, 0)) {
		t.Fatal("horizontal qubits must not link vertically")
	}
	// Vertical line links along the column.
	v := g.Qubit(0, 1, false, 1)
	if !g.Coupled(v, g.Qubit(1, 1, false, 1)) {
		t.Fatal("vertical line link missing")
	}
	if g.Coupled(v, g.Qubit(0, 0, false, 1)) {
		t.Fatal("vertical qubits must not link horizontally")
	}
}

func TestNeighborsMatchCoupled(t *testing.T) {
	g := NewChimera(3, 3, 4)
	for q := 0; q < g.NumQubits(); q++ {
		ns := map[int]bool{}
		for _, n := range g.Neighbors(q) {
			ns[n] = true
		}
		for b := 0; b < g.NumQubits(); b++ {
			if g.Coupled(q, b) != ns[b] {
				t.Fatalf("Neighbors/Coupled disagree for %d,%d", q, b)
			}
		}
	}
}

func TestBrokenQubits(t *testing.T) {
	healthy := NewChimera(2, 2, 4)
	q := healthy.Qubit(0, 0, true, 0)
	n := healthy.Neighbors(q)[0]
	g := NewChimera(2, 2, 4, n)
	if !g.IsBroken(n) || g.IsBroken(q) {
		t.Fatalf("IsBroken(%d) = %v, IsBroken(%d) = %v; want only %d broken", n, g.IsBroken(n), q, g.IsBroken(q), n)
	}
	if g.Coupled(q, n) || g.Coupled(n, q) {
		t.Fatal("broken qubit still coupled")
	}
	if len(g.Neighbors(q)) != len(healthy.Neighbors(q))-1 {
		t.Fatalf("%d has %d neighbors, want %d", q, len(g.Neighbors(q)), len(healthy.Neighbors(q))-1)
	}
	for _, m := range g.Neighbors(q) {
		if m == n {
			t.Fatal("broken qubit still a neighbor")
		}
	}
	if g.Neighbors(n) != nil {
		t.Fatal("broken qubit has neighbors")
	}
}

// A broken index out of range panics with a message naming it; a repeated
// index is the same as one.
func TestBrokenIndexChecked(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(broken ...int) Topology
	}{
		{"chimera", func(b ...int) Topology { return NewChimera(2, 2, 4, b...) }},
		{"pegasus", func(b ...int) Topology { return NewPegasus(3, b...) }},
	} {
		n := tc.build().NumQubits()
		for _, bad := range []int{-1, n} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if want := fmt.Sprintf("%s: broken qubit %d out of range", tc.name, bad); !strings.Contains(msg, want) {
						t.Fatalf("broken %d: panic %q, want one containing %q", bad, msg, want)
					}
				}()
				tc.build(bad)
			}()
		}
		once, twice := tc.build(5), tc.build(5, 5)
		for q := range n {
			if once.IsBroken(q) != twice.IsBroken(q) || !slices.Equal(once.Neighbors(q), twice.Neighbors(q)) {
				t.Fatalf("%s: repeated broken index changed qubit %d", tc.name, q)
			}
		}
	}
}

func TestVerticalLines(t *testing.T) {
	g := NewChimera(4, 3, 2)
	if g.NumVerticalLines() != 6 {
		t.Fatalf("vertical lines = %d", g.NumVerticalLines())
	}
	for line := 0; line < g.NumVerticalLines(); line++ {
		// Consecutive rows of a line must be coupled.
		for r := 0; r+1 < g.M; r++ {
			a, b := g.VerticalLineQubit(line, r), g.VerticalLineQubit(line, r+1)
			if !g.Coupled(a, b) {
				t.Fatalf("line %d rows %d,%d not coupled", line, r, r+1)
			}
			if g.VerticalLineOf(a) != line {
				t.Fatalf("VerticalLineOf mismatch for line %d", line)
			}
		}
	}
	if g.VerticalLineOf(g.Qubit(0, 0, true, 0)) != -1 {
		t.Fatal("horizontal qubit reported a vertical line")
	}
}

func TestHorizontalLines(t *testing.T) {
	g := NewChimera(4, 3, 2)
	if g.NumHorizontalLines() != 8 {
		t.Fatalf("horizontal lines = %d", g.NumHorizontalLines())
	}
	// Line 0 must be in the bottom row (the paper's greedy starts there).
	r, _, h, _ := g.Coords(g.HorizontalLineQubit(0, 0))
	if r != g.M-1 || !h {
		t.Fatalf("line 0 qubit at row %d, horizontal=%v", r, h)
	}
	for line := 0; line < g.NumHorizontalLines(); line++ {
		for c := 0; c+1 < g.N; c++ {
			a, b := g.HorizontalLineQubit(line, c), g.HorizontalLineQubit(line, c+1)
			if !g.Coupled(a, b) {
				t.Fatalf("line %d cols %d,%d not coupled", line, c, c+1)
			}
			if g.HorizontalLineOf(a) != line {
				t.Fatalf("HorizontalLineOf mismatch for line %d", line)
			}
		}
	}
	if g.HorizontalLineOf(g.Qubit(0, 0, false, 0)) != -1 {
		t.Fatal("vertical qubit reported a horizontal line")
	}
}

func TestHorizontalVerticalCross(t *testing.T) {
	// Every horizontal line crosses every vertical line in exactly one cell,
	// where the two line qubits are coupled — the anchor the fast embedder
	// relies on.
	g := NewChimera(3, 4, 2)
	for hl := 0; hl < g.NumHorizontalLines(); hl++ {
		for vl := 0; vl < g.NumVerticalLines(); vl++ {
			count := 0
			for c := 0; c < g.N; c++ {
				hq := g.HorizontalLineQubit(hl, c)
				for r := 0; r < g.M; r++ {
					if g.Coupled(hq, g.VerticalLineQubit(vl, r)) {
						count++
					}
				}
			}
			if count != 1 {
				t.Fatalf("lines h%d × v%d cross %d times, want 1", hl, vl, count)
			}
		}
	}
}
