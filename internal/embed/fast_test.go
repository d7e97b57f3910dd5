package embed

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hyqsat/internal/chimera"
	"hyqsat/internal/qubo"
)

// sortedLineOrder is the defining order of Fast's horizontal-line scan: all
// lines by the distance of their row from prefRow, ties bottom-up (lower
// line index first).
func sortedLineOrder(g *chimera.Graph, prefRow int) []int {
	order := make([]int, g.NumHorizontalLines())
	for i := range order {
		order[i] = i
	}
	dist := func(h int) int {
		d := g.M - 1 - h/g.L - prefRow
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := dist(order[i]), dist(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

// TestLineOrdersMatchSortedScan pins the precomputed line orders to the
// sorted definition on several grid shapes, including preferred rows off
// the grid (which hLineOrder clamps).
func TestLineOrdersMatchSortedScan(t *testing.T) {
	for _, dims := range [][3]int{{16, 16, 4}, {1, 1, 1}, {3, 5, 2}, {6, 2, 3}} {
		g := chimera.New(dims[0], dims[1], dims[2])
		st := &fastState{g: g, lineOrder: lineOrders(g)}
		for p := -3; p < g.M+3; p++ {
			if got, want := st.hLineOrder(p), sortedLineOrder(g, p); !slices.Equal(got, want) {
				t.Fatalf("chimera%v prefRow %d: order %v, want %v", dims, p, got, want)
			}
		}
	}
}

// TestColsFreeAcrossWords checks the horizontal-qubit bitmap against a plain
// boolean model on a grid wider than one 64-bit word, including rollback.
func TestColsFreeAcrossWords(t *testing.T) {
	g := chimera.New(2, 150, 1)
	st := newFastState(&qubo.Encoding{}, g)
	used := make([][]bool, g.NumHorizontalLines())
	for h := range used {
		used[h] = make([]bool, g.N)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 400; step++ {
		h := rng.Intn(len(used))
		c1 := rng.Intn(g.N)
		c2 := min(g.N-1, c1+rng.Intn(80))
		want := true
		for c := c1; c <= c2; c++ {
			want = want && !used[h][c]
		}
		if got := st.colsFree(h, c1, c2); got != want {
			t.Fatalf("step %d: colsFree(%d,%d,%d) = %v, want %v", step, h, c1, c2, got, want)
		}
		if rng.Intn(4) == 0 {
			st.log = st.log[:0]
			st.takeCols(h, c1, c2)
			if rng.Intn(2) == 0 {
				st.rollback()
				continue
			}
			for c := c1; c <= c2; c++ {
				used[h][c] = true
			}
		}
	}
}
