package embed

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// sortedLineOrder is the defining order of Fast's horizontal-line scan: all
// lines by the distance of their row from prefRow, ties bottom-up (lower
// line index first).
func sortedLineOrder(g *topo.Chimera, prefRow int) []int {
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

// scanOrder expands rowsByDistance into the lines firstFreeLine scans:
// each row's L lines in ascending order.
func scanOrder(st *fastState, prefRow int) []int {
	var out []int
	for _, r := range st.rowsByDistance(prefRow) {
		for h := (st.g.M - 1 - r) * st.g.L; h < (st.g.M-r)*st.g.L; h++ {
			out = append(out, h)
		}
	}
	return out
}

// TestLineOrdersMatchSortedScan pins the precomputed row orders, expanded
// into lines, to the sorted definition on several grid shapes, including
// preferred rows off the grid (which rowsByDistance clamps).
func TestLineOrdersMatchSortedScan(t *testing.T) {
	for _, dims := range [][3]int{{16, 16, 4}, {1, 1, 1}, {3, 5, 2}, {6, 2, 3}} {
		g := topo.NewChimera(dims[0], dims[1], dims[2])
		st := &fastState{g: g, rowOrder: rowOrders(g)}
		for p := -3; p < g.M+3; p++ {
			if got, want := scanOrder(st, p), sortedLineOrder(g, p); !slices.Equal(got, want) {
				t.Fatalf("chimera%v prefRow %d: order %v, want %v", dims, p, got, want)
			}
		}
	}
}

// TestColsFreeAcrossWords checks the per-column free-line masks against a
// plain boolean model, including rollback, on a grid 150 columns wide and on
// ones with 80 and 90 horizontal lines (two mask words per column, rows
// straddling a word): colsFree on one line, and firstFreeLine — the first
// line free across a column span whose row passes a test, in scan order —
// against the first line of sortedLineOrder that passes both.
func TestColsFreeAcrossWords(t *testing.T) {
	for _, g := range []*topo.Chimera{topo.NewChimera(2, 150, 1), topo.NewChimera(20, 3, 4), topo.NewChimera(18, 3, 5)} {
		st := &fastState{}
		st.reset(&qubo.Encoding{}, g)
		used := make([][]bool, g.NumHorizontalLines())
		for h := range used {
			used[h] = make([]bool, g.N)
		}
		free := func(h, c1, c2 int) bool {
			for c := c1; c <= c2; c++ {
				if used[h][c] {
					return false
				}
			}
			return true
		}
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 400; step++ {
			h := rng.Intn(len(used))
			c1 := rng.Intn(g.N)
			c2 := min(g.N-1, c1+rng.Intn(80))
			if got, want := st.colsFree(h, c1, c2), free(h, c1, c2); got != want {
				t.Fatalf("%dx%d step %d: colsFree(%d,%d,%d) = %v, want %v", g.M, g.N, step, h, c1, c2, got, want)
			}
			pref := rng.Intn(g.M)
			rows := rng.Uint64() | rng.Uint64() // about three rows in four pass
			fits := func(r int) bool { return rows>>(r%64)&1 != 0 }
			want := -1
			for _, l := range sortedLineOrder(g, pref) {
				if free(l, c1, c2) && fits(st.rowOfHLine(l)) {
					want = l
					break
				}
			}
			if got := st.firstFreeLine(c1, c2, pref, fits); got != want {
				t.Fatalf("%dx%d step %d: firstFreeLine(%d,%d,%d) = %d, want %d", g.M, g.N, step, c1, c2, pref, got, want)
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
}

// scannedSharedLine is the defining line scan of bestSharedLine: every line
// with room, in ascending order, scored by free rows, then free horizontal
// qubits in its column, then distance from prefCol; the first best wins.
func scannedSharedLine(st *fastState, prefCol int) int {
	best, bestScore := -1, -1<<30
	for line := range st.lineVars {
		if len(st.lineVars[line]) >= st.maxVarsPerLine {
			continue
		}
		col := line / st.g.L
		anchorFree := 0
		for h := 0; h < st.g.NumHorizontalLines(); h++ {
			if st.lineFree(h, col) {
				anchorFree++
			}
		}
		colDist := col - prefCol
		if colDist < 0 {
			colDist = -colDist
		}
		if score := (st.g.M-st.lineUsed[line])*4096 + anchorFree*16 - colDist; score > bestScore {
			best, bestScore = line, score
		}
	}
	return best
}

// TestBestSharedLineMatchesScan checks the per-column cache behind shared
// vertical-line allocation against the full line scan: on a tie between the
// columns either side of a full preferred column, and after every clause of
// random queues (kept or rolled back) on several grid shapes.
func TestBestSharedLineMatchesScan(t *testing.T) {
	tie := &fastState{}
	tie.reset(&qubo.Encoding{}, topo.NewChimera(8, 8, 4))
	for line := range tie.lineVars {
		n := tie.maxVarsPerLine
		if line/tie.g.L != 3 {
			n = 1
		}
		for range n {
			tie.lineVars[line] = append(tie.lineVars[line], line)
		}
		tie.touch(line)
	}
	tie.nextLine = len(tie.lineVars)
	if got, want := tie.bestSharedLine(3), scannedSharedLine(tie, 3); got != want || want/tie.g.L != 2 {
		t.Fatalf("tie around full column 3: line %d, want %d in column 2", got, want)
	}

	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{16, 16, 4}, {8, 8, 4}, {12, 5, 3}, {4, 20, 2}} {
		g := topo.NewChimera(dims[0], dims[1], dims[2])
		enc, err := qubo.EncodeStructure(bfsQueue(random3SATClauses(rng, 80, 340), 80))
		if err != nil {
			t.Fatal(err)
		}
		st := &fastState{}
		st.reset(enc, g)
		for k := range enc.Clauses {
			st.addClause(k)
			for pref := range g.N {
				if got, want := st.bestSharedLine(pref), scannedSharedLine(st, pref); got != want {
					t.Fatalf("chimera%v after clause %d, prefCol %d: line %d, want %d", dims, k, pref, got, want)
				}
			}
		}
	}
}
