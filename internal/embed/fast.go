package embed

import (
	"fmt"
	"math/bits"
	"slices"

	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// FastResult is the outcome of the paper's fast embedding: a valid embedding
// of EmbeddedSet (clause indices into the queue, ascending). Clauses that
// did not fit were skipped; embedding stops once 256 clauses in total have
// failed to fit (the hardware is then effectively full), whether or not
// those failures were consecutive.
type FastResult struct {
	Embedding       *Embedding
	EmbeddedClauses int   // len(EmbeddedSet)
	EmbeddedSet     []int // indices of embedded clauses within the queue
	// EmbeddedNodes are the problem-graph nodes present in the embedding,
	// ascending.
	EmbeddedNodes []int
}

// maxFastFailures caps the clauses Fast may fail to place before it stops.
const maxFastFailures = 256

// span is a contiguous row interval on a vertical line; empty when Min > Max.
type span struct{ Min, Max int }

// noSpan is the empty span a node starts with on its vertical line.
var noSpan = span{1, 0}

func (s span) empty() bool { return s.Min > s.Max }

// size returns the number of rows in s.
func (s span) size() int {
	if s.empty() {
		return 0
	}
	return s.Max - s.Min + 1
}

func (s span) with(r int) span {
	if s.empty() {
		return span{r, r}
	}
	if r < s.Min {
		return span{r, s.Max}
	}
	if r > s.Max {
		return span{s.Min, r}
	}
	return s
}

func (s span) overlaps(t span) bool {
	return !s.empty() && !t.empty() && s.Min <= t.Max && t.Min <= s.Max
}

// seg is a horizontal line segment owned by a node: columns [C1,C2] of
// horizontal line Line.
type seg struct{ Line, C1, C2 int }

// undoKind tags one entry of the per-clause undo log.
type undoKind uint8

const (
	undoFreshLine  undoKind = iota // node took a never-used vertical line
	undoSharedLine                 // node joined an occupied vertical line
	undoSpan                       // varSpan[node] was span
	undoCol                        // column i%N of horizontal line i/N was taken
	undoRealize                    // node's last realised partner was added
	undoSegAdd                     // node's last segment was added
	undoSegSet                     // segs[node][i] was seg
)

// undo is one typed undo-log entry; which fields matter depends on kind.
type undo struct {
	kind undoKind
	node int
	i    int
	span span
	seg  seg
}

// fastState carries the incremental embedding state of the paper's two-step
// scheme (§IV-B): vertical-line allocation in clause-queue order, and greedy
// bottom-up horizontal segment allocation against connection requirements.
// Per-node state is held in dense slices indexed by problem node. Every
// slice keeps its storage across runs (see FastScratch).
type fastState struct {
	g    *topo.Chimera
	dims [3]int // g's M, N, L when the per-graph layout below was built
	enc  *qubo.Encoding

	maxVarsPerLine int
	lineVars       [][]int // vertical line → nodes allocated to it
	lineUsed       []int   // vertical line → broken rows plus rows its occupants' spans cover
	occupants      int     // nodes holding a vertical line
	varLine        []int   // node → vertical line, or −1
	varSpan        []span  // node → row span on its line (set via putSpan)
	nextLine       int     // next never-used vertical line

	// colFree holds, per cell column c, a bitmask of the horizontal lines
	// whose qubit in column c is free: bit h%64 of word c·hWords + h/64.
	// The lines free across a span of columns are the AND of their masks.
	colFree []uint64
	hWords  int
	// Per cell column, for shared-line allocation: free horizontal qubits,
	// and the most free rows of any of its vertical lines with room for
	// another occupant (−1 when none has room) with the first such line,
	// recomputed when the column is dirty.
	colAnchor   []int
	colBestFree []int
	colBestLine []int
	colDirty    []bool
	lineCol     []int32  // vertical line → its cell column
	mask        []uint64 // freeLinesInOrder scratch: hWords words
	cands       []int    // freeLinesInOrder result

	// Broken qubits of g, derived once per graph: brokenRows[line] has bit
	// r set when the line's row-r qubit is broken (canExtendSpan keeps
	// every span clear of them), and brokenH lists the broken horizontal
	// qubits as h·N+c, taken out of colFree at every reset.
	brokenRows []uint64
	brokenH    []int

	segs     [][]seg // node → horizontal segments
	realized [][]int // node u → partners v > u of realised problem edges

	// lineOrder[p·H : (p+1)·H] lists every horizontal line by the distance
	// of its row from preferred row p, then bottom-up (see hLineOrder).
	lineOrder []int

	// log records undo entries for the clause currently being added, so a
	// clause that fails mid-way leaves no allocations behind.
	log []undo

	set, nodes []int  // finish scratch: embedded clauses, embedded nodes
	inNodes    []bool // finish scratch: node already in nodes
}

// note records an undo entry for the current clause.
func (st *fastState) note(u undo) { st.log = append(st.log, u) }

// rollback undoes every mutation since the start of the current clause.
func (st *fastState) rollback() {
	for i := len(st.log) - 1; i >= 0; i-- {
		u := &st.log[i]
		switch u.kind {
		case undoFreshLine, undoSharedLine:
			if u.kind == undoFreshLine {
				st.nextLine--
			}
			line := st.varLine[u.node]
			st.lineVars[line] = st.lineVars[line][:len(st.lineVars[line])-1]
			st.touch(line)
			st.varLine[u.node] = -1
			st.occupants--
		case undoSpan:
			st.putSpan(u.node, u.span)
		case undoCol:
			h, c := u.i/st.g.N, u.i%st.g.N
			st.colFree[c*st.hWords+h/64] |= 1 << (h % 64)
			st.colAnchor[c]++
		case undoRealize:
			st.realized[u.node] = st.realized[u.node][:len(st.realized[u.node])-1]
		case undoSegAdd:
			st.segs[u.node] = st.segs[u.node][:len(st.segs[u.node])-1]
		case undoSegSet:
			st.segs[u.node][u.i] = u.seg
		}
	}
	st.log = st.log[:0]
}

// Fast runs the paper's linear-time embedding of the encoding's clauses, in
// order, onto g, skipping clauses that do not fit. Logical variables go to
// vertical lines (shared by multiple variables on larger grids, with
// disjoint row spans); auxiliary variables and inter-variable connections
// are realised by greedily allocated horizontal segments, scanning
// horizontal lines bottom-up and columns left-to-right. Broken qubits are
// avoided: no span covers a broken vertical qubit and no segment a broken
// horizontal one, so a faulted chip only lowers how many clauses fit. On a
// chip without faults the output is that of the paper's scheme. Broken
// vertical qubits must lie in rows below 64. Only the encoding's structure
// is read (its logical nodes, auxiliaries and problem edges per clause), so
// the objectives may be absent (EncodeStructure).
func Fast(enc *qubo.Encoding, g *topo.Chimera) *FastResult {
	return new(FastScratch).Fast(enc, g)
}

// FastFabric returns the Chimera grid Fast embeds onto for hardware g: g
// itself, the fabric view of a Pegasus (Pegasus.Fabric, whose embeddings are
// embeddings of the Pegasus), or nil for a topology Fast cannot target.
func FastFabric(g topo.Topology) *topo.Chimera {
	switch g := g.(type) {
	case *topo.Chimera:
		return g
	case *topo.Pegasus:
		return g.Fabric()
	}
	return nil
}

// FastScratch is Fast's run state kept for reuse. A caller that embeds a
// clause queue per iteration keeps one and calls its Fast, which then
// allocates only the result it returns. A FastScratch must not be used by
// two goroutines at once.
type FastScratch struct{ st fastState }

// Fast is the package-level Fast reusing sc's storage; the result shares
// nothing with sc. The broken qubits of g are read on the first run on g,
// so g must not be marked broken further between runs on one scratch.
func (sc *FastScratch) Fast(enc *qubo.Encoding, g *topo.Chimera) *FastResult {
	st := &sc.st
	st.reset(enc, g)
	st.set = st.set[:0]
	failures := 0
	for k := range enc.Clauses {
		if st.addClause(k) {
			st.set = append(st.set, k)
			continue
		}
		failures++
		if failures >= maxFastFailures {
			break // hardware effectively full
		}
	}
	return st.finish()
}

// grow returns s resized to n, keeping its storage when it is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// reset prepares the state for one run of enc on g.
func (st *fastState) reset(enc *qubo.Encoding, g *topo.Chimera) {
	st.enc = enc
	if dims := [3]int{g.M, g.N, g.L}; st.g != g || st.dims != dims {
		st.g, st.dims = g, dims
		st.hWords = (g.NumHorizontalLines() + 63) / 64
		st.lineOrder = lineOrders(g)
		st.lineVars = grow(st.lineVars, g.NumVerticalLines())
		st.lineUsed = grow(st.lineUsed, g.NumVerticalLines())
		st.colFree = grow(st.colFree, g.N*st.hWords)
		st.colAnchor = grow(st.colAnchor, g.N)
		st.colBestFree = grow(st.colBestFree, g.N)
		st.colBestLine = grow(st.colBestLine, g.N)
		st.colDirty = grow(st.colDirty, g.N)
		st.lineCol = grow(st.lineCol, g.NumVerticalLines())
		for line := range st.lineCol {
			st.lineCol[line] = int32(line / g.L)
		}
		st.mask = grow(st.mask, st.hWords)
		st.brokenRows = grow(st.brokenRows, g.NumVerticalLines())
		clear(st.brokenRows)
		st.brokenH = st.brokenH[:0]
		for q := range g.NumQubits() {
			if !g.IsBroken(q) {
				continue
			}
			r, c, horizontal, _ := g.Coords(q)
			if horizontal {
				st.brokenH = append(st.brokenH, g.HorizontalLineOf(q)*g.N+c)
				continue
			}
			if r >= 64 {
				panic(fmt.Sprintf("embed: broken vertical qubit %d in row %d; Fast tracks rows below 64", q, r))
			}
			st.brokenRows[g.VerticalLineOf(q)] |= 1 << r
		}
	}
	// Allow multiple variables per vertical line once all lines are in use;
	// each needs a disjoint row span, so budget ~4 rows per variable.
	st.maxVarsPerLine = max(1, g.M/4)
	for i := range st.lineVars {
		st.lineVars[i] = st.lineVars[i][:0]
	}
	// A line's broken rows count as used, so its free rows are M less them.
	for line, rows := range st.brokenRows {
		st.lineUsed[line] = bits.OnesCount64(rows)
	}
	st.occupants, st.nextLine = 0, 0
	for c := 0; c < g.N; c++ {
		col := st.colFree[c*st.hWords : (c+1)*st.hWords]
		for w := range col {
			col[w] = ^uint64(0)
		}
		if r := g.NumHorizontalLines() % 64; r != 0 {
			col[len(col)-1] = 1<<r - 1
		}
		st.colAnchor[c] = g.NumHorizontalLines()
		st.colDirty[c] = true
	}
	for _, i := range st.brokenH {
		h, c := i/g.N, i%g.N
		st.colFree[c*st.hWords+h/64] &^= 1 << (h % 64)
		st.colAnchor[c]--
	}

	n := enc.NumNodes()
	st.varLine = grow(st.varLine, n)
	st.varSpan = grow(st.varSpan, n)
	st.segs = grow(st.segs, n)
	st.realized = grow(st.realized, n)
	for i := 0; i < n; i++ {
		st.varLine[i] = -1
		st.varSpan[i] = noSpan
		st.segs[i] = st.segs[i][:0]
		st.realized[i] = st.realized[i][:0]
	}
	st.inNodes = grow(st.inNodes, n)
	st.log = st.log[:0]
}

// lineOrders returns, for every preferred row p, all horizontal line indices
// ordered by the distance of their row from p, then bottom-up (the paper's
// scan order within a band). Line h lives in row M−1−⌊h/L⌋, so the rows at
// distance d are p+d (whose lines have the lower indices) and then p−d,
// each contributing its L lines in ascending order.
func lineOrders(g *topo.Chimera) []int {
	m, l := g.M, g.L
	out := make([]int, 0, m*m*l)
	for p := 0; p < m; p++ {
		for d := 0; d < m; d++ {
			rows := [2]int{p + d, p - d}
			for _, r := range rows[:min(d+1, 2)] {
				if r < 0 || r >= m {
					continue
				}
				first := (m - 1 - r) * l
				for h := first; h < first+l; h++ {
					out = append(out, h)
				}
			}
		}
	}
	return out
}

// rowOfHLine returns the grid row a horizontal line lives in.
func (st *fastState) rowOfHLine(h int) int { return st.g.M - 1 - h/st.g.L }

// cellCol returns the cell column of a logical node's vertical line.
func (st *fastState) cellCol(node int) int { return st.varLine[node] / st.g.L }

// clauseNodes returns the distinct logical nodes and the auxiliary node (or
// -1) of clause k.
func (st *fastState) clauseNodes(k int) (logical []int, aux int) {
	return st.enc.LogicalNodes(k), st.enc.AuxNode[k]
}

// allocLine assigns node a vertical line, preferring fresh lines and
// falling back to sharing. Shared placement balances two goals: staying
// close to prefCol (the clause's other variables, to keep future horizontal
// segments short) and picking occupants with free rows.
func (st *fastState) allocLine(node, prefCol int) bool {
	if st.nextLine < len(st.lineVars) {
		line := st.nextLine
		st.nextLine++
		st.lineVars[line] = append(st.lineVars[line], node)
		st.touch(line)
		st.varLine[node] = line
		st.varSpan[node] = noSpan
		st.occupants++
		st.note(undo{kind: undoFreshLine, node: node})
		return true
	}
	best := st.bestSharedLine(prefCol)
	if best < 0 {
		return false
	}
	st.lineVars[best] = append(st.lineVars[best], node)
	st.touch(best)
	st.varLine[node] = best
	st.varSpan[node] = noSpan
	st.occupants++
	st.note(undo{kind: undoSharedLine, node: node})
	return true
}

// bestSharedLine returns the vertical line a node joins once every line is
// in use, or −1 when none has room: the first line, in ascending order, with
// the best score. Free rows dominate, then anchor capacity (free horizontal
// qubits in the line's column — a variable in a saturated column cannot be
// coupled to), then proximity to prefCol, the clause's other variables.
// Within a column (line l lives in column l/L) every line shares the anchor
// and distance terms, so the column's best line is its first with the most
// free rows, and the first column with the best score holds the answer.
func (st *fastState) bestSharedLine(prefCol int) int {
	best, bestScore := -1, -1<<30
	for col := 0; col < st.g.N; col++ {
		if st.colDirty[col] {
			st.refreshCol(col)
		}
		if st.colBestLine[col] < 0 {
			continue
		}
		colDist := col - prefCol
		if colDist < 0 {
			colDist = -colDist
		}
		if score := st.colBestFree[col]*4096 + st.colAnchor[col]*16 - colDist; score > bestScore {
			best, bestScore = st.colBestLine[col], score
		}
	}
	return best
}

// canExtendSpan reports whether node's row span may grow to include row r
// without covering a broken qubit or colliding with a cohabitant on the
// same vertical line.
func (st *fastState) canExtendSpan(node, r int) bool {
	line := st.varLine[node]
	ns := st.varSpan[node].with(r)
	// A shift by 64 yields 0, so a 64-row span masks all 64 bits.
	if b := st.brokenRows[line]; b != 0 && b>>ns.Min&(1<<ns.size()-1) != 0 {
		return false
	}
	for _, v := range st.lineVars[line] {
		if v == node {
			continue
		}
		if ns.overlaps(st.varSpan[v]) {
			return false
		}
	}
	return true
}

// putSpan replaces the row span of a node that holds a vertical line,
// keeping the line's covered-row count in step. A node without a line (or
// one just allocated or released) always has the empty span.
func (st *fastState) putSpan(node int, s span) {
	line := st.varLine[node]
	if d := s.size() - st.varSpan[node].size(); d != 0 {
		st.lineUsed[line] += d
		st.touch(line)
	}
	st.varSpan[node] = s
}

// touch marks the column of a vertical line whose occupants or covered rows
// changed.
func (st *fastState) touch(line int) { st.colDirty[st.lineCol[line]] = true }

// refreshCol recomputes column col's best line for shared allocation.
func (st *fastState) refreshCol(col int) {
	st.colBestFree[col], st.colBestLine[col] = -1, -1
	for line := col * st.g.L; line < (col+1)*st.g.L; line++ {
		if len(st.lineVars[line]) >= st.maxVarsPerLine {
			continue
		}
		if free := st.g.M - st.lineUsed[line]; free > st.colBestFree[col] {
			st.colBestFree[col], st.colBestLine[col] = free, line
		}
	}
	st.colDirty[col] = false
}

// setSpan replaces node's row span, logging the previous one.
func (st *fastState) setSpan(node int, s span) {
	st.note(undo{kind: undoSpan, node: node, span: st.varSpan[node]})
	st.putSpan(node, s)
}

func (st *fastState) extendSpan(node, r int) { st.setSpan(node, st.varSpan[node].with(r)) }

// preferredRow returns the grid row near which node's connections should
// land: cohabitants of a shared vertical line get disjoint row bands
// (slot k of L occupants prefers band k), which avoids span collisions by
// construction.
func (st *fastState) preferredRow(node int) int {
	line := st.varLine[node]
	if line < 0 {
		return st.g.M - 1
	}
	slot := 0
	for i, v := range st.lineVars[line] {
		if v == node {
			slot = i
			break
		}
	}
	band := st.g.M / st.maxVarsPerLine
	// Slot 0 takes the bottom band (the paper's greedy starts at the bottom
	// horizontal line), later occupants stack upwards.
	return st.g.M - 1 - slot*band - band/2
}

// hLineOrder returns all horizontal line indices sorted by the distance of
// their row from the preferred row, then bottom-up (the paper's scan order
// within a band). A preferred row off the grid orders lines exactly as the
// nearest grid row does, so it is clamped.
func (st *fastState) hLineOrder(prefRow int) []int {
	prefRow = min(max(prefRow, 0), st.g.M-1)
	n := st.g.NumHorizontalLines()
	return st.lineOrder[prefRow*n : (prefRow+1)*n]
}

// lineFree reports whether column c of horizontal line h is free.
func (st *fastState) lineFree(h, c int) bool {
	return st.colFree[c*st.hWords+h/64]&(1<<(h%64)) != 0
}

// colsFree reports whether columns [c1,c2] of horizontal line h are all free.
func (st *fastState) colsFree(h, c1, c2 int) bool {
	for c := c1; c <= c2; c++ {
		if !st.lineFree(h, c) {
			return false
		}
	}
	return true
}

// freeLinesInOrder returns the horizontal lines whose columns [c1,c2] are
// all free, in hLineOrder(prefRow) order: the AND of the columns' free-line
// masks, read out row group by row group. The result is scratch, valid until
// the next call.
func (st *fastState) freeLinesInOrder(c1, c2, prefRow int) []int {
	m := st.mask
	copy(m, st.colFree[c1*st.hWords:(c1+1)*st.hWords])
	for c := c1 + 1; c <= c2; c++ {
		for w, bits := range st.colFree[c*st.hWords : (c+1)*st.hWords] {
			m[w] &= bits
		}
	}
	st.cands = st.cands[:0]
	if !slices.ContainsFunc(m, func(w uint64) bool { return w != 0 }) {
		return st.cands
	}
	// hLineOrder lists each row's L lines as one ascending run; a run held
	// in one word is skipped with a single test when none of it is free.
	order, l := st.hLineOrder(prefRow), st.g.L
	for i := 0; i < len(order); i += l {
		first := order[i]
		if w := first / 64; w == (first+l-1)/64 && m[w]>>(first%64)&(1<<l-1) == 0 {
			continue
		}
		for h := first; h < first+l; h++ {
			if m[h/64]&(1<<(h%64)) != 0 {
				st.cands = append(st.cands, h)
			}
		}
	}
	return st.cands
}

func (st *fastState) takeCols(h, c1, c2 int) {
	for c := c1; c <= c2; c++ {
		if st.lineFree(h, c) {
			st.colFree[c*st.hWords+h/64] &^= 1 << (h % 64)
			st.colAnchor[c]--
			st.note(undo{kind: undoCol, i: h*st.g.N + c})
		}
	}
}

// realize records a problem edge as realised (logged).
func (st *fastState) realize(e qubo.Edge) {
	st.realized[e.U] = append(st.realized[e.U], e.V)
	st.note(undo{kind: undoRealize, node: e.U})
}

// isRealized reports whether a problem edge has been realised.
func (st *fastState) isRealized(e qubo.Edge) bool { return slices.Contains(st.realized[e.U], e.V) }

// addSeg appends a horizontal segment to node's chain (logged).
func (st *fastState) addSeg(node int, sg seg) {
	st.segs[node] = append(st.segs[node], sg)
	st.note(undo{kind: undoSegAdd, node: node})
}

// addClause embeds clause k, returning false when it does not fit; a failed
// clause's partial allocations are rolled back so later clauses see a clean
// state.
func (st *fastState) addClause(k int) bool {
	st.log = st.log[:0]
	logical, aux := st.clauseNodes(k)

	// Step 1 (paper): allocate vertical lines to new logical variables in
	// queue order.
	newVars := 0
	for _, n := range logical {
		if st.varLine[n] < 0 {
			newVars++
		}
	}
	// No line holds more than maxVarsPerLine nodes, so the free vertical
	// slots are the total capacity less the nodes placed.
	if free := len(st.lineVars)*st.maxVarsPerLine - st.occupants; free < newVars {
		st.rollback()
		return false
	}
	prefCol, prefCount := 0, 0
	for _, n := range logical {
		if st.varLine[n] >= 0 {
			prefCol += st.cellCol(n)
			prefCount++
		}
	}
	if prefCount > 0 {
		prefCol /= prefCount
	} else {
		prefCol = (st.nextLine % len(st.lineVars)) / st.g.L
	}
	for _, n := range logical {
		if st.varLine[n] < 0 {
			if !st.allocLine(n, prefCol) {
				st.rollback()
				return false
			}
		}
	}

	// Step 2 (paper): satisfy the clause's connection requirements with
	// horizontal segments, auxiliary first (it connects to every variable of
	// the clause with a single segment). When the anchor columns of the
	// targets are exhausted, fall back to giving the auxiliary a vertical
	// line slot — vertical capacity is plentiful — and routing its couplings
	// like ordinary edges.
	auxOnHorizontal := false
	if aux >= 0 {
		auxOnHorizontal = st.placeAux(aux, logical)
		if !auxOnHorizontal {
			if st.varLine[aux] < 0 {
				if !st.allocLine(aux, prefCol) {
					st.rollback()
					return false
				}
			}
		}
	}
	for _, e := range st.enc.ClauseEdges(k) {
		if auxOnHorizontal && st.isAuxEdge(e, aux) {
			continue // realised by placeAux
		}
		if st.isRealized(e) {
			continue
		}
		if !st.routeEdge(e) {
			st.rollback()
			return false
		}
	}
	st.log = st.log[:0]
	return true
}

func (st *fastState) isAuxEdge(e qubo.Edge, aux int) bool {
	return aux >= 0 && (e.U == aux || e.V == aux)
}

// placeAux allocates an auxiliary variable to one horizontal segment
// spanning the cell columns of all its clause's variables, anchoring each
// variable's vertical chain at the segment's row.
func (st *fastState) placeAux(aux int, logical []int) bool {
	cmin, cmax := st.g.N, -1
	for _, n := range logical {
		c := st.cellCol(n)
		if c < cmin {
			cmin = c
		}
		if c > cmax {
			cmax = c
		}
	}
	pref := 0
	for _, n := range logical {
		pref += st.preferredRow(n)
	}
	pref /= len(logical)
	var saved [3]span // logical holds at most three distinct nodes
	for _, h := range st.freeLinesInOrder(cmin, cmax, pref) {
		r := st.rowOfHLine(h)
		// Extend the spans sequentially so clause variables sharing a
		// vertical line cannot both claim row r; restore on failure.
		ok := true
		extended := 0
		for i, n := range logical {
			saved[i] = st.varSpan[n]
			extended++
			if !st.canExtendSpan(n, r) {
				ok = false
				break
			}
			st.putSpan(n, st.varSpan[n].with(r))
		}
		if !ok {
			for i := 0; i < extended; i++ {
				st.putSpan(logical[i], saved[i])
			}
			continue
		}
		// Log the net span changes for clause-level rollback.
		for i, n := range logical {
			st.note(undo{kind: undoSpan, node: n, span: saved[i]})
		}
		st.takeCols(h, cmin, cmax)
		st.addSeg(aux, seg{h, cmin, cmax})
		for _, n := range logical {
			st.realize(qubo.MkEdge(aux, n))
		}
		return true
	}
	return false
}

// routeEdge realises a logical-logical problem edge, trying in order:
// an already-available coupling via an existing segment, extension of an
// existing segment, and a fresh segment owned by either endpoint.
func (st *fastState) routeEdge(e qubo.Edge) bool {
	u, v := e.U, e.V
	// (a) An existing segment of one endpoint already crosses the other's
	// column: only the other's span needs extending.
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		owner, target := pair[0], pair[1]
		ct := st.cellCol(target)
		for _, sg := range st.segs[owner] {
			if sg.C1 <= ct && ct <= sg.C2 {
				r := st.rowOfHLine(sg.Line)
				if st.canExtendSpan(target, r) {
					st.extendSpan(target, r)
					st.realize(e)
					return true
				}
			}
		}
	}
	// (b) Extend an existing segment sideways to reach the target column.
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		owner, target := pair[0], pair[1]
		ct := st.cellCol(target)
		for i, sg := range st.segs[owner] {
			r := st.rowOfHLine(sg.Line)
			if !st.canExtendSpan(target, r) {
				continue
			}
			var nc1, nc2 int
			switch {
			case ct < sg.C1 && st.colsFree(sg.Line, ct, sg.C1-1):
				nc1, nc2 = ct, sg.C2
			case ct > sg.C2 && st.colsFree(sg.Line, sg.C2+1, ct):
				nc1, nc2 = sg.C1, ct
			default:
				continue
			}
			st.takeCols(sg.Line, nc1, sg.C1-1) // empty when extending right
			st.takeCols(sg.Line, sg.C2+1, nc2) // empty when extending left
			st.note(undo{kind: undoSegSet, node: owner, i: i, seg: sg})
			st.segs[owner][i] = seg{sg.Line, nc1, nc2}
			st.extendSpan(target, r)
			st.realize(e)
			return true
		}
	}
	// (c) A fresh segment from one endpoint's column to the other's.
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		owner, target := pair[0], pair[1]
		c1, c2 := st.cellCol(owner), st.cellCol(target)
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		pref := (st.preferredRow(owner) + st.preferredRow(target)) / 2
		for _, h := range st.freeLinesInOrder(c1, c2, pref) {
			r := st.rowOfHLine(h)
			// Sequential extension: owner first, then target against the
			// updated state, so two endpoints sharing a vertical line
			// cannot both claim row r.
			if !st.canExtendSpan(owner, r) {
				continue
			}
			prevOwner := st.varSpan[owner]
			st.putSpan(owner, prevOwner.with(r))
			if !st.canExtendSpan(target, r) {
				st.putSpan(owner, prevOwner)
				continue
			}
			st.note(undo{kind: undoSpan, node: owner, span: prevOwner})
			st.takeCols(h, c1, c2)
			st.addSeg(owner, seg{h, c1, c2})
			st.extendSpan(target, r)
			st.realize(e)
			return true
		}
	}
	return false
}

// finish assembles the Embedding for the embedded clause set.
func (st *fastState) finish() *FastResult {
	st.nodes = st.nodes[:0]
	add := func(n int) {
		if !st.inNodes[n] {
			st.inNodes[n] = true
			st.nodes = append(st.nodes, n)
		}
	}
	for _, k := range st.set {
		logical, aux := st.clauseNodes(k)
		for _, n := range logical {
			add(n)
		}
		if aux >= 0 && st.auxPlaced(aux) {
			add(aux)
		}
	}
	slices.Sort(st.nodes)
	// Size every chain first, so all of them share one backing array.
	total, chained := 0, 0
	for _, n := range st.nodes {
		st.inNodes[n] = false
		line := st.varLine[n]
		size := 0
		if line >= 0 {
			if st.varSpan[n].empty() {
				// Variable with no couplings (unit clause): claim one free
				// row on its line.
				for r := 0; r < st.g.M; r++ {
					if st.canExtendSpan(n, r) {
						st.putSpan(n, st.varSpan[n].with(r))
						break
					}
				}
			}
			size = st.varSpan[n].size()
		}
		for _, sg := range st.segs[n] {
			size += sg.C2 - sg.C1 + 1
		}
		if size > 0 {
			total += size
			chained++
		}
	}
	qubits := make([]int, 0, total)
	emb := &Embedding{Chains: make(map[int][]int, chained)}
	for _, n := range st.nodes {
		start := len(qubits)
		if line := st.varLine[n]; line >= 0 {
			for r, s := st.varSpan[n].Min, st.varSpan[n]; r <= s.Max; r++ {
				qubits = append(qubits, st.g.VerticalLineQubit(line, r))
			}
		}
		for _, sg := range st.segs[n] {
			for c := sg.C1; c <= sg.C2; c++ {
				qubits = append(qubits, st.g.HorizontalLineQubit(sg.Line, c))
			}
		}
		if len(qubits) > start {
			emb.Chains[n] = qubits[start:len(qubits):len(qubits)]
		}
	}
	return &FastResult{
		Embedding:       emb,
		EmbeddedClauses: len(st.set),
		EmbeddedSet:     slices.Clone(st.set),
		EmbeddedNodes:   slices.Clone(st.nodes),
	}
}

// auxPlaced reports whether an auxiliary node received any qubits (it always
// has when its clause was embedded; defensive for failed clauses).
func (st *fastState) auxPlaced(aux int) bool {
	return len(st.segs[aux]) > 0 || st.varLine[aux] >= 0
}
