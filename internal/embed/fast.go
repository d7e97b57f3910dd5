package embed

import (
	"slices"

	"hyqsat/internal/cnf"
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
	// EmbeddedNodes are the problem-graph nodes present in the embedding.
	EmbeddedNodes map[int]bool
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
// Per-node state is held in dense slices indexed by problem node.
type fastState struct {
	g   *topo.Chimera
	enc *qubo.Encoding

	maxVarsPerLine int
	lineVars       [][]int // vertical line → nodes allocated to it
	lineUsed       []int   // vertical line → rows its occupants' spans cover
	varLine        []int   // node → vertical line, or −1
	varSpan        []span  // node → row span on its line (set via putSpan)
	nextLine       int     // next never-used vertical line

	// hUsed is a bitmap of used horizontal qubits: bit c%64 of word
	// h·hWords + c/64 is set when column c of horizontal line h is taken.
	hUsed    []uint64
	hWords   int
	colUsage []int   // per cell column: used horizontal qubits
	segs     [][]seg // node → horizontal segments
	realized [][]int // node u → partners v > u of realised problem edges

	// Per-clause structure, computed once per run: the distinct logical
	// nodes of clause k are logical[logicalAt[k]:logicalAt[k+1]], its
	// required problem edges (sorted) edges[edgesAt[k]:edgesAt[k+1]].
	logical, logicalAt []int
	edges              []qubo.Edge
	edgesAt            []int

	// lineOrder[p·H : (p+1)·H] lists every horizontal line by the distance
	// of its row from preferred row p, then bottom-up (see hLineOrder).
	lineOrder []int

	// log records undo entries for the clause currently being added, so a
	// clause that fails mid-way leaves no allocations behind.
	log []undo
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
			st.varLine[u.node] = -1
		case undoSpan:
			st.putSpan(u.node, u.span)
		case undoCol:
			h, c := u.i/st.g.N, u.i%st.g.N
			st.hUsed[h*st.hWords+c/64] &^= 1 << (c % 64)
			st.colUsage[c]--
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
// order, onto g, skipping clauses that do not fit. Broken qubits are not
// avoided (the paper's scheme assumes a fully working chip; use Minorminer
// for graphs with hard faults). Logical
// variables go to vertical lines (shared by multiple variables on larger
// grids, with disjoint row spans); auxiliary variables and inter-variable
// connections are realised by greedily allocated horizontal segments,
// scanning horizontal lines bottom-up and columns left-to-right. Only the
// encoding's sub-clause objectives are read, so its summed Poly may be nil.
func Fast(enc *qubo.Encoding, g *topo.Chimera) *FastResult {
	st := newFastState(enc, g)
	var set []int
	failures := 0
	for k := range enc.Clauses {
		if st.addClause(k) {
			set = append(set, k)
			continue
		}
		failures++
		if failures >= maxFastFailures {
			break // hardware effectively full
		}
	}
	return st.finish(set)
}

// newFastState initialises the embedding state for one run.
func newFastState(enc *qubo.Encoding, g *topo.Chimera) *fastState {
	n := enc.NumNodes()
	hWords := (g.N + 63) / 64
	st := &fastState{
		g:   g,
		enc: enc,
		// Allow multiple variables per vertical line once all lines are in
		// use; each needs a disjoint row span, so budget ~4 rows per
		// variable.
		maxVarsPerLine: max(1, g.M/4),
		lineVars:       make([][]int, g.NumVerticalLines()),
		lineUsed:       make([]int, g.NumVerticalLines()),
		varLine:        make([]int, n),
		varSpan:        make([]span, n),
		hUsed:          make([]uint64, g.NumHorizontalLines()*hWords),
		hWords:         hWords,
		colUsage:       make([]int, g.N),
		segs:           make([][]seg, n),
		realized:       make([][]int, n),
		lineOrder:      lineOrders(g),
	}
	for i := range st.varLine {
		st.varLine[i] = -1
		st.varSpan[i] = noSpan
	}
	st.indexClauses()
	return st
}

// indexClauses precomputes every clause's distinct logical nodes (in literal
// order) and its required problem edges: the quadratic terms of its
// sub-clause objectives, deduplicated and sorted.
func (st *fastState) indexClauses() {
	enc := st.enc
	nc := len(enc.Clauses)
	st.logicalAt = make([]int, nc+1)
	st.logical = make([]int, 0, 3*nc)
	for k, c := range enc.Clauses {
		st.logicalAt[k] = len(st.logical)
		for _, l := range c {
			n := enc.VarNode[l.Var()]
			if !slices.Contains(st.logical[st.logicalAt[k]:], n) {
				st.logical = append(st.logical, n)
			}
		}
	}
	st.logicalAt[nc] = len(st.logical)

	// Bucket the sub-clauses' quadratic terms by clause: count an upper
	// bound per clause, then fill, deduplicate and sort each bucket.
	bound := make([]int, nc+1)
	for i := range enc.Sub {
		bound[enc.Sub[i].Clause+1] += len(enc.Sub[i].Poly.Quad)
	}
	for k := 0; k < nc; k++ {
		bound[k+1] += bound[k]
	}
	st.edges = make([]qubo.Edge, bound[nc])
	fill := make([]int, nc)
	copy(fill, bound[:nc])
	for i := range enc.Sub {
		k := enc.Sub[i].Clause
		for e := range enc.Sub[i].Poly.Quad {
			if !slices.Contains(st.edges[bound[k]:fill[k]], e) {
				st.edges[fill[k]] = e
				fill[k]++
			}
		}
	}
	// Compact the buckets in place and record the final offsets.
	st.edgesAt = make([]int, nc+1)
	w := 0
	for k := 0; k < nc; k++ {
		st.edgesAt[k] = w
		w += copy(st.edges[w:], st.edges[bound[k]:fill[k]])
		slices.SortFunc(st.edges[st.edgesAt[k]:w], qubo.CompareEdges)
	}
	st.edgesAt[nc] = w
	st.edges = st.edges[:w]
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
	return st.logical[st.logicalAt[k]:st.logicalAt[k+1]], st.enc.AuxNode[k]
}

// clauseEdges returns the problem edges the sub-clauses of clause k require,
// in a deterministic order.
func (st *fastState) clauseEdges(k int) []qubo.Edge {
	return st.edges[st.edgesAt[k]:st.edgesAt[k+1]]
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
		st.varLine[node] = line
		st.varSpan[node] = noSpan
		st.note(undo{kind: undoFreshLine, node: node})
		return true
	}
	best, bestScore := -1, -1<<30
	for line := range st.lineVars {
		if len(st.lineVars[line]) >= st.maxVarsPerLine {
			continue
		}
		free := st.g.M - st.lineUsed[line]
		col := line / st.g.L
		colDist := col - prefCol
		if colDist < 0 {
			colDist = -colDist
		}
		// Free rows dominate, then anchor capacity (free horizontal qubits
		// in the line's column — a variable in a saturated column cannot be
		// coupled to), then proximity to the clause's other variables.
		anchorFree := st.g.NumHorizontalLines() - st.colUsage[col]
		score := free*4096 + anchorFree*16 - colDist
		if score > bestScore {
			best, bestScore = line, score
		}
	}
	if best < 0 {
		return false
	}
	st.lineVars[best] = append(st.lineVars[best], node)
	st.varLine[node] = best
	st.varSpan[node] = noSpan
	st.note(undo{kind: undoSharedLine, node: node})
	return true
}

// canExtendSpan reports whether node's row span may grow to include row r
// without colliding with a cohabitant on the same vertical line.
func (st *fastState) canExtendSpan(node, r int) bool {
	line := st.varLine[node]
	ns := st.varSpan[node].with(r)
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
	st.lineUsed[st.varLine[node]] += s.size() - st.varSpan[node].size()
	st.varSpan[node] = s
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

// colsFree reports whether columns [c1,c2] of horizontal line h are all free.
func (st *fastState) colsFree(h, c1, c2 int) bool {
	row := st.hUsed[h*st.hWords : (h+1)*st.hWords]
	for c1 <= c2 {
		b := c1 % 64
		n := min(c2-c1+1, 64-b)
		if row[c1/64]&(^uint64(0)>>(64-n)<<b) != 0 {
			return false
		}
		c1 += n
	}
	return true
}

func (st *fastState) takeCols(h, c1, c2 int) {
	for c := c1; c <= c2; c++ {
		w, bit := h*st.hWords+c/64, uint64(1)<<(c%64)
		if st.hUsed[w]&bit == 0 {
			st.hUsed[w] |= bit
			st.colUsage[c]++
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
	free := 0
	for line := range st.lineVars {
		if line >= st.nextLine {
			free += st.maxVarsPerLine
		} else if room := st.maxVarsPerLine - len(st.lineVars[line]); room > 0 {
			free += room
		}
	}
	if free < newVars {
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
	for _, e := range st.clauseEdges(k) {
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
	for _, h := range st.hLineOrder(pref) {
		if !st.colsFree(h, cmin, cmax) {
			continue
		}
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
		for _, h := range st.hLineOrder(pref) {
			if !st.colsFree(h, c1, c2) {
				continue
			}
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
func (st *fastState) finish(set []int) *FastResult {
	nodes := make(map[int]bool, 2*len(set))
	sortedNodes := make([]int, 0, 2*len(set))
	add := func(n int) {
		if !nodes[n] {
			nodes[n] = true
			sortedNodes = append(sortedNodes, n)
		}
	}
	for _, k := range set {
		logical, aux := st.clauseNodes(k)
		for _, n := range logical {
			add(n)
		}
		if aux >= 0 && st.auxPlaced(aux) {
			add(aux)
		}
	}
	slices.Sort(sortedNodes)
	emb := &Embedding{Chains: make(map[int][]int, len(sortedNodes))}
	for _, n := range sortedNodes {
		line := st.varLine[n]
		var s span
		if line >= 0 {
			s = st.varSpan[n]
			if s.empty() {
				// Variable with no couplings (unit clause): claim one free
				// row on its line.
				for r := 0; r < st.g.M; r++ {
					if st.canExtendSpan(n, r) {
						s = s.with(r)
						st.putSpan(n, s)
						break
					}
				}
			}
		}
		size := 0
		if line >= 0 {
			size = s.size()
		}
		for _, sg := range st.segs[n] {
			size += sg.C2 - sg.C1 + 1
		}
		if size == 0 {
			continue
		}
		chain := make([]int, 0, size)
		if line >= 0 {
			for r := s.Min; r <= s.Max; r++ {
				chain = append(chain, st.g.VerticalLineQubit(line, r))
			}
		}
		for _, sg := range st.segs[n] {
			for c := sg.C1; c <= sg.C2; c++ {
				chain = append(chain, st.g.HorizontalLineQubit(sg.Line, c))
			}
		}
		emb.Chains[n] = chain
	}
	return &FastResult{
		Embedding:       emb,
		EmbeddedClauses: len(set),
		EmbeddedSet:     set,
		EmbeddedNodes:   nodes,
	}
}

// auxPlaced reports whether an auxiliary node received any qubits (it always
// has when its clause was embedded; defensive for failed clauses).
func (st *fastState) auxPlaced(aux int) bool {
	return len(st.segs[aux]) > 0 || st.varLine[aux] >= 0
}

// FastEmbedder adapts Fast to the generic Embedder interface used by the
// Fig 13 comparison: the clause queue is encoded and embedded, and the
// result is reported as a (possibly partial) embedding of the problem graph.
type FastEmbedder struct{}

// Name implements Embedder.
func (FastEmbedder) Name() string { return "hyqsat-fast" }

// EmbedClauses embeds a clause queue and reports how many clauses fit.
func (FastEmbedder) EmbedClauses(clauses []cnf.Clause, g *topo.Chimera) (*FastResult, error) {
	enc, err := qubo.Encode(clauses)
	if err != nil {
		return nil, err
	}
	return Fast(enc, g), nil
}
