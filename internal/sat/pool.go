package sat

import (
	"sync"

	"hyqsat/internal/cnf"
)

// resetSlice returns a zero-valued slice of length n, reusing s's backing
// array when it is large enough. The full n elements are always cleared, so
// stale values beyond a previous (shorter) length can never leak.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// emptySlice returns a length-0 slice with capacity at least n, reusing s's
// backing array when it is large enough.
func emptySlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// reset re-initializes the solver in place for a new formula, reusing every
// buffer whose capacity allows it. A reset solver is indistinguishable from a
// freshly constructed one: New is literally reset applied to a zero Solver,
// and TestPoolBitIdentical pins the equivalence over a polluted-state corpus.
func (s *Solver) reset(f *cnf.Formula, opts Options) {
	n := f.NumVars
	s.opts = opts
	s.formula = f

	// Size the arena for the problem clauses up front; learnt records extend
	// it with ordinary amortised appends.
	words := 0
	for _, c := range f.Clauses {
		words += clauseHeaderWords + len(c)
	}
	s.ca.data = emptySlice(s.ca.data, words)
	s.ca.wasted = 0
	s.problem = s.problem[:0]
	s.learnts = s.learnts[:0]
	// gcBuf stays: it is spare backing garbageCollect swaps in, never read.
	s.redBuf = s.redBuf[:0]

	// Truncate every watch row reachable through the backing array's full
	// capacity — a later, larger reset re-exposes rows beyond the current
	// length, and those must not carry stale watchers.
	s.watches = s.watches[:cap(s.watches)]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	if cap(s.watches) < 2*n {
		s.watches = make([][]watcher, 2*n)
	} else {
		s.watches = s.watches[:2*n]
	}

	s.assigns = resetSlice(s.assigns, n)
	s.level = resetSlice(s.level, n)
	s.reason = resetSlice(s.reason, n)
	s.trailPos = resetSlice(s.trailPos, n)
	for i := range s.reason {
		s.reason[i] = crefUndef
	}
	s.trail = emptySlice(s.trail, n)
	s.trailLim = emptySlice(s.trailLim, n)
	s.qhead = 0

	s.polarity = resetSlice(s.polarity, n)
	for i := range s.polarity {
		s.polarity[i] = opts.Preset == Kissat
	}
	s.varAct = resetSlice(s.varAct, n)
	s.varInc = 1.0
	s.claInc = 1.0
	s.chbAlpha = 0.4
	s.lastConflict = resetSlice(s.lastConflict, n)

	s.seen = resetSlice(s.seen, n)
	s.analyzeBuf = emptySlice(s.analyzeBuf, n+1)
	s.clearBuf = emptySlice(s.clearBuf, n)
	s.removedBuf = s.removedBuf[:0]
	s.lbdSeen = resetSlice(s.lbdSeen, n+1)
	s.lbdStamp = 0

	s.clauseScore = resetSlice(s.clauseScore, len(f.Clauses))
	for i := range s.clauseScore {
		s.clauseScore[i] = 1.0
	}
	if opts.TrackVisits {
		s.propVisits = resetSlice(s.propVisits, len(f.Clauses))
		s.confVisits = resetSlice(s.confVisits, len(f.Clauses))
	} else {
		s.propVisits, s.confVisits = nil, nil
	}

	s.stats = Stats{}
	s.lubyIndex = 0
	s.lbdEMAFast, s.lbdEMASlow = 0, 0
	s.emaConflicts = 0
	s.status = Unknown
	s.model = nil
	s.rootLevel = 0
	s.conflictC = crefUndef
	s.interrupted.Store(false)
	s.proof = nil
	s.nextID = int32(len(f.Clauses)) + 1
	s.unitID = resetSlice(s.unitID, n)
	s.rootLogged = 0
	s.hints = s.hints[:0]
	s.chain = s.chain[:0]
	s.trace = nil
	s.metrics = Metrics{}
	s.forced = s.forced[:0]

	if s.order == nil {
		s.order = newVarHeap(s.varAct)
	} else {
		// resetSlice may have replaced the varAct backing array; rebind.
		s.order.reset(s.varAct)
	}
	for v := cnf.Var(0); int(v) < n; v++ {
		s.order.push(v)
	}

	for i, c := range f.Clauses {
		nc := c.Normalized()
		if nc.IsTautology() {
			continue
		}
		switch len(nc) {
		case 0:
			s.status = Unsat
		case 1:
			if s.value(nc[0]) == cnf.Undef {
				s.unitID[nc[0].Var()] = int32(i) + 1
			}
			if !s.enqueue(nc[0], crefUndef) {
				s.status = Unsat
			}
		default:
			s.attachClause(nc, false, i)
		}
	}
	if s.status == Unknown {
		if conflict := s.propagate(); conflict != crefUndef {
			s.status = Unsat
		}
	}
	s.maxLearnts = float64(len(s.problem))/3.0 + 100
	s.learntsAdjust = 100
	s.conflictsUntilRestart = s.restartBudget()
}

// Pool recycles arena-backed Solvers across jobs. A hot daemon path solving a
// stream of formulas pays the cold-state allocation cost (arena, watch lists,
// trail, heap, analysis scratch) only until capacities warm up; afterwards a
// Get is a re-initialization of existing storage. Pool is safe for concurrent
// use; individual Solvers remain single-goroutine.
//
// A Solver obtained from Get and returned with Put must not be used again by
// the caller. Models returned by a previous Solve stay valid: the solver
// allocates a fresh model slice per Sat outcome and never writes to old ones.
type Pool struct {
	p sync.Pool
}

// NewPool returns an empty solver pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a solver initialized for f — recycled when one is available,
// freshly constructed otherwise. Equivalent to New(f, opts) in every
// observable way.
func (p *Pool) Get(f *cnf.Formula, opts Options) *Solver {
	if v := p.p.Get(); v != nil {
		s := v.(*Solver)
		s.reset(f, opts)
		return s
	}
	return New(f, opts)
}

// Put returns a solver to the pool for reuse. The solver must be idle (no
// in-flight Solve on another goroutine). nil is ignored.
func (p *Pool) Put(s *Solver) {
	if s == nil {
		return
	}
	p.p.Put(s)
}
