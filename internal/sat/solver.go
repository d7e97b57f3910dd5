package sat

import (
	"sync/atomic"

	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
)

// watcher is one entry of a literal's watch list. blocker is a literal of the
// clause that, when already true, lets propagation skip inspecting the clause.
// For binary clauses (c carries the binRef encoding) the blocker IS the whole
// rest of the clause: propagation implies it directly without an arena visit.
type watcher struct {
	c       cref
	blocker cnf.Lit
}

// Solver is a CDCL SAT solver over a fixed input formula. It is not safe for
// concurrent use.
type Solver struct {
	opts    Options
	formula *cnf.Formula // the (cleaned) input, for model checking and hybrid hooks

	ca      clauseArena // flat clause store: problem and learnt records interleaved
	problem []cref      // refs of problem clauses
	learnts []cref      // refs of live learnt clauses
	gcBuf   []cnf.Lit   // spare arena backing, swapped in by garbageCollect
	redBuf  []cref      // reduceDB candidate scratch

	watches [][]watcher // indexed by Lit

	assigns  []cnf.Value // by Var
	level    []int32     // decision level of each assigned var
	reason   []cref      // antecedent clause of each implied var
	trailPos []int32     // trail index of each assigned var
	trail    []cnf.Lit
	trailLim []int // trail index at each decision level
	qhead    int   // propagation queue head (index into trail)

	polarity []bool // saved/hinted phase per var
	varAct   []float64
	varInc   float64
	order    *varHeap

	claInc float64

	// CHB state.
	chbAlpha     float64
	lastConflict []int64

	// Conflict analysis scratch (reused across conflicts so the steady-state
	// analyze path performs zero allocations; gate-enforced by
	// TestAnalyzeSteadyStateAllocs).
	seen       []bool
	analyzeBuf []cnf.Lit
	clearBuf   []cnf.Var // variables whose seen mark analyze must clear
	removedBuf []cnf.Lit // literals clause minimisation removed
	lbdSeen    []int64   // per-level stamp for computeLBD
	lbdStamp   int64

	// Paper §IV-A: per-input-clause activity, bumped when the clause is
	// involved in resolving a conflict. Starts at 1.
	clauseScore []float64

	// Fig 5 instrumentation: per-input-clause visit counters.
	propVisits []int64
	confVisits []int64

	stats Stats

	// Restart bookkeeping.
	conflictsUntilRestart int64
	lubyIndex             int64
	lbdEMAFast            float64
	lbdEMASlow            float64
	emaConflicts          int64

	// Learnt DB limits.
	maxLearnts    float64
	learntsAdjust float64

	status    Status
	model     []bool
	rootLevel int32
	conflictC cref // last conflicting clause (for diagnostics)

	// interrupted is the asynchronous stop flag: the only solver state
	// another goroutine may touch (the cube scheduler interrupts the other
	// workers once a cube run is decided). The search loops poll it where
	// they poll the conflict budget and return Unknown.
	interrupted atomic.Bool

	// proof, when non-nil, receives every learnt/deleted clause with its
	// hints (see ProofWriter). nextID is the id of the next logged clause;
	// unitID holds, per root-level variable, the id of the unit clause that
	// hints name for it (0 until it has one), and rootLogged counts the
	// trail entries logRootUnits has covered. hints and chain are analyze's
	// scratch.
	proof      ProofWriter
	nextID     int32
	unitID     []int32
	rootLogged int
	unitLit    [1]cnf.Lit
	hints      []int32
	chain      []int32

	// trace, when non-nil and enabled, receives conflict/restart events.
	// Emission sites guard with Enabled() so disabled tracing costs one
	// branch and zero allocations.
	trace obs.Tracer
	// metrics holds optional live instrumentation hooks (histograms and
	// gauges updated with pure atomics — no allocation, no locking).
	metrics Metrics

	// forced is a queue of literals to prefer as upcoming decisions
	// (consumed front to back, skipping assigned variables). Set by the
	// hybrid backend to inject a QA assignment as the next search state.
	forced []cnf.Lit
}

// New builds a solver for formula f with the given options. The formula is
// simplified (tautologies dropped, duplicate literals removed) on ingestion;
// empty input clauses make the solver immediately Unsat.
//
// New is reset applied to a zero Solver — a recycled solver (see Pool) runs
// through exactly the same initialization, reusing its allocations.
func New(f *cnf.Formula, opts Options) *Solver {
	s := &Solver{}
	s.reset(f, opts)
	return s
}

// Stats returns a copy of the current solver counters.
func (s *Solver) Stats() Stats { return s.stats }

// Model returns the satisfying assignment found by the last Sat outcome,
// or nil. The returned slice is owned by the solver.
func (s *Solver) Model() []bool { return s.model }

func (s *Solver) attachClause(lits cnf.Clause, learnt bool, orig int) cref {
	c := s.ca.alloc(lits, learnt, orig)
	if learnt {
		s.learnts = append(s.learnts, c)
		s.ca.setAct(c, s.claInc)
	} else {
		s.problem = append(s.problem, c)
	}
	// Binary clauses propagate without an arena visit: the watcher's blocker
	// doubles as the implied literal, and the binRef-encoded cref both flags
	// the fast path and still names the record (for reasons and conflicts).
	w := c
	if len(lits) == 2 {
		w = binRef(c)
	}
	s.watch(lits[0], watcher{w, lits[1]})
	s.watch(lits[1], watcher{w, lits[0]})
	return c
}

func (s *Solver) watch(l cnf.Lit, w watcher) {
	// A watch on literal l means: the clause watches l and must be inspected
	// when ¬l is assigned; we index watch lists by the falsifying literal.
	s.watches[l.Not()] = append(s.watches[l.Not()], w)
}

// value returns the current truth value of literal l.
func (s *Solver) value(l cnf.Lit) cnf.Value {
	v := s.assigns[l.Var()]
	if l.IsNeg() {
		return v.Not()
	}
	return v
}

// decisionLevel is the current depth of the decision stack.
func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// enqueue assigns literal l with antecedent from. It returns false when l is
// already false (a conflict at the caller's level).
func (s *Solver) enqueue(l cnf.Lit, from cref) bool {
	switch s.value(l) {
	case cnf.True:
		return true
	case cnf.False:
		return false
	}
	v := l.Var()
	if l.IsNeg() {
		s.assigns[v] = cnf.False
	} else {
		s.assigns[v] = cnf.True
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trailPos[v] = int32(len(s.trail))
	s.trail = append(s.trail, l)
	if len(s.trail) > s.stats.MaxTrail {
		s.stats.MaxTrail = len(s.trail)
	}
	return true
}

// newDecisionLevel pushes a decision level boundary.
func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = !l.IsNeg()
		s.assigns[v] = cnf.Undef
		s.reason[v] = crefUndef
		if !s.order.contains(v) {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// pickBranchVar pops the most active unassigned variable.
func (s *Solver) pickBranchVar() cnf.Var {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == cnf.Undef {
			return v
		}
	}
	return cnf.NoVar
}

// varBump increases the activity of v and restores heap order.
func (s *Solver) varBump(v cnf.Var, amount float64) {
	s.varAct[v] += amount
	if s.varAct[v] > 1e100 {
		for i := range s.varAct {
			s.varAct[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.update(v)
}

func (s *Solver) varDecayActivity() {
	s.varInc /= varDecay
}

func (s *Solver) claBump(c cref) {
	act := s.ca.act(c) + s.claInc
	s.ca.setAct(c, act)
	if act > 1e20 {
		// Rescale every live learnt clause. garbageCollect purges deleted
		// crefs from s.learnts, so this loop never touches dead records.
		for _, ref := range s.learnts {
			s.ca.setAct(ref, s.ca.act(ref)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecayActivity() {
	s.claInc /= clauseDecay
}
