package sat

import (
	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
)

// This file contains the introspection and guidance hooks consumed by the
// HyQSAT hybrid loop (paper §IV frontend and §V backend).

// ClauseScores returns the paper's activity scores of all input clauses
// (§IV-A: initialised to 1, bumped whenever the clause participates in
// resolving a conflict). The returned slice is owned by the solver; callers
// must not mutate it.
func (s *Solver) ClauseScores() []float64 { return s.clauseScore }

// UnsatisfiedClauses appends to dst the indices of input clauses not
// currently satisfied by the partial assignment (the clause set the frontend
// receives from the decision step) and returns the extended slice, so a
// caller scanning every iteration can reuse one buffer.
func (s *Solver) UnsatisfiedClauses(dst []int) []int {
	out := dst
	for i, c := range s.formula.Clauses {
		sat := false
		for _, l := range c {
			if s.value(l) == cnf.True {
				sat = true
				break
			}
		}
		if !sat {
			out = append(out, i)
		}
	}
	return out
}

// VarValue returns the current truth value of v.
func (s *Solver) VarValue(v cnf.Var) cnf.Value { return s.assigns[v] }

// SetPhaseHints biases future decisions on every assigned variable of a
// towards its value in a (feedback strategy 2: adopt the QA assignment as the
// next search state).
func (s *Solver) SetPhaseHints(a cnf.Assignment) {
	for v, val := range a {
		if val != cnf.Undef {
			s.polarity[v] = val == cnf.True
		}
	}
}

// PrioritizeVars bumps the branching priority of the given variables so they
// are decided before others (feedback strategy 4: steer the search into the
// known-conflicting subspace to fail fast).
func (s *Solver) PrioritizeVars(vars []cnf.Var) {
	if len(vars) == 0 {
		return
	}
	// Lift the chosen variables above the current maximum activity while
	// preserving their relative order.
	max := 0.0
	for _, a := range s.varAct {
		if a > max {
			max = a
		}
	}
	for _, v := range vars {
		s.varBump(v, max+s.varInc-s.varAct[v])
	}
}

// ForceDecisions replaces the queue of literals the solver will prefer as
// its upcoming decisions (assigned variables are skipped when reached).
// This is how the hybrid backend injects a QA assignment as the next search
// state (feedback strategy 2, Fig 9a).
func (s *Solver) ForceDecisions(lits []cnf.Lit) {
	s.forced = append(s.forced[:0], lits...)
}

// VarActivity returns the current branching activity of v.
func (s *Solver) VarActivity(v cnf.Var) float64 { return s.varAct[v] }

// VisitCounts returns per-input-clause propagation and conflict visit
// counters (requires Options.TrackVisits; both nil otherwise). Used to
// reproduce Fig 5. The returned slices are owned by the solver.
func (s *Solver) VisitCounts() (prop, conf []int64) {
	return s.propVisits, s.confVisits
}

// SetTracer attaches a solve-event tracer: every conflict emits a
// ConflictEvent and every restart a RestartEvent. Pass nil (or a tracer
// whose Enabled() is false) to disable; disabled tracing adds no
// allocations to the search loop. Attach before solving.
func (s *Solver) SetTracer(t obs.Tracer) { s.trace = t }

// Metrics holds optional live instrumentation sinks the solver updates with
// pure atomics as it searches. Any field may be nil. These feed the
// telemetry registry without routing per-conflict data through the (heavier)
// event tracer.
type Metrics struct {
	// ConflictDepth observes the decision level of every conflict.
	ConflictDepth *obs.Histogram
	// LearntLen observes the length of every learnt clause.
	LearntLen *obs.Histogram
	// Iterations tracks the live iteration count (for mid-solve status
	// endpoints; reading the Stats struct of a running solver is racy,
	// a gauge read is not).
	Iterations *obs.Gauge
}

// SetMetrics installs live instrumentation sinks. Attach before solving.
func (s *Solver) SetMetrics(m Metrics) { s.metrics = m }

// Interrupt asynchronously stops the current search: the search loops poll
// the flag where they poll the conflict budget, so the in-flight
// Solve/SolveWithAssumptions call returns Unknown within one propagation
// round. This is the one solver method that is safe to call from another
// goroutine, and the one way a caller stops a search early: the portfolio
// race, the cube workers and the CLI wire it to their context (usually via
// context.AfterFunc). The flag persists until ClearInterrupt, so an
// Interrupt that lands before the search starts is not lost.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// ClearInterrupt re-arms an interrupted solver for further solving.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Formula returns the input formula the solver was built from.
func (s *Solver) Formula() *cnf.Formula { return s.formula }
