// Package portfolio solves one formula in parallel by cube-and-conquer
// (cube.go): a lookahead probe splits the instance into assumption cubes,
// and a pool of incremental CDCL workers conquers them, optionally after a
// per-cube HyQSAT warm-up whose QA belief seeds the worker's phases.
//
// Verdicts are always cross-checked: a Sat model is verified against the
// input formula, and in certifying mode (CubeOptions.Certify) an Unsat
// verdict must carry a stitched DRAT proof — the per-cube refutations plus
// the resolution tree over the cube literals — that the internal/verify RUP
// checker accepts before it is returned.
package portfolio

import (
	"fmt"
	"sync"

	"hyqsat/internal/sat"
)

// AggregateStats sums the work of every solver a cube run ran — the probe,
// every worker and every QA warm-up — so conflict counts and QA effort
// reflect the total cost of the solve, not just the winning worker's.
type AggregateStats struct {
	SAT     sat.Stats
	QAReads int64
	QACalls int64
}

func (a *AggregateStats) add(t sat.Stats, qaReads, qaCalls int64) {
	s := &a.SAT
	s.Iterations += t.Iterations
	s.Decisions += t.Decisions
	s.Conflicts += t.Conflicts
	s.Propagations += t.Propagations
	s.Restarts += t.Restarts
	s.Learned += t.Learned
	s.Removed += t.Removed
	s.Minimized += t.Minimized
	s.ArenaGCs += t.ArenaGCs
	if t.MaxTrail > s.MaxTrail {
		s.MaxTrail = t.MaxTrail
	}
	a.QAReads += qaReads
	a.QACalls += qaCalls
}

// aggregate is the mutex-guarded accumulator the workers of a cube run
// report into.
type aggregate struct {
	mu sync.Mutex
	st AggregateStats
}

func (a *aggregate) add(t sat.Stats, qaReads, qaCalls int64) {
	a.mu.Lock()
	a.st.add(t, qaReads, qaCalls)
	a.mu.Unlock()
}

func (a *aggregate) snapshot() AggregateStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

// ErrInvalidModel is reported when a solver returned a non-model — a solver
// bug the cube run refuses to propagate. Entrant names the solver.
type ErrInvalidModel struct{ Entrant string }

func (e ErrInvalidModel) Error() string {
	return "portfolio: entrant " + e.Entrant + " returned an invalid model"
}

// ErrUncertified is reported when a conclusive verdict failed certification
// (an Unsat verdict whose proof the RUP checker rejects).
type ErrUncertified struct {
	Entrant string
	Reason  error
}

func (e ErrUncertified) Error() string {
	return fmt.Sprintf("portfolio: entrant %s verdict failed certification: %v", e.Entrant, e.Reason)
}

func (e ErrUncertified) Unwrap() error { return e.Reason }
