package sat

import (
	"errors"

	"hyqsat/internal/cnf"
)

// PropagateBench is a reproducible unit-propagation workload over a fixed
// formula, used by BenchmarkPropagate and cmd/benchreport. It replays an
// adversarial decision sequence — the negation of a known model, so each
// decision falsifies literals and drives real watch-list traversal, unit
// implications, and conflicts — against a solver whose learnt-clause database
// was warmed by a budgeted search. Conflicts are handled by undoing the
// offending decision level and moving on (no learning), so every Run performs
// the identical, deterministic sequence of propagations.
type PropagateBench struct {
	s         *Solver
	decisions []cnf.Lit
}

// NewPropagateBench builds the workload: it finds a model of f, then builds a
// fresh solver warmed with up to warmupConflicts conflicts of real search
// (populating the learnt database, including binary learnts for the watcher
// fast path) and rewound to the root level. f must be satisfiable.
func NewPropagateBench(f *cnf.Formula, opts Options, warmupConflicts int64) (*PropagateBench, error) {
	full := opts
	full.MaxConflicts = 0
	r := New(f.Copy(), full).Solve()
	if r.Status != Sat {
		return nil, errors.New("sat: PropagateBench requires a satisfiable formula")
	}

	warm := full
	warm.MaxConflicts = warmupConflicts
	s := New(f.Copy(), warm)
	if warmupConflicts > 0 {
		s.Solve()
	}
	s.cancelUntil(s.rootLevel)
	s.opts.MaxConflicts = 0

	decisions := make([]cnf.Lit, 0, len(r.Model))
	for v, b := range r.Model {
		decisions = append(decisions, cnf.MkLit(cnf.Var(v), b))
	}
	return &PropagateBench{s: s, decisions: decisions}, nil
}

// Run replays the decision sequence once: every still-unassigned decision
// literal opens a decision level and is propagated to fixed point; a conflict
// undoes just that level. The trail is rewound to the root at the end. Run
// returns the number of propagations performed; it is deterministic and
// allocation-free in steady state (gate-enforced by
// TestPropagateSteadyStateAllocs).
func (b *PropagateBench) Run() int64 {
	s := b.s
	start := s.stats.Propagations
	for _, l := range b.decisions {
		if s.assigns[l.Var()] != cnf.Undef {
			continue
		}
		s.newDecisionLevel()
		s.enqueue(l, crefUndef)
		if s.propagate() != crefUndef {
			s.cancelUntil(s.decisionLevel() - 1)
		}
	}
	s.cancelUntil(s.rootLevel)
	return s.stats.Propagations - start
}
