// Package sat implements a conflict-driven clause-learning (CDCL) SAT solver
// built from scratch: two-watched-literal propagation, first-UIP conflict
// analysis with clause minimisation, VSIDS and CHB branching heuristics,
// phase saving, Luby and Glucose-style restarts, and activity/LBD-based
// learnt-clause database reduction.
//
// Two preset configurations mirror the paper's classical baselines:
// MiniSATOptions (VSIDS + Luby + activity reduction, as in MiniSAT 2.2) and
// KissatOptions (CHB + LBD-EMA restarts + LBD reduction, the heuristic family
// of KisSAT). The solver additionally exposes the hooks the HyQSAT hybrid
// loop needs: stepwise execution, per-clause conflict-activity scores,
// phase hints, and variable prioritisation.
package sat

// Heuristic selects the branching-variable heuristic.
type Heuristic int

// Branching heuristics.
const (
	VSIDS Heuristic = iota // exponentially-decayed conflict activity (MiniSAT/Chaff)
	CHB                    // conflict-history-based bandit scores (KisSAT family)
)

// RestartPolicy selects when the solver restarts.
type RestartPolicy int

// Restart policies.
const (
	LubyRestarts    RestartPolicy = iota // Luby sequence × base conflicts
	GlucoseRestarts                      // fast/slow LBD exponential moving averages
	NoRestartsAtAll                      // never restart (useful in tests)
)

// ReduceMode selects how the learnt-clause database is trimmed.
type ReduceMode int

// Learnt-clause reduction modes.
const (
	ReduceByActivity ReduceMode = iota // drop the less active half (MiniSAT)
	ReduceByLBD                        // keep low-LBD glue clauses (Glucose/KisSAT)
	NoReduce                           // keep everything (useful in tests)
)

// Options configures a Solver. The zero value is usable but
// MiniSATOptions/KissatOptions are the intended entry points.
type Options struct {
	Heuristic    Heuristic
	Restarts     RestartPolicy
	Reduce       ReduceMode
	VarDecay     float64 // VSIDS activity decay, e.g. 0.95
	ClauseDecay  float64 // learnt-clause activity decay, e.g. 0.999
	RestartBase  int64   // Luby unit in conflicts, e.g. 100
	PhaseSaving  bool    // remember last polarity per variable
	InitialPhase bool    // polarity used before any saving/hint
	Seed         int64   // randomises tie-breaking and occasional decisions
	RandomFreq   float64 // probability of a random decision variable
	MaxConflicts int64   // stop with Unknown after this many conflicts (0 = unlimited)
	TrackVisits  bool    // per-clause propagation/conflict visit counters (Fig 5)
}

// MiniSATOptions returns the MiniSAT-2.2-style baseline configuration used as
// "classic CDCL" throughout the paper's evaluation.
func MiniSATOptions() Options {
	return Options{
		Heuristic:    VSIDS,
		Restarts:     LubyRestarts,
		Reduce:       ReduceByActivity,
		VarDecay:     0.95,
		ClauseDecay:  0.999,
		RestartBase:  100,
		PhaseSaving:  true,
		InitialPhase: false,
		Seed:         91648253,
		RandomFreq:   0,
	}
}

// KissatOptions returns the KisSAT-style baseline: CHB branching, LBD-EMA
// restarts, and LBD-based clause retention.
func KissatOptions() Options {
	return Options{
		Heuristic:    CHB,
		Restarts:     GlucoseRestarts,
		Reduce:       ReduceByLBD,
		VarDecay:     0.95,
		ClauseDecay:  0.999,
		RestartBase:  100,
		PhaseSaving:  true,
		InitialPhase: true,
		Seed:         140819,
		RandomFreq:   0,
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SATISFIABLE"
	case Unsat:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

// Stats carries the solver counters the paper's evaluation reports.
// An Iteration is one decision→propagation→conflict-resolution cycle
// (§VI-B of the paper: "one iteration includes three steps").
type Stats struct {
	Iterations   int64
	Decisions    int64
	Conflicts    int64
	Propagations int64
	Restarts     int64
	Learned      int64
	Removed      int64
	Minimized    int64 // literals deleted by clause minimisation
	ArenaGCs     int64 // clause-arena compactions (one per reducing reduceDB)
	Imported     int64 // foreign clauses attached through the sharing exchange
	MaxTrail     int
}

// Result is the outcome of Solve: the status, a model when Sat, and the
// solver statistics at termination. AssumptionsFailed marks an Unsat result
// that only holds under the assumptions passed to SolveWithAssumptions.
type Result struct {
	Status            Status
	Model             []bool
	Stats             Stats
	AssumptionsFailed bool
}
