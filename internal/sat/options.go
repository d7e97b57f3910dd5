// Package sat implements a conflict-driven clause-learning (CDCL) SAT solver
// built from scratch: two-watched-literal propagation, first-UIP conflict
// analysis with clause minimisation, VSIDS and CHB branching heuristics,
// phase saving, Luby and Glucose-style restarts, and activity/LBD-based
// learnt-clause database reduction.
//
// Two preset configurations mirror the paper's classical baselines:
// MiniSATOptions (VSIDS + Luby + activity reduction, as in MiniSAT 2.2) and
// KissatOptions (CHB + LBD-EMA restarts + LBD reduction, the heuristic family
// of KisSAT). Options is exactly a preset selector plus MaxConflicts and
// TrackVisits; nothing else about the search is configurable, and the search
// draws no random numbers. The solver
// additionally exposes the hooks the HyQSAT hybrid loop needs: stepwise
// execution, per-clause conflict-activity scores, phase hints, and variable
// prioritisation.
package sat

// Preset selects one of the two baseline configurations. Each fixes the
// branching heuristic, restart policy, learnt-clause reduction and initial
// polarity together; phase saving is always on, and the decay factors and
// Luby unit are the constants below.
type Preset int

// Baseline presets.
const (
	// MiniSAT is MiniSAT 2.2: VSIDS branching, Luby restarts, activity-based
	// reduction, initial polarity false.
	MiniSAT Preset = iota
	// Kissat is the KisSAT heuristic family: CHB branching, LBD-EMA restarts,
	// LBD-based clause retention, initial polarity true.
	Kissat
)

// Search constants shared by both presets.
const (
	varDecay    = 0.95  // VSIDS activity decay
	clauseDecay = 0.999 // learnt-clause activity decay
	restartBase = 100   // Luby unit in conflicts
)

// Options configures a Solver: a preset plus per-run settings. The zero
// value is the MiniSAT preset; MiniSATOptions/KissatOptions are the intended
// entry points.
type Options struct {
	Preset       Preset
	MaxConflicts int64 // stop with Unknown after this many conflicts (0 = unlimited)
	TrackVisits  bool  // per-clause propagation/conflict visit counters (Fig 5)
}

// MiniSATOptions returns the MiniSAT-2.2-style baseline configuration used as
// "classic CDCL" throughout the paper's evaluation.
func MiniSATOptions() Options {
	return Options{Preset: MiniSAT}
}

// KissatOptions returns the KisSAT-style baseline: CHB branching, LBD-EMA
// restarts, and LBD-based clause retention.
func KissatOptions() Options {
	return Options{Preset: Kissat}
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
