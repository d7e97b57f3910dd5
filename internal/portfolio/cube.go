package portfolio

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/verify"
)

// Cube is one branch of a cube-and-conquer split: a conjunction of literals
// assumed true for the duration of one sub-solve. The splitter emits all
// 2^depth sign combinations over its chosen variables, so the cube set is a
// partition of the assignment space by construction: every total assignment
// is consistent with exactly one cube.
type Cube []cnf.Lit

// CubeOptions configures SolveCubes.
type CubeOptions struct {
	// Depth is the number of split variables; 2^Depth cubes are generated
	// (default 3, capped at 12). The effective depth shrinks when the probe
	// leaves fewer free variables.
	Depth int
	// Workers is the number of concurrent cube solvers (default GOMAXPROCS).
	Workers int
	// ProbeConflicts bounds the lookahead probe that ranks split variables
	// (default 3000). A probe that solves the instance outright short-circuits
	// the whole split.
	ProbeConflicts int64
	// Certify requires verdict certification: Sat models are checked, and an
	// Unsat verdict must carry a stitched DRAT proof (per-cube refutations
	// plus a resolution tree over the cube literals) that the RUP checker
	// accepts against the input formula.
	Certify bool
	// Seed seeds the QA warm-ups' hybrid solvers (see QAWarmup); the probe
	// and worker CDCL solvers draw no random numbers.
	Seed int64
	// Trace, when non-nil and enabled, receives one CubeEvent per finished
	// cube, plus the workers' solver events and the warm-ups' hybrid
	// events. Emitted from worker goroutines; the tracer must be safe for
	// concurrent use.
	Trace obs.Tracer
	// QAWarmup, when positive, runs that many HyQSAT hybrid warm-up
	// iterations on formula+cube before each cube's CDCL solve, feeding the
	// QA belief back as phase hints.
	QAWarmup int
	// WarmupConflicts bounds each warm-up's CDCL budget (default 2000).
	WarmupConflicts int64
	// WrapBackend decorates the warm-ups' QA access path (fault injection,
	// Resilient), as hyqsat.Options.WrapBackend does.
	WrapBackend func(qpu.Backend) qpu.Backend
}

func (o CubeOptions) withDefaults() CubeOptions {
	if o.Depth <= 0 {
		o.Depth = 3
	}
	if o.Depth > 12 {
		o.Depth = 12
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ProbeConflicts <= 0 {
		o.ProbeConflicts = 3000
	}
	if o.WarmupConflicts <= 0 {
		o.WarmupConflicts = 2000
	}
	return o
}

// CubeOutcome is the result of a cube-and-conquer solve.
type CubeOutcome struct {
	Result    sat.Result
	Certified bool
	// Cubes is the number of cubes generated (0 when the probe solved the
	// instance outright). Refuted counts cubes proven unsatisfiable;
	// WinningCube is the index of the cube whose sub-solve found a model
	// (-1 otherwise).
	Cubes       int
	Refuted     int
	WinningCube int
	Aggregate   AggregateStats
	Elapsed     time.Duration
	// Proof is the checked stitched DRAT proof backing a certified Unsat
	// verdict (empty otherwise) — exposed so callers can re-serialize or
	// re-verify it.
	Proof verify.Proof
}

// makeCubes runs the lookahead probe and splits f into assumption cubes: the
// probe searches under a conflict budget, then the depth highest-activity
// variables not fixed at the root become split variables, and every sign
// combination over them becomes a cube. When the probe solves the instance
// outright the returned cube list is nil and the Result is conclusive. proof,
// when non-nil, receives the probe's DRAT trace, and trace, when non-nil,
// its conflict and restart events.
func makeCubes(f *cnf.Formula, depth int, probeConflicts int64, proof sat.ProofWriter, trace obs.Tracer) ([]Cube, sat.Result) {
	po := sat.MiniSATOptions()
	po.MaxConflicts = probeConflicts
	probe := sat.New(f.Copy(), po)
	if proof != nil {
		probe.SetProofWriter(proof)
	}
	if trace != nil {
		probe.SetTracer(trace)
	}
	// The assumptions entry point (with none) backtracks to the root on
	// budget exhaustion, so an Undef VarValue afterwards means "not fixed at
	// root level" — exactly the variables worth splitting on.
	r := probe.SolveWithAssumptions(nil)
	if r.Status != sat.Unknown {
		return nil, r
	}
	free := make([]cnf.Var, 0, f.NumVars)
	for v := cnf.Var(0); int(v) < f.NumVars; v++ {
		if probe.VarValue(v) == cnf.Undef {
			free = append(free, v)
		}
	}
	sort.Slice(free, func(a, b int) bool {
		aa, ab := probe.VarActivity(free[a]), probe.VarActivity(free[b])
		if aa != ab {
			return aa > ab
		}
		return free[a] < free[b]
	})
	if depth > len(free) {
		depth = len(free)
	}
	sel := free[:depth]
	cubes := make([]Cube, 0, 1<<depth)
	for mask := 0; mask < 1<<depth; mask++ {
		c := make(Cube, depth)
		for j, v := range sel {
			c[j] = cnf.MkLit(v, mask>>j&1 == 1)
		}
		cubes = append(cubes, c)
	}
	return cubes, r
}

// negCube returns the clause ¬(l1 ∧ … ∧ ld) = (¬l1 ∨ … ∨ ¬ld).
func negCube(c Cube) []cnf.Lit {
	out := make([]cnf.Lit, len(c))
	for i, l := range c {
		out[i] = l.Not()
	}
	return out
}

// SolveCubes solves f by cube-and-conquer: probe, split into 2^depth
// assumption cubes, and conquer the cubes across Workers incremental CDCL
// solvers pulling from a shared queue (which is also the load balancer — a
// worker that finishes its cube early simply steals the next one). A model
// under any cube is a model of f; all cubes refuted means f is unsatisfiable,
// and in certifying mode the per-cube refutations are stitched into one DRAT
// proof — each worker appends ¬cube for every cube it kills, and the
// coordinator closes the proof with the binary resolution tree over the split
// literals down to the empty clause. The stitched proof carries no hints
// (clause ids are local to each solver, see verify.SharedRecorder), so it is
// RUP-checked against f before the Unsat verdict is returned.
func SolveCubes(ctx context.Context, f *cnf.Formula, o CubeOptions) (CubeOutcome, error) {
	o = o.withDefaults()
	trace := o.Trace
	if trace == nil {
		trace = obs.Nop()
	}
	// One solve id covers the whole cube run; the probe and the workers
	// trace under their own sources ("cube/probe", "cube/w3"), so
	// concurrent streams demultiplex offline.
	var runID string
	var probeTrace obs.Tracer
	if trace.Enabled() {
		runID = obs.NextSolveID()
		probeTrace = obs.WithSource(trace, obs.Source{Solve: runID, Name: "cube/probe"})
	}
	start := time.Now()

	var stitch *verify.SharedRecorder
	var proof sat.ProofWriter
	if o.Certify {
		stitch = verify.NewSharedRecorder()
		proof = stitch
	}
	agg := &aggregate{}

	cubes, probeRes := makeCubes(f, o.Depth, o.ProbeConflicts, proof, probeTrace)
	agg.add(probeRes.Stats, 0, 0)
	if probeRes.Status != sat.Unknown {
		out := CubeOutcome{Result: probeRes, WinningCube: -1,
			Aggregate: agg.snapshot(), Elapsed: time.Since(start)}
		switch probeRes.Status {
		case sat.Sat:
			if err := verify.CheckModel(f, probeRes.Model); err != nil {
				return CubeOutcome{}, ErrInvalidModel{"cube-probe"}
			}
			out.Certified = o.Certify
		case sat.Unsat:
			if o.Certify {
				stitched := stitch.Snapshot()
				if err := verify.CheckUnsatProof(f, stitched); err != nil {
					return CubeOutcome{}, ErrUncertified{"cube-probe", err}
				}
				out.Certified = true
				out.Proof = stitched
			}
		}
		return out, nil
	}

	// The cube queue: preloaded and closed, so pulling from it is both the
	// schedule and the stealing mechanism.
	work := make(chan int, len(cubes))
	for i := range cubes {
		work <- i
	}
	close(work)

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu          sync.Mutex
		winCube     = -1
		winRes      sat.Result
		globalUnsat bool
		refuted     int
		firstErr    error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	solvers := make([]*sat.Solver, o.Workers)
	workerTrace := make([]obs.Tracer, o.Workers)
	for w := range solvers {
		solvers[w] = sat.New(f.Copy(), sat.MiniSATOptions())
		if proof != nil {
			solvers[w].SetProofWriter(proof)
		}
		workerTrace[w] = obs.WithSource(trace, obs.Source{Solve: runID, Name: fmt.Sprintf("cube/w%d", w)})
		if workerTrace[w].Enabled() {
			solvers[w].SetTracer(workerTrace[w])
		}
	}
	// Stop every worker the moment the run is decided or the caller's
	// context ends: the interrupt is the only thing that stops a cube's
	// solve early. Interrupt is the one cross-goroutine safe solver method;
	// the deferred cancel above releases this watcher.
	go func() {
		<-ctx.Done()
		for _, s := range solvers {
			s.Interrupt()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver := solvers[w]
			wt := workerTrace[w]
			defer func() {
				// The worker's whole incremental run counts once.
				agg.add(solver.Stats(), 0, 0)
			}()
			emit := func(ci int, status string, conflicts int64) {
				if wt.Enabled() {
					wt.Emit(obs.CubeEvent{Cube: ci, Worker: w, Status: status, Conflicts: conflicts})
				}
			}
			for ci := range work {
				select {
				case <-ctx.Done():
					return
				default:
				}
				cube := cubes[ci]
				startConf := solver.Stats().Conflicts
				if o.QAWarmup > 0 {
					model, qaReads, qaCalls := cubeWarmup(ctx, f, cube, o, solver, wt)
					agg.add(sat.Stats{}, qaReads, qaCalls)
					if model != nil {
						mu.Lock()
						if winCube < 0 {
							winCube = ci
							winRes = sat.Result{Status: sat.Sat, Model: model}
						}
						mu.Unlock()
						emit(ci, "sat", 0)
						cancel()
						return
					}
				}
				r := solver.SolveWithAssumptions(cube)
				switch {
				case r.Status == sat.Sat:
					if err := verify.CheckModel(f, r.Model); err != nil {
						fail(ErrInvalidModel{fmt.Sprintf("cube-w%d", w)})
						return
					}
					mu.Lock()
					if winCube < 0 {
						winCube = ci
						winRes = r
					}
					mu.Unlock()
					emit(ci, "sat", r.Stats.Conflicts-startConf)
					cancel()
					return
				case r.Status == sat.Unsat && r.AssumptionsFailed:
					// The cube is refuted. ¬cube is a RUP consequence of the
					// clauses this worker has already logged (the learnt
					// clauses that made the assumptions conflict), so it
					// extends the stitched proof soundly.
					if stitch != nil {
						stitch.ProofAdd(negCube(cube), nil)
					}
					mu.Lock()
					refuted++
					mu.Unlock()
					emit(ci, "refuted", r.Stats.Conflicts-startConf)
				case r.Status == sat.Unsat:
					// Unsatisfiable outright, independent of the cube: the
					// empty clause is already in this worker's proof.
					mu.Lock()
					globalUnsat = true
					mu.Unlock()
					emit(ci, "refuted", r.Stats.Conflicts-startConf)
					cancel()
					return
				default:
					// Unknown: the solver was interrupted.
					emit(ci, "abandoned", r.Stats.Conflicts-startConf)
					return
				}
			}
		}()
	}
	wg.Wait()

	out := CubeOutcome{Cubes: len(cubes), WinningCube: -1}
	finish := func() CubeOutcome {
		out.Refuted = refuted
		out.Aggregate = agg.snapshot()
		out.Elapsed = time.Since(start)
		return out
	}

	if firstErr != nil {
		return CubeOutcome{}, firstErr
	}
	if winCube >= 0 {
		out.Result = winRes
		out.WinningCube = winCube
		out.Certified = o.Certify // the model was checked before winning
		return finish(), nil
	}
	if !globalUnsat && refuted < len(cubes) {
		// No verdict and cubes left unprocessed: the caller's context ended.
		return CubeOutcome{}, parent.Err()
	}

	// Unsat. With all cubes individually refuted, close the stitched proof:
	// fold the 2^d ¬cube leaves pairwise with the binary resolution tree over
	// the split variables — the negation of each length-j prefix is RUP from
	// its two length-j+1 children — down to the empty clause.
	if stitch != nil && !globalUnsat {
		sel := make([]cnf.Var, len(cubes[0]))
		for j, l := range cubes[0] {
			sel[j] = l.Var()
		}
		for j := len(sel) - 1; j >= 0; j-- {
			for mask := 0; mask < 1<<j; mask++ {
				cl := make([]cnf.Lit, j)
				for k := 0; k < j; k++ {
					cl[k] = cnf.MkLit(sel[k], mask>>k&1 == 1).Not()
				}
				stitch.ProofAdd(cl, nil)
			}
		}
	}
	out.Result = sat.Result{Status: sat.Unsat, Stats: agg.snapshot().SAT}
	if o.Certify {
		stitched := stitch.Snapshot()
		if err := verify.CheckUnsatProof(f, stitched); err != nil {
			return CubeOutcome{}, ErrUncertified{"cube-stitch", err}
		}
		out.Certified = true
		out.Proof = stitched
	}
	return finish(), nil
}

// cubeWarmup runs a bounded HyQSAT hybrid warm-up on f restricted by the
// cube (formula plus cube unit clauses) and transfers the resulting QA
// belief into the CDCL worker as phase hints. When the warm-up itself
// stumbles on a model of f, the (verified) model is returned and wins the
// solve; a warm-up Unsat is ignored — its premise is the restricted
// formula's 3-CNF form, which the stitched proof cannot absorb, so the CDCL
// worker re-derives the refutation certifiably.
func cubeWarmup(ctx context.Context, f *cnf.Formula, cube Cube, o CubeOptions,
	solver *sat.Solver, trace obs.Tracer) (model []bool, qaReads, qaCalls int64) {
	g := f.Copy()
	for _, l := range cube {
		g.AddClause(cnf.Clause{l})
	}
	ho := hyqsat.HardwareOptions()
	ho.Seed = o.Seed
	ho.WarmupIterations = o.QAWarmup
	ho.CDCL.MaxConflicts = o.WarmupConflicts
	ho.WrapBackend = o.WrapBackend
	ho.Trace = trace
	h := hyqsat.New(g, ho)
	r := h.SolveContext(ctx)
	qaReads, qaCalls = r.Stats.QAReads, int64(r.Stats.QACalls)
	if r.Status == sat.Sat {
		m := r.Model
		if len(m) > f.NumVars {
			m = m[:f.NumVars]
		}
		if verify.CheckModel(f, m) == nil {
			return m, qaReads, qaCalls
		}
		return nil, qaReads, qaCalls
	}
	if r.Status == sat.Unknown && r.Err == nil {
		belief := h.Belief()
		if len(belief) > f.NumVars {
			belief = belief[:f.NumVars]
		}
		solver.SetPhaseHints(belief)
	}
	return nil, qaReads, qaCalls
}
