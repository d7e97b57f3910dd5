package hyqsat

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gnb"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/qubo"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
	"hyqsat/internal/verify"
)

// StrategyMask selects which backend feedback strategies are active, for the
// Fig 10 ablation. Strategy 3 ("uncertain") performs no action and has no
// mask bit.
type StrategyMask uint8

// Feedback strategy bits.
const (
	Strategy1 StrategyMask = 1 << iota // all embedded & satisfiable → finish
	Strategy2                          // (near-)satisfiable → adopt QA assignment
	Strategy4                          // near-unsatisfiable → prioritise embedded vars
)

// AllStrategies enables every feedback strategy (the full HyQSAT).
const AllStrategies = Strategy1 | Strategy2 | Strategy4

// StrategyNone is an explicit empty mask for ablations: it disables every
// feedback strategy without being mistaken for "unset".
const StrategyNone StrategyMask = 1 << 7

// Options configures the hybrid solver. New completes the zero value with
// paper-faithful defaults: the zero Options is the paper's solver (activity
// queue, §IV-C coefficient adjustment, every feedback strategy) on the
// default schedule without device noise.
type Options struct {
	// Hardware is the QA topology; defaults to a D-Wave 2000Q Chimera built
	// once per process and shared by every defaulted solver. A faulted chip
	// is built with its broken qubits, topo.NewChimera(16, 16, 4, broken...).
	// Every clause queue embeds through the paper's Fast embedder: on a
	// topo.Chimera directly, on a topo.Pegasus onto its Chimera fabric
	// (Pegasus.Fabric), in both cases around the broken qubits. Any other
	// topology has no embedder, and every warm-up iteration runs pure CDCL.
	Hardware topo.Topology
	// Schedule and Noise configure the annealing substitute. The defaults
	// (DefaultSchedule, DWave2000QNoise) emulate the real device; use
	// LongSchedule + NoNoise for the paper's noise-free simulator.
	Schedule anneal.Schedule
	Noise    anneal.Noise
	// Timing is the modelled QA device timing (defaults to D-Wave 2000Q).
	Timing anneal.TimingModel
	// CDCL configures the classical solver; defaults to MiniSATOptions.
	CDCL sat.Options
	// SatPool, when non-nil, recycles the CDCL core's arena-backed state
	// across solver lifetimes: New draws from the pool instead of building a
	// cold sat.Solver, and Release returns it. Hot daemon paths solving a
	// job stream stop re-allocating watch lists, trails and clause arenas
	// per job. Pooled and fresh cores are bit-identical in behaviour.
	SatPool *sat.Pool
	// Strategies enables feedback strategies; defaults to AllStrategies.
	Strategies StrategyMask
	// RandomQueue replaces the §IV-A activity/BFS queue with the random
	// queue of the Fig 14 ablation.
	RandomQueue bool
	// UniformCoefficients skips the §IV-C noise optimisation (α = 1 for
	// every clause), for the coefficient ablation.
	UniformCoefficients bool
	// WarmupIterations fixes the hybrid warm-up length; 0 derives √K from
	// the problem size as the paper does.
	WarmupIterations int
	// QueueLimit bounds the clause queue length handed to the embedder
	// (default 300; the hardware capacity truncates it further).
	QueueLimit int
	// NumReads is the number of device reads per QA access (default 1, the
	// paper's single-sample mode). With more reads the backend classifies the
	// best-energy read, and modelled device time is charged per AccessTime —
	// programming once, then NumReads anneal+readout cycles.
	NumReads int
	// Seed drives all stochastic choices.
	Seed int64

	// Backend overrides the QPU access path entirely: QA submissions go to it
	// instead of the solver's own emulated sampler. Backends may time out,
	// fail, or return garbage — the hybrid loop validates every read set and
	// degrades the iteration to pure CDCL on any error, so a misbehaving
	// backend costs guidance, never correctness.
	Backend qpu.Backend
	// WrapBackend decorates the QPU access path (the solver's own Local
	// backend, or Backend when set): the hook through which cmd/hyqsat and
	// the chaos tests insert fault injection and the Resilient
	// retry/breaker layer. Nil leaves the backend undecorated.
	WrapBackend func(qpu.Backend) qpu.Backend

	// Proof, when non-nil, receives the CDCL core's clause trace in DRAT
	// form, each learnt clause with its LRAT-style hints (see
	// sat.ProofWriter). The proof's premise is the 3-CNF formula actually
	// solved (ThreeCNF), which is equisatisfiable with the input, and the
	// hints number its clauses from 1.
	Proof sat.ProofWriter
	// SelfCertify makes Solve check its own answer before returning it:
	// Sat models are re-evaluated against the 3-CNF formula and Unsat
	// verdicts are certified by recording a hinted DRAT proof and checking
	// it (verify.CheckUnsatProof).
	// The outcome lands in Result.Certified / Result.CertErr.
	SelfCertify bool

	// Trace, when non-nil and enabled, receives the structured solve-event
	// stream: conflicts and restarts from the CDCL core, per-read QA
	// sampling outcomes, embed and strategy events, and phase spans.
	// Implementations must be safe for concurrent use. Nil disables tracing
	// with zero overhead beyond a branch per emission site.
	Trace obs.Tracer
	// SolveID attributes every traced event of this solver to one logical
	// solve (the "solve" field of the JSONL envelope). Empty allocates a
	// fresh process-unique id via obs.NextSolveID. Callers running several
	// solvers inside one logical solve — the QA warm-ups of cube-and-conquer
	// — pass a shared id (or pre-scope Trace with obs.WithSource, whose
	// outer attribution wins over the solver's own).
	SolveID string
	// Metrics, when non-nil, is the registry the solver registers its
	// counters, gauges and histograms in (so several components can share
	// one registry behind one /metrics endpoint). Nil creates a private
	// registry, retrievable via Solver.Metrics().
	Metrics *obs.Registry
}

// defaultHardware is the D-Wave 2000Q graph every Options without Hardware
// shares.
var defaultHardware = sync.OnceValue(topo.DWave2000Q)

// WithDefaults returns o with every zero field the solver defaults filled
// in: the shared D-Wave 2000Q graph, schedule and timing, MiniSAT CDCL
// options, all strategies, a 300-clause queue and one read per access. New
// applies it; callers that must agree with a solver on those values (the
// solve service's sampler, batcher and quota charging) apply it themselves.
func (o Options) WithDefaults() Options {
	if o.Hardware == nil {
		o.Hardware = defaultHardware()
	}
	if o.Schedule.Sweeps == 0 {
		o.Schedule = anneal.DefaultSchedule()
	}
	if o.Timing == (anneal.TimingModel{}) {
		o.Timing = anneal.DWave2000QTiming()
	}
	if o.CDCL == (sat.Options{}) {
		o.CDCL = sat.MiniSATOptions()
	}
	if o.Strategies == 0 {
		o.Strategies = AllStrategies
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 300
	}
	if o.NumReads == 0 {
		o.NumReads = 1
	}
	return o
}

// SimulatorOptions returns the configuration of the paper's noise-free
// simulator runs (Table I): long annealing schedule, no noise.
func SimulatorOptions() Options {
	return Options{
		Schedule: anneal.LongSchedule(),
		Noise:    anneal.NoNoise,
	}.WithDefaults()
}

// HardwareOptions returns the configuration of the real-QA runs (Table II):
// fast schedule and device-like noise.
func HardwareOptions() Options {
	return Options{
		Schedule: anneal.DefaultSchedule(),
		Noise:    anneal.DWave2000QNoise,
	}.WithDefaults()
}

// Stats aggregates the hybrid solve counters and the Fig 11 time breakdown.
// It is a point-in-time view over the solver's metrics registry (every field
// is backed by a registry counter or phase-span total), kept as a plain
// struct for the bench harness and callers that predate the registry.
type Stats struct {
	SAT sat.Stats // underlying CDCL counters at termination

	WarmupIterations int // hybrid iterations executed
	QACalls          int
	QAReads          int64 // device reads drawn across all QA calls
	EmbeddedClauses  int64 // cumulative clauses accelerated on QA
	BrokenChains     int64

	// EmbedCacheMisses counts the frontend passes that reached embedding
	// (every warm-up iteration with an unsatisfied clause); each builds its
	// embedding afresh. EmbedCacheHits is always 0: the frontend keeps no
	// embedding cache. Both names stay for readers of the former counters.
	EmbedCacheHits   int
	EmbedCacheMisses int
	// EmbedTemplateHits is always 0: every embedding is a Fast embedder
	// run. The field stays for readers of the former clause-tile counter.
	EmbedTemplateHits int
	EmbedFastRuns     int // frontend passes served by a Fast embedder run

	Strategy1Hits int
	Strategy2Hits int
	Strategy3Hits int
	Strategy4Hits int

	// QA availability counters: QADegraded counts warm-up iterations that
	// fell back to pure CDCL because the backend failed (or the breaker was
	// open); QAInvalid counts read sets the boundary validation rejected.
	QADegraded int64
	QAInvalid  int64

	// Time breakdown (Fig 11): Frontend/Backend/CDCL are measured CPU time;
	// QADevice is the modelled annealer access time.
	Frontend time.Duration
	Backend  time.Duration
	CDCL     time.Duration
	QADevice time.Duration
}

// Total returns the modelled end-to-end time: CPU time plus QA device time.
func (s Stats) Total() time.Duration {
	return s.Frontend + s.Backend + s.CDCL + s.QADevice
}

// Result is the outcome of a hybrid solve. When Options.SelfCertify is set,
// Certified reports whether the conclusive verdict passed independent
// verification (model check for Sat, proof check for Unsat) and CertErr
// carries the failure otherwise. Without SelfCertify both stay zero.
type Result struct {
	Status    sat.Status
	Model     []bool
	Stats     Stats
	Certified bool
	CertErr   error
	// Err is set when the solve ended inconclusively for an external reason
	// (context cancellation or deadline); Status is Unknown then.
	Err error
}

// Solver is the HyQSAT hybrid solver for one formula.
type Solver struct {
	opts    Options
	rng     *rand.Rand
	formula *cnf.Formula // 3-CNF form actually solved
	sat     *sat.Solver
	varAdj  [][]int
	sampler *anneal.Sampler
	backend qpu.Backend

	// fabric is the Chimera grid Fast embeds onto: Options.Hardware itself,
	// or the fabric a Pegasus built with itself. nil when the topology has no
	// Fast embedder.
	fabric *topo.Chimera

	// Telemetry: every counter of the former Stats struct lives in the
	// registry now (Stats() reads them back); phase time accounting goes
	// through the span tracker, which also asserts span disjointness.
	reg    *obs.Registry
	trace  obs.Tracer // never nil; Nop when disabled
	phases *obs.PhaseTracker
	m      solverMetrics

	// belief accumulates the most recent QA value of every variable that
	// appeared in a (near-)satisfiable sample — the "maintained assignment"
	// of feedback strategy 2, reapplied as phases on every call.
	belief cnf.Assignment

	// recorder captures the CDCL proof trace when SelfCertify is on.
	recorder *verify.Recorder

	// Run-scoped scratch reused by every iteration, so that an iteration
	// allocates only the embedding it submits: the unsat-set scan and queue
	// generation; the encoding, Fast state and objective sums of the
	// embedding pass; and the unembedding and feedback buffers of the
	// backend. The embedded encoding and EmbeddedProblem themselves are
	// fresh per iteration and unreferenced once it ends: the sampler's
	// scratch keys its chain graph by problem pointer, and a problem handed
	// to a backend must stay immutable.
	unsat  []int
	queues queueGen
	front  frontendScratch
	reader sampleReader
	vars   []cnf.Var
	lits   []cnf.Lit
}

// frontendScratch is the working storage of encodeAndEmbed.
type frontendScratch struct {
	queue []cnf.Clause
	enc   qubo.Encoding
	fast  embed.FastScratch
	sums  qubo.Sums
	ising anneal.EmbedScratch
}

// Phase indices of the measured Fig 11 phases (QA device time is modelled,
// not measured, and charged to a plain counter instead of a span).
const (
	phaseFrontend = iota
	phaseBackend
	phaseCDCL
)

// solverMetrics holds the registry handles the hybrid loop updates. All
// updates are atomic, so a live introspection endpoint may read them while
// the solve runs.
type solverMetrics struct {
	warmup      *obs.Counter
	qaCalls     *obs.Counter
	qaReads     *obs.Counter
	embedded    *obs.Counter
	broken      *obs.Counter
	cacheHits   *obs.Counter // always 0: no embedding cache
	embedPasses *obs.Counter // frontend passes that reached embedding
	fastRuns    *obs.Counter // frontend passes served by a Fast embedder run
	strat       [4]*obs.Counter
	qaDeviceNs  *obs.Counter
	degraded    *obs.Counter // iterations that lost QA guidance to a backend fault
	invalid     *obs.Counter // read sets rejected by boundary validation

	iteration  *obs.Gauge // hybrid warm-up iterations so far
	queueDepth *obs.Gauge // clause-queue length of the latest frontend pass
	cdclIters  *obs.Gauge // live CDCL iteration count

	readEnergy *obs.Histogram // hardware energy per QA read
	chainBreak *obs.Histogram // broken-chain fraction per QA read
}

func newSolverMetrics(reg *obs.Registry) solverMetrics {
	m := solverMetrics{
		warmup:      reg.Counter("hyqsat_warmup_iterations"),
		qaCalls:     reg.Counter("hyqsat_qa_calls"),
		qaReads:     reg.Counter("hyqsat_qa_reads"),
		embedded:    reg.Counter("hyqsat_embedded_clauses"),
		broken:      reg.Counter("hyqsat_broken_chains"),
		cacheHits:   reg.Counter("hyqsat_embed_cache_hits"),
		embedPasses: reg.Counter("hyqsat_embed_cache_misses"),
		fastRuns:    reg.Counter("embed_fast_runs"),
		degraded:    reg.Counter("hyqsat_qa_degraded"),
		invalid:     reg.Counter("hyqsat_qa_invalid_readsets"),
		qaDeviceNs:  reg.Counter("hyqsat_phase_qa_device_ns"),
		iteration:   reg.Gauge("hyqsat_iteration"),
		queueDepth:  reg.Gauge("hyqsat_queue_depth"),
		cdclIters:   reg.Gauge("hyqsat_cdcl_iterations"),
		// Energy buckets follow the gnb partition landmarks (0 / 4.5 / 8);
		// chain-break fraction is bucketed in tenths.
		readEnergy: reg.Histogram("hyqsat_qa_read_energy",
			[]float64{0, 1, 2, 4.5, 8, 16, 32, 64, 128}),
		chainBreak: reg.Histogram("hyqsat_chain_break_fraction",
			obs.LinearBuckets(0, 0.1, 11)),
	}
	for i := range m.strat {
		m.strat[i] = reg.Counter(fmt.Sprintf("hyqsat_strategy%d_hits", i+1))
	}
	return m
}

// New builds a hybrid solver. Formulas with clauses longer than three
// literals are converted to 3-CNF first (the extra variables stay internal;
// the model returned covers the original variables).
func New(f *cnf.Formula, opts Options) *Solver {
	opts = opts.WithDefaults()
	f3 := cnf.To3CNF(f)
	s := &Solver{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		formula: f3,
		varAdj:  cnf.VarAdjacency(f3),
		sampler: anneal.NewSampler(opts.Schedule, opts.Noise, opts.Seed^0x3c3c3c),
		belief:  cnf.NewAssignment(f3.NumVars),
	}
	if opts.SatPool != nil {
		s.sat = opts.SatPool.Get(f3, opts.CDCL)
	} else {
		s.sat = sat.New(f3, opts.CDCL)
	}

	s.fabric = embed.FastFabric(opts.Hardware)

	// Telemetry wiring: one registry and one tracer reach every layer of the
	// pipeline (CDCL core, sampler, hybrid loop). Tracing and metrics never
	// consume randomness or alter control flow, so solver output is
	// bit-identical with or without them.
	s.reg = opts.Metrics
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.trace = opts.Trace
	if s.trace == nil {
		s.trace = obs.Nop()
	}
	if s.trace.Enabled() {
		// Attribute the solver's event stream. When the caller pre-scoped
		// the tracer (a cube worker), the outer attribution wins and this
		// inner source only fills fields left empty.
		id := opts.SolveID
		if id == "" {
			id = obs.NextSolveID()
		}
		s.trace = obs.WithSource(s.trace, obs.Source{Solve: id, Name: "hyqsat"})
	}
	s.m = newSolverMetrics(s.reg)
	s.phases = obs.NewPhaseTracker(s.reg, s.trace, "hyqsat_", "frontend", "backend", "cdcl")
	s.sat.SetTracer(s.trace)
	s.sat.SetMetrics(sat.Metrics{
		ConflictDepth: s.reg.Histogram("hyqsat_conflict_depth",
			obs.ExpBuckets(1, 2, 10)),
		LearntLen: s.reg.Histogram("hyqsat_learnt_clause_len",
			obs.ExpBuckets(1, 2, 8)),
		Iterations: s.m.cdclIters,
	})
	s.sampler.Trace = s.trace
	s.sampler.Timing = opts.Timing

	// The QA access path: the caller's backend, or the solver's own sampler
	// behind the Local adapter, optionally decorated (fault injection,
	// Resilient retry/breaker) via WrapBackend.
	if opts.Backend != nil {
		s.backend = opts.Backend
	} else {
		s.backend = qpu.NewLocal(s.sampler)
	}
	if opts.WrapBackend != nil {
		s.backend = opts.WrapBackend(s.backend)
	}

	if opts.SelfCertify {
		s.recorder = verify.NewRecorder()
	}
	if w := verify.Tee(opts.Proof, proofWriterOrNil(s.recorder)); w != nil {
		s.sat.SetProofWriter(w)
	}
	return s
}

// proofWriterOrNil avoids the classic non-nil-interface-around-nil-pointer
// trap when the recorder is absent.
func proofWriterOrNil(r *verify.Recorder) sat.ProofWriter {
	if r == nil {
		return nil
	}
	return r
}

// WarmupBudget returns the number of hybrid iterations: √K with K the
// estimated classic-CDCL iteration count for the problem size (§III), unless
// overridden by Options.WarmupIterations.
func (s *Solver) WarmupBudget() int {
	if s.opts.WarmupIterations > 0 {
		return s.opts.WarmupIterations
	}
	n := float64(s.formula.NumVars)
	m := float64(len(s.formula.Clauses))
	k := n * m / 8
	w := int(math.Sqrt(k))
	if w < 4 {
		w = 4
	}
	if w > 2000 {
		w = 2000
	}
	return w
}

// Stats returns the hybrid counters accumulated so far, read back from the
// metrics registry (the struct is a view; the registry is the source of
// truth). Safe to call after Solve; during a solve, use LiveStatus or the
// registry directly (SAT sub-stats are not atomics).
func (s *Solver) Stats() Stats {
	return Stats{
		SAT:              s.sat.Stats(),
		WarmupIterations: int(s.m.warmup.Value()),
		QACalls:          int(s.m.qaCalls.Value()),
		QAReads:          s.m.qaReads.Value(),
		EmbeddedClauses:  s.m.embedded.Value(),
		BrokenChains:     s.m.broken.Value(),
		EmbedCacheHits:   int(s.m.cacheHits.Value()),
		EmbedCacheMisses: int(s.m.embedPasses.Value()),
		EmbedFastRuns:    int(s.m.fastRuns.Value()),
		Strategy1Hits:    int(s.m.strat[0].Value()),
		Strategy2Hits:    int(s.m.strat[1].Value()),
		Strategy3Hits:    int(s.m.strat[2].Value()),
		Strategy4Hits:    int(s.m.strat[3].Value()),
		QADegraded:       s.m.degraded.Value(),
		QAInvalid:        s.m.invalid.Value(),
		Frontend:         s.phases.Total(phaseFrontend),
		Backend:          s.phases.Total(phaseBackend),
		CDCL:             s.phases.Total(phaseCDCL),
		QADevice:         time.Duration(s.m.qaDeviceNs.Value()),
	}
}

// Metrics returns the solver's metrics registry — the live counters, gauges
// and histograms behind Stats, suitable for serving via obs.Handler.
func (s *Solver) Metrics() *obs.Registry { return s.reg }

// Release returns the CDCL core to the Options.SatPool it came from. The
// solver must be idle and is unusable afterwards; results already returned
// stay valid (models are freshly allocated per Sat outcome and never
// rewritten). No-op when the solver was built without a pool.
func (s *Solver) Release() {
	if s.opts.SatPool == nil || s.sat == nil {
		return
	}
	s.opts.SatPool.Put(s.sat)
	s.sat = nil
}

// PhaseOverlaps returns how many phase-span disjointness violations the
// tracker observed; a correct loop keeps this at zero (the Fig 11 phases
// then sum without double counting).
func (s *Solver) PhaseOverlaps() int64 { return s.phases.Overlaps() }

// LiveStatus is a race-safe snapshot of the in-flight solve for the
// /solve/status endpoint: it reads only atomics, so it may be called from a
// serving goroutine while Solve runs.
func (s *Solver) LiveStatus() map[string]any {
	return map[string]any{
		"iteration":        s.m.iteration.Value(),
		"warmup_budget":    s.WarmupBudget(),
		"queue_depth":      s.m.queueDepth.Value(),
		"cdcl_iterations":  s.m.cdclIters.Value(),
		"qa_calls":         s.m.qaCalls.Value(),
		"qa_reads":         s.m.qaReads.Value(),
		"qa_degraded":      s.m.degraded.Value(),
		"embedded_clauses": s.m.embedded.Value(),
		"strategy_hits": map[string]int64{
			"s1": s.m.strat[0].Value(),
			"s2": s.m.strat[1].Value(),
			"s3": s.m.strat[2].Value(),
			"s4": s.m.strat[3].Value(),
		},
		"phase_ns": map[string]int64{
			"frontend":  int64(s.phases.Total(phaseFrontend)),
			"backend":   int64(s.phases.Total(phaseBackend)),
			"cdcl":      int64(s.phases.Total(phaseCDCL)),
			"qa_device": s.m.qaDeviceNs.Value(),
		},
	}
}

// Belief returns a copy of the maintained QA assignment — the most recent
// QA value of every variable that appeared in a (near-)satisfiable sample
// (feedback strategy 2's accumulated state). Variables the device never
// pronounced on are Undef. The cube-and-conquer warm-up hands this to the
// conquering CDCL solver as phase hints.
func (s *Solver) Belief() cnf.Assignment {
	return append(cnf.Assignment(nil), s.belief...)
}

// Solve runs the hybrid search to completion: √K warm-up iterations with QA
// guidance, then classic CDCL.
func (s *Solver) Solve() Result { return s.SolveContext(context.Background()) }

// SolveContext is Solve with cancellation: the context is checked between
// hybrid iterations and every 256 CDCL steps, and propagated into every
// QA backend submission (deadlines reach the retry/backoff layer). On
// cancellation the solve stops at the next boundary and returns Unknown with
// Result.Err set to the context's error; counters and phase accounting stay
// consistent, so partial stats remain reportable.
func (s *Solver) SolveContext(ctx context.Context) Result {
	warmup := s.WarmupBudget()
	for it := 0; it < warmup; it++ {
		if err := ctx.Err(); err != nil {
			return s.interrupted(err)
		}
		if done, res := s.hybridIteration(ctx); done {
			return res
		}
	}
	// Remaining iterations: classic CDCL, one span for the whole tail (the
	// sat.Metrics iteration gauge keeps live status fresh meanwhile), with
	// the context polled every 256 steps so cancellation latency stays
	// bounded without taxing the propagate loop.
	sp := s.phases.Start(phaseCDCL)
	for i := 0; ; i++ {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				sp.End()
				return s.interrupted(err)
			}
		}
		switch s.sat.Step() {
		case sat.StepSat:
			sp.End()
			return s.finish(sat.Sat, s.sat.Model())
		case sat.StepUnsat:
			sp.End()
			return s.finish(sat.Unsat, nil)
		case sat.StepBudget:
			sp.End()
			return s.finish(sat.Unknown, nil)
		}
	}
}

// interrupted finishes an externally-cancelled solve: Unknown, with the
// cause recorded and the usual stats snapshot attached.
func (s *Solver) interrupted(cause error) Result {
	r := s.finish(sat.Unknown, nil)
	r.Err = cause
	return r
}

func (s *Solver) finish(status sat.Status, model []bool) Result {
	st := s.Stats()
	r := Result{Status: status, Model: model, Stats: st}
	if s.opts.SelfCertify {
		switch status {
		case sat.Sat:
			r.CertErr = verify.CheckModel(s.formula, model)
		case sat.Unsat:
			r.CertErr = verify.CheckUnsatProof(s.formula, s.recorder.Proof())
		default:
			return r // nothing conclusive to certify
		}
		r.Certified = r.CertErr == nil
	}
	return r
}

// ThreeCNF returns the 3-CNF form the hybrid solver actually works on — the
// premise of any recorded proof. Its variables extend the input formula's
// (auxiliaries are appended), so models of it restrict to input models.
func (s *Solver) ThreeCNF() *cnf.Formula { return s.formula }

// hybridIteration runs one warm-up iteration: frontend → QA → backend →
// one CDCL step. It reports completion via done. A failed or invalid QA
// access degrades the iteration to pure CDCL (see degrade) instead of
// propagating the failure.
func (s *Solver) hybridIteration(ctx context.Context) (done bool, res Result) {
	s.m.warmup.Inc()
	iteration := s.m.warmup.Value()
	s.m.iteration.Set(iteration)

	// --- Frontend: clause queue → embedding → coefficients ---
	span := s.phases.Start(phaseFrontend)
	queueIdx := s.clauseQueue()
	if queueIdx == nil {
		// Current assignment satisfies everything the decision trail covers;
		// let CDCL finish (it will extend and terminate).
		span.End()
		return s.stepCDCL()
	}
	s.m.embedPasses.Inc()
	fe := s.encodeAndEmbed(queueIdx)
	if s.trace.Enabled() {
		ev := obs.EmbedEvent{
			Iteration:      iteration,
			QueueLen:       len(queueIdx),
			Embedded:       fe.embedded,
			HardwareQubits: s.opts.Hardware.NumQubits(),
		}
		if fe.ep != nil {
			ev.ActiveQubits = fe.ep.NumActiveQubits()
		}
		s.trace.Emit(ev)
	}
	if fe.embedded == 0 {
		span.End()
		return s.stepCDCL()
	}
	embEnc, ep := fe.embEnc, fe.ep
	s.m.embedded.Add(int64(fe.embedded))
	span.End()

	// --- QA: NumReads samples from one programmed problem; the backend
	// interprets the best-energy read; device time is modelled (charged to a
	// counter, not a measured span — the sampler emits the QACallEvent).
	// The access goes through the qpu.Backend, which may fail: submission
	// errors, open breakers and malformed read sets all degrade this
	// iteration to pure CDCL — the solve continues on classical search and
	// the next iteration tries the device again. ---
	// Cost-aware backends (the qbatch scheduler) report the pro-rata share
	// of the batched program that served this request; plain backends charge
	// the full modelled access time for the reads actually returned.
	var reads anneal.ReadSet
	var err error
	deviceShare := time.Duration(-1)
	if cb, ok := s.backend.(qpu.CostedBackend); ok {
		reads, deviceShare, err = cb.SubmitCosted(ctx, ep, s.opts.NumReads)
	} else {
		reads, err = s.backend.Submit(ctx, ep, s.opts.NumReads)
	}
	if err != nil {
		return s.degrade(iteration, err)
	}
	// Boundary validation: never classify a read set whose shape is wrong
	// (truncated samples, non-finite energies, readouts off the embedding).
	// The Resilient wrapper validates too, but the solver cannot assume the
	// configured backend did.
	if verr := anneal.ValidateReadSet(ep, &reads, s.opts.NumReads); verr != nil {
		s.m.invalid.Inc()
		return s.degrade(iteration, verr)
	}
	sample := reads.BestSample()
	s.m.qaCalls.Inc()
	s.m.qaReads.Add(int64(len(reads.Samples)))
	if deviceShare < 0 {
		deviceShare = s.opts.Timing.AccessTime(len(reads.Samples))
	}
	s.m.qaDeviceNs.Add(deviceShare.Nanoseconds())
	s.m.broken.Add(int64(sample.BrokenChains))
	for i := range reads.Samples {
		s.m.readEnergy.Observe(reads.Samples[i].HardwareEnergy)
		if chains := len(reads.Samples[i].NodeValues); chains > 0 {
			s.m.chainBreak.Observe(float64(reads.Samples[i].BrokenChains) / float64(chains))
		}
	}

	// --- Backend: interpret energy, apply a feedback strategy ---
	span = s.phases.Start(phaseBackend)
	energy, qaAssign := s.reader.interpret(embEnc, sample, s.formula.NumVars)
	class := gnb.DefaultPartition().Classify(energy)

	allEmbedded := fe.embedded == len(s.unsat)
	// emitStrategy records the Fig 9 outcome classification of this QA
	// access and which feedback strategy fired on it (0 = none/masked).
	emitStrategy := func(strategy int) {
		if s.trace.Enabled() {
			s.trace.Emit(obs.StrategyHitEvent{
				Iteration:   iteration,
				Class:       class.String(),
				Strategy:    strategy,
				Energy:      energy,
				AllEmbedded: allEmbedded,
			})
		}
	}
	switch {
	case class == gnb.Satisfiable && allEmbedded && s.opts.Strategies&Strategy1 != 0:
		// Strategy 1: candidate full solution. Verify before terminating —
		// clauses outside the unsat set are satisfied by the current trail,
		// which the QA assignment must not contradict.
		s.m.strat[0].Inc()
		emitStrategy(1)
		if model, ok := s.fullModel(qaAssign); ok {
			span.End()
			return true, s.finish(sat.Sat, model)
		}
		// Not a full model: still use it as guidance (strategy 2 behaviour).
		if s.opts.Strategies&Strategy2 != 0 {
			s.sat.SetPhaseHints(qaAssign)
		}
	case (class == gnb.Satisfiable || class == gnb.NearSatisfiable) &&
		s.opts.Strategies&Strategy2 != 0:
		// Strategy 2: adopt the QA assignment as the next search state
		// (Fig 9a): the embedded variables take their QA phases and are
		// decided next (highest-activity first), so the sub-solution is
		// tested as a unit instead of being rediscovered by search.
		s.m.strat[1].Inc()
		emitStrategy(2)
		for v, val := range qaAssign {
			if val != cnf.Undef {
				s.belief[v] = val
			}
		}
		s.sat.SetPhaseHints(s.belief)
		if energy < 1e-9 {
			// An exactly-satisfying core solution is worth testing as a
			// unit: decide its variables next, highest activity first.
			s.vars = embeddedVars(s.vars[:0], embEnc)
			slices.SortFunc(s.vars, func(a, b cnf.Var) int {
				if c := cmp.Compare(s.sat.VarActivity(b), s.sat.VarActivity(a)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			s.lits = s.lits[:0]
			for _, v := range s.vars {
				if qaAssign[v] != cnf.Undef {
					s.lits = append(s.lits, cnf.MkLit(v, qaAssign[v] == cnf.False))
				}
			}
			s.sat.ForceDecisions(s.lits)
		}
	case class == gnb.Uncertain:
		// Strategy 3: no usable signal.
		s.m.strat[2].Inc()
		emitStrategy(3)
	case class == gnb.NearUnsatisfiable && s.opts.Strategies&Strategy4 != 0:
		// Strategy 4: the embedded clauses conflict under any assignment —
		// decide their variables first to reach the conflict quickly.
		s.m.strat[3].Inc()
		emitStrategy(4)
		s.vars = embeddedVars(s.vars[:0], embEnc)
		slices.Sort(s.vars)
		s.sat.PrioritizeVars(s.vars)
	default:
		// The class's feedback strategy is disabled by the ablation mask;
		// still record the outcome so Fig 9 counts stay complete.
		emitStrategy(0)
	}
	span.End()

	return s.stepCDCL()
}

// embeddedVars appends the SAT variables of the embedded encoding to dst,
// in map order.
func embeddedVars(dst []cnf.Var, embEnc *qubo.Encoding) []cnf.Var {
	for v := range embEnc.VarNode {
		dst = append(dst, v)
	}
	return dst
}

// clauseQueue is the part of the frontend that precedes embedding: it scans
// the unsatisfied clauses and generates the clause queue, nil when no clause
// is unsatisfied. It allocates nothing in steady state; the queue it returns
// is scratch, valid until the next call.
func (s *Solver) clauseQueue() (queueIdx []int) {
	s.unsat = s.sat.UnsatisfiedClauses(s.unsat[:0])
	if len(s.unsat) == 0 {
		return nil
	}
	if s.opts.RandomQueue {
		queueIdx = RandomQueue(s.unsat, s.opts.QueueLimit, s.rng)
	} else {
		queueIdx = s.queues.generate(s.formula, s.varAdj, s.sat.ClauseScores(),
			s.unsat, topN, s.opts.QueueLimit, s.rng)
	}
	s.m.queueDepth.Set(int64(len(queueIdx)))
	return queueIdx
}

// sampleReader unembeds QA reads into buffers it keeps across reads.
type sampleReader struct {
	x  []bool
	qa cnf.Assignment
}

// interpret unembeds one (possibly corrupted) QA read: node values are
// mapped into the embedded encoding's node space and reduced to the unit
// energy and the partial assignment over the SAT variables, which is valid
// until the next call. Logical nodes outside the encoding's node range —
// which corrupted sample vectors can name — are dropped rather than indexed:
// unembedding must never panic or index out of range (fuzzed by
// FuzzUnembedCorrupt).
func (r *sampleReader) interpret(embEnc *qubo.Encoding, sample anneal.Sample, numVars int) (energy float64, qaAssign cnf.Assignment) {
	r.x = slices.Grow(r.x[:0], embEnc.NumNodes())[:embEnc.NumNodes()]
	clear(r.x)
	for node, v := range sample.NodeValues {
		if node >= 0 && node < len(r.x) {
			r.x[node] = v
		}
	}
	r.qa = slices.Grow(r.qa[:0], numVars)[:numVars]
	return embEnc.UnitEnergy(r.x), embEnc.AssignmentFromNodes(r.x, r.qa)
}

// frontendOutput is what one frontend pass hands to the QA access and the
// backend: the encoding restricted to the embedded clauses and the problem
// programmed from it. embedded == 0 marks a queue the embedder could not use
// at all (skip QA for it). Both pointers are fresh per pass and immutable.
type frontendOutput struct {
	embEnc   *qubo.Encoding
	ep       *anneal.EmbeddedProblem
	embedded int
}

// encodeAndEmbed runs the frontend pipeline for one clause queue: encode,
// the paper's Fast embedder on the solver's fabric, restriction to the
// embedded clauses, programming and EmbedIsing onto Options.Hardware. A
// result with embedded == 0 records an unusable queue (no embedder for the
// topology, encode failure or no embeddable clause).
//
// Only the structure of the queue is encoded up front; sub-clause objectives
// and their sum are built for Fast's embedded set. Everything else lives in
// run-scoped scratch, so a pass allocates only the output it returns.
func (s *Solver) encodeAndEmbed(queueIdx []int) frontendOutput {
	if s.fabric == nil {
		return frontendOutput{}
	}
	fs := &s.front
	fs.queue = fs.queue[:0]
	for _, ci := range queueIdx {
		fs.queue = append(fs.queue, s.formula.Clauses[ci])
	}
	if err := fs.enc.Reset(fs.queue); err != nil {
		// Defensive: 3-CNF conversion guarantees encodable clauses.
		return frontendOutput{}
	}
	s.m.fastRuns.Inc()
	fastRes := fs.fast.Fast(&fs.enc, s.fabric)
	if fastRes.EmbeddedClauses == 0 {
		return frontendOutput{}
	}
	embEnc := fs.enc.Restrict(fastRes.EmbeddedSet)
	ising := embEnc.Program(&fs.sums, !s.opts.UniformCoefficients)
	ep := fs.ising.EmbedIsing(ising, fastRes.Embedding, s.opts.Hardware, anneal.ChainStrengthFor(ising))
	return frontendOutput{embEnc: embEnc, ep: ep, embedded: fastRes.EmbeddedClauses}
}

// fullModel extends the QA assignment with the current trail and saved
// phases and verifies it against the whole formula.
func (s *Solver) fullModel(qa cnf.Assignment) ([]bool, bool) {
	model := make([]bool, s.formula.NumVars)
	for v := range model {
		switch {
		case qa[v] != cnf.Undef:
			model[v] = qa[v] == cnf.True
		case s.sat.VarValue(cnf.Var(v)) != cnf.Undef:
			model[v] = s.sat.VarValue(cnf.Var(v)) == cnf.True
		}
	}
	if cnf.FromBools(model).Satisfies(s.formula) {
		return model, true
	}
	return nil, false
}

// degrade falls the current warm-up iteration back to pure CDCL after a QA
// backend failure: the fault is counted and traced, no guidance is injected,
// and the classical search advances exactly as in a non-QA iteration. This
// is the architectural property the fault-tolerance layer leans on — CDCL
// absorbs arbitrary QA errors, so degraded solves stay correct (and stay
// certified when SelfCertify is on).
func (s *Solver) degrade(iteration int64, cause error) (bool, Result) {
	s.m.degraded.Inc()
	if s.trace.Enabled() {
		s.trace.Emit(obs.DegradeEvent{Iteration: iteration, Err: cause.Error()})
	}
	return s.stepCDCL()
}

// stepCDCL advances the classical search by one iteration.
func (s *Solver) stepCDCL() (bool, Result) {
	span := s.phases.Start(phaseCDCL)
	st := s.sat.Step()
	span.End()
	switch st {
	case sat.StepSat:
		return true, s.finish(sat.Sat, s.sat.Model())
	case sat.StepUnsat:
		return true, s.finish(sat.Unsat, nil)
	case sat.StepBudget:
		return true, s.finish(sat.Unknown, nil)
	}
	return false, Result{}
}
