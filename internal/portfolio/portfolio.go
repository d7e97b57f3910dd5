// Package portfolio runs several solver configurations concurrently on the
// same formula and returns the first conclusive answer — the standard
// parallel-portfolio construction used by SAT competition solvers, here
// spanning both the classical CDCL configurations and the HyQSAT hybrid —
// extended with cooperative solving: a clause-sharing bus (share.go) that
// ships short/low-LBD learnt clauses between entrants, and a cube-and-conquer
// splitter (cube.go) that partitions an instance into assumption cubes solved
// across workers.
//
// Each entrant runs once, on its own copy of the formula in its own
// goroutine; the first Sat or Unsat result cancels the race context, which
// interrupts the others' solvers (sat.Solver.Interrupt). Results are always
// cross-checked: a Sat entrant must produce a verified model, and in
// certifying mode (RaceOptions.Certify) an Unsat entrant must additionally
// produce a DRAT proof that the internal/verify RUP checker accepts before
// its verdict is allowed to win the race. With sharing
// enabled, certification runs against a single shared additions-only proof
// log all sharing entrants append to (see verify.SharedRecorder), and every
// imported clause is re-asserted into that log by the importer — so a
// corrupted clause on the bus fails certification instead of poisoning it.
package portfolio

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/verify"
)

// RunInput is what an entrant's one run receives: the formula copy to solve
// and the race-level facilities the entrant should wire into its solver.
// Exchange (when non-nil) is the entrant's clause-sharing
// endpoint; SharedProof (when non-nil, certifying shared races only) is the
// group proof log the entrant must route its DRAT trace into if — and only
// if — it attaches the exchange. An entrant whose premise differs from the
// race formula (the hybrid on a non-3-CNF input) must leave both alone and
// certify privately.
type RunInput struct {
	Formula     *cnf.Formula
	Certify     bool
	Exchange    sat.ClauseExchange
	SharedProof sat.ProofWriter
	// Trace, when non-nil, is the entrant's pre-attributed tracer: the race
	// scopes it per entrant (solve id + entrant name), so the solver events
	// of concurrent entrants demultiplex in the recorded stream. Entrants
	// wire it into their solvers.
	Trace obs.Tracer
}

// RunOutput is the outcome of an entrant's run. Cert carries a private
// certificate (premise + recorded proof) backing an Unsat verdict; SharedCert
// instead marks the verdict as certified through the shared proof log, which
// the race snapshots and checks itself. QAReads/QACalls report
// quantum-backend work so the race can aggregate total effort across
// entrants.
type RunOutput struct {
	Result     sat.Result
	Cert       *verify.Certificate
	SharedCert bool
	QAReads    int64
	QACalls    int64
}

// Entrant is one competitor: a name and a Run function the race calls once,
// which solves until it reaches a verdict. The context carries the race's
// cancellation and any caller deadline; entrants wire it into their solvers
// (context.AfterFunc + sat.Solver.Interrupt, and the hybrid's QA backend
// honours it directly). The race waits for every entrant before it returns,
// so Run must return promptly once ctx is done. Returning Unknown while ctx
// is still live means the entrant gave up; the race counts that as a failed
// entrant.
type Entrant struct {
	Name string
	Run  func(ctx context.Context, in RunInput) RunOutput
}

// MiniSATEntrant is the VSIDS/Luby baseline.
func MiniSATEntrant(seed int64) Entrant {
	mk := func(f *cnf.Formula) (*sat.Solver, *cnf.Formula) {
		o := sat.MiniSATOptions()
		o.Seed = seed
		return sat.New(f, o), f
	}
	return cdclEntrant(fmt.Sprintf("minisat/s%d", seed), mk)
}

// KissatEntrant is the CHB/LBD baseline.
func KissatEntrant(seed int64) Entrant {
	mk := func(f *cnf.Formula) (*sat.Solver, *cnf.Formula) {
		o := sat.KissatOptions()
		o.Seed = seed
		return sat.New(f, o), f
	}
	return cdclEntrant(fmt.Sprintf("kissat/s%d", seed), mk)
}

// cdclEntrant wraps a classical solver constructor into the Run shape. The
// solver has no conflict budget: the race context interrupts it. Its premise
// is the race formula itself, so it always joins the sharing bus when
// offered.
func cdclEntrant(name string, mk func(*cnf.Formula) (*sat.Solver, *cnf.Formula)) Entrant {
	return Entrant{
		Name: name,
		Run: func(ctx context.Context, in RunInput) RunOutput {
			s, premise := mk(in.Formula)
			defer context.AfterFunc(ctx, s.Interrupt)()
			if in.Trace != nil && in.Trace.Enabled() {
				s.SetTracer(in.Trace)
			}
			if in.Exchange != nil {
				s.SetExchange(in.Exchange)
			}
			var rec *verify.Recorder
			switch {
			case !in.Certify:
			case in.SharedProof != nil:
				s.SetProofWriter(in.SharedProof)
			default:
				rec = verify.NewRecorder()
				s.SetProofWriter(rec)
			}
			r := s.Solve()
			out := RunOutput{Result: r, SharedCert: in.Certify && in.SharedProof != nil}
			if rec != nil {
				out.Cert = &verify.Certificate{Premise: premise, Proof: rec.Proof()}
			}
			return out
		},
	}
}

// HyQSATEntrant is the hybrid solver on the emulated annealer. Its
// certificate premise is the 3-CNF form the hybrid actually solves,
// equisatisfiable with the input formula. wrap (nil for none) is applied
// around the solver's Local backend, which is how a portfolio race runs the
// hybrid against a fault-injected or Resilient-wrapped QPU. The race context
// reaches the backend, so deadlines and cancellation propagate into
// retry/backoff.
//
// Sharing: the hybrid solves the 3-CNF conversion of the input, so it joins
// the bus only when the input already is 3-CNF (then the conversion copies
// the clause list verbatim and the premises coincide). On longer-clause
// inputs it races unshared and certifies against its own 3-CNF premise.
func HyQSATEntrant(seed int64, wrap func(qpu.Backend) qpu.Backend) Entrant {
	return Entrant{
		Name: fmt.Sprintf("hyqsat/s%d", seed),
		Run: func(ctx context.Context, in RunInput) RunOutput {
			o := hyqsat.HardwareOptions()
			o.Seed = seed
			o.WrapBackend = wrap
			o.Trace = in.Trace
			h := hyqsat.New(in.Formula, o)
			// Interrupt the embedded CDCL core on cancellation so the hybrid
			// loop reaches its own context check promptly.
			defer context.AfterFunc(ctx, h.SATSolver().Interrupt)()
			share := in.Exchange != nil && in.Formula.Is3CNF()
			if share {
				h.SATSolver().SetExchange(in.Exchange)
			}
			var rec *verify.Recorder
			switch {
			case !in.Certify:
			case share && in.SharedProof != nil:
				h.SetProofWriter(in.SharedProof)
			default:
				rec = verify.NewRecorder()
				h.SetProofWriter(rec)
			}
			r := h.SolveContext(ctx)
			model := r.Model
			if r.Status == sat.Sat && len(model) > in.Formula.NumVars {
				model = model[:in.Formula.NumVars]
			}
			out := RunOutput{
				Result:     sat.Result{Status: r.Status, Model: model, Stats: r.Stats.SAT},
				SharedCert: in.Certify && share && in.SharedProof != nil,
				QAReads:    r.Stats.QAReads,
				QACalls:    int64(r.Stats.QACalls),
			}
			if rec != nil {
				out.Cert = &verify.Certificate{Premise: h.ThreeCNF(), Proof: rec.Proof()}
			}
			return out
		},
	}
}

// DefaultEntrants returns a diverse three-way portfolio. wrap (nil for none)
// decorates the hybrid entrant's QA access path (fault injection,
// Resilient). The classical entrants are unaffected — which is the point:
// under a total QPU outage the portfolio still answers through them and
// through the hybrid's own pure-CDCL degradation.
func DefaultEntrants(seed int64, wrap func(qpu.Backend) qpu.Backend) []Entrant {
	return []Entrant{MiniSATEntrant(seed), KissatEntrant(seed + 1), HyQSATEntrant(seed+2, wrap)}
}

// AggregateStats sums the work of every solver a parallel solve ran — in a
// race the winner and every interrupted or failed loser, in a cube run the
// probe, every worker and every QA warm-up — so conflict counts and QA effort
// reflect the total cost of the solve, not just the winner's.
type AggregateStats struct {
	SAT     sat.Stats
	QAReads int64
	QACalls int64
}

func (a *AggregateStats) add(out RunOutput) {
	s, t := &a.SAT, out.Result.Stats
	s.Iterations += t.Iterations
	s.Decisions += t.Decisions
	s.Conflicts += t.Conflicts
	s.Propagations += t.Propagations
	s.Restarts += t.Restarts
	s.Learned += t.Learned
	s.Removed += t.Removed
	s.Minimized += t.Minimized
	s.ArenaGCs += t.ArenaGCs
	s.Imported += t.Imported
	if t.MaxTrail > s.MaxTrail {
		s.MaxTrail = t.MaxTrail
	}
	a.QAReads += out.QAReads
	a.QACalls += out.QACalls
}

// aggregate is the mutex-guarded accumulator the goroutines of a race or
// cube run report into.
type aggregate struct {
	mu sync.Mutex
	st AggregateStats
}

func (a *aggregate) add(out RunOutput) {
	a.mu.Lock()
	a.st.add(out)
	a.mu.Unlock()
}

func (a *aggregate) snapshot() AggregateStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

// Outcome is the portfolio result: the winning entrant, its result, and the
// race-wide work aggregate. Certified is set by certifying races once the
// winner's verdict passed independent verification. Share carries the bus
// counters when sharing was enabled (zero otherwise).
type Outcome struct {
	Winner    string
	Result    sat.Result
	Elapsed   time.Duration
	Certified bool
	Aggregate AggregateStats
	Share     ShareStats
}

// ErrInvalidModel is reported when a Sat entrant returned a non-model —
// a solver bug the portfolio refuses to propagate.
type ErrInvalidModel struct{ Entrant string }

func (e ErrInvalidModel) Error() string {
	return "portfolio: entrant " + e.Entrant + " returned an invalid model"
}

// ErrUncertified is reported when an entrant's conclusive verdict failed
// certification (an Unsat verdict whose proof the RUP checker rejects).
type ErrUncertified struct {
	Entrant string
	Reason  error
}

func (e ErrUncertified) Error() string {
	return fmt.Sprintf("portfolio: entrant %s verdict failed certification: %v", e.Entrant, e.Reason)
}

func (e ErrUncertified) Unwrap() error { return e.Reason }

// RaceOptions configures SolveWith.
type RaceOptions struct {
	// Certify makes an Unsat winner produce a DRAT proof accepted by the
	// RUP checker against the entrant's premise; without it Unsat verdicts
	// are trusted (Sat models are checked either way). Entrants that certify
	// neither privately nor through a shared log can win Sat races but have
	// their Unsat verdicts rejected.
	Certify bool
	// Trace, when non-nil and enabled, receives PortfolioEvents as the race
	// progresses: one "start" event per entrant, all emitted before any
	// entrant runs; one verdict event ("sat", "unsat" or "error") per entrant
	// that finished with one; and a "winner" event (plus one ShareEvent at
	// the end when sharing is on). Entrants interrupted by the race's end
	// emit nothing more. Emission happens from entrant goroutines, so the
	// tracer must be safe for concurrent use.
	Trace obs.Tracer
	// Share enables the clause-sharing bus between entrants.
	Share bool
	// Bus, when non-nil, is a pre-built bus the race joins instead of
	// building its own from Share — the hook through which tests inject
	// adversarial traffic and callers share one bus across races.
	Bus *Bus
	// Metrics, when non-nil, is the registry the bus counters register in.
	Metrics *obs.Registry
}

// SolveWith races the entrants on f until one returns a conclusive verified
// result, every entrant has failed, or the context is cancelled. Sat models
// are always checked; Unsat verdicts are checked when o.Certify is set.
func SolveWith(ctx context.Context, f *cnf.Formula, entrants []Entrant, o RaceOptions) (Outcome, error) {
	trace := o.Trace
	if trace == nil {
		trace = obs.Nop()
	}
	if len(entrants) == 0 {
		return Outcome{}, fmt.Errorf("portfolio: no entrants")
	}
	// One solve id covers the whole race; each entrant gets a tracer scoped
	// to (raceID, entrant name), so the interleaved streams of concurrent
	// entrants demultiplex offline. Race-level events (winner, share stats)
	// carry the id under the "race" source.
	var raceID string
	if trace.Enabled() {
		raceID = obs.NextSolveID()
	}
	raceTrace := obs.WithSource(trace, obs.Source{Solve: raceID, Name: "race"})
	start := time.Now()

	bus := o.Bus
	if bus == nil && o.Share {
		bus = NewBus(o.Metrics)
	}
	// One shared additions-only proof log for the whole sharing group: every
	// sharing entrant appends its DRAT trace here, so any entrant's Unsat
	// verdict is certifiable from a snapshot regardless of whose imports
	// contributed to it.
	var sharedProof *verify.SharedRecorder
	if bus != nil && o.Certify {
		sharedProof = verify.NewSharedRecorder()
	}
	agg := &aggregate{}

	type msg struct {
		name string
		res  sat.Result
		cert bool
		err  error
	}
	results := make(chan msg, len(entrants))
	ctx, cancel := context.WithCancel(ctx)
	// The race returns only after every entrant has: losers are interrupted
	// and joined, so none outlives the race and the aggregate taken after
	// the join holds every entrant's work.
	var running sync.WaitGroup
	defer running.Wait()
	defer cancel()

	for _, e := range entrants {
		e := e
		var peer *Peer
		if bus != nil {
			peer = bus.NewPeer(e.Name)
		}
		entTrace := obs.WithSource(trace, obs.Source{Solve: raceID, Name: e.Name})
		// Every entrant's start event is emitted here, before any entrant
		// runs, so it precedes the decision however fast the winner.
		if entTrace.Enabled() {
			entTrace.Emit(obs.PortfolioEvent{Entrant: e.Name, Status: "start"})
		}
		in := RunInput{Formula: f.Copy(), Certify: o.Certify, Trace: entTrace}
		if peer != nil {
			in.Exchange = peer
			if sharedProof != nil {
				in.SharedProof = sharedProof
			}
		}
		running.Add(1)
		go func() {
			defer running.Done()
			// report pairs the verdict message with its trace event.
			report := func(r sat.Result, status string, certified bool, err error) {
				if entTrace.Enabled() {
					ev := obs.PortfolioEvent{Entrant: e.Name, Status: status}
					if err != nil {
						ev.Err = err.Error()
					}
					entTrace.Emit(ev)
				}
				results <- msg{e.Name, r, certified, err}
			}
			out := e.Run(ctx, in)
			// Losers and failed entrants count too.
			agg.add(out)
			r := out.Result
			switch r.Status {
			case sat.Sat:
				if err := verify.CheckModel(f, r.Model); err != nil {
					report(r, "error", false, ErrInvalidModel{e.Name})
					return
				}
				report(r, "sat", o.Certify, nil)
			case sat.Unsat:
				if o.Certify {
					cert := out.Cert
					if cert == nil && out.SharedCert {
						// The verdict's proof lives in the shared log; the
						// snapshot already contains this entrant's empty
						// clause (solvers log before returning).
						cert = &verify.Certificate{Premise: f, Proof: sharedProof.Snapshot()}
					}
					if cert == nil {
						report(r, "error", false, ErrUncertified{e.Name,
							fmt.Errorf("no certificate produced")})
						return
					}
					if err := cert.CheckUnsat(); err != nil {
						report(r, "error", false, ErrUncertified{e.Name, err})
						return
					}
				}
				report(r, "unsat", o.Certify, nil)
			default:
				// Unknown once the race is over is the interrupt doing its
				// job; before that, the entrant gave up.
				if ctx.Err() == nil {
					report(r, "error", false,
						fmt.Errorf("portfolio: entrant %s gave up without a verdict", e.Name))
				}
			}
		}()
	}

	failures := 0
	for {
		select {
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		case m := <-results:
			if m.err != nil {
				failures++
				if failures == len(entrants) {
					return Outcome{}, m.err
				}
				continue
			}
			if raceTrace.Enabled() {
				raceTrace.Emit(obs.PortfolioEvent{Entrant: m.name, Status: "winner"})
			}
			out := Outcome{Winner: m.name, Result: m.res, Elapsed: time.Since(start),
				Certified: m.cert}
			cancel()
			running.Wait()
			out.Aggregate = agg.snapshot()
			if bus != nil {
				out.Share = bus.Stats()
				if raceTrace.Enabled() {
					raceTrace.Emit(obs.ShareEvent{
						Exported:   out.Share.Exported,
						Imported:   out.Share.Imported,
						Filtered:   out.Share.Filtered,
						Duplicates: out.Share.Duplicates,
						Dropped:    out.Share.Dropped,
					})
				}
			}
			return out, nil
		}
	}
}
