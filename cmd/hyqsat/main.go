// Command hyqsat solves a DIMACS CNF file with the HyQSAT hybrid solver or
// one of the classical CDCL baselines.
//
// Usage:
//
//	hyqsat [-solver=hyqsat|minisat|kissat] [-mode=sim|hw]
//	       [-topology=chimera|pegasus] [-seed N]
//	       [-reads N] [-stats] [-proof file.drat] [-verify]
//	       [-trace out.jsonl] [-metrics-addr host:port] [-flight-recorder N]
//	       [-max-conflicts N] [-timeout 30s] [-fault-profile flaky]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof] file.cnf
//
// With no file, the formula is read from stdin. Exit status follows the SAT
// competition convention: 10 satisfiable, 20 unsatisfiable, 1 error.
//
// -timeout bounds the wall-clock solve; when it expires (or on Ctrl-C) the
// solver stops at the next safe point and reports UNKNOWN, printing whatever
// partial statistics and flight-recorder tail it has. The context also
// reaches the QA backend, so an in-flight retry/backoff loop is abandoned
// rather than run to exhaustion.
//
// -fault-profile exercises the solver against a misbehaving QA backend: the
// emulated annealer is wrapped in a seeded fault injector (presets none,
// flaky, slow, corrupt, drift, outage — or a key=value list like
// "transient=0.3,latency=5ms"; see internal/qpu.ParseProfile) plus the
// Resilient reliability layer (retry with backoff, circuit breaker, panic
// recovery, read-set validation); the caller's deadline (-timeout) bounds
// every attempt. QA failures degrade iterations to pure CDCL; verdicts
// remain exact and -verify still certifies them.
//
// -proof streams a DRAT proof of the solver's clause derivations to a file;
// for an UNSAT run the file certifies the verdict (checkable by any DRAT
// checker, including internal/verify). The file is plain DRAT: the hints
// the solver logs with each learnt clause are not written. For
// -solver=hyqsat the proof premise is the 3-CNF form of the input
// (equisatisfiable; printed as a comment).
//
// -verify self-certifies the verdict in-process before reporting it: SAT
// models are checked against the formula and UNSAT proofs replayed through
// the proof checker, which walks the recorded hints; with -cube the stitched
// proof of the cube run is hinted too. A verdict that fails certification,
// or a -proof file that cannot be written in full, exits 1.
//
// -trace streams a structured JSONL event log of the solve (conflicts,
// restarts, QA calls with per-read energies, embeddings, strategy outcomes,
// phase spans); internal/obs.ReadTrace parses it back and PhaseBreakdown /
// OutcomeCounts reconstruct the paper's Fig 11 and Fig 9 views from it.
//
// -metrics-addr serves live introspection while the solve runs: /metrics
// (Prometheus text format), /debug/vars (expvar), /solve/status (JSON
// snapshot of the in-flight solve), /trace/flight (flight-recorder dump).
//
// -flight-recorder keeps the last N trace events in a ring buffer and dumps
// them to stderr when the solve ends without a model (UNSAT, budget
// exhaustion) or panics — the tail of the event stream that led to the bad
// end, without the cost of a full trace file.
//
// -cpuprofile / -memprofile write pprof profiles covering the solve (CPU
// profiling brackets it; the heap profile is snapshotted right after),
// inspectable with `go tool pprof`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/portfolio"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
	"hyqsat/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the CLI is testable
// end to end: flag parsing, solving, proof emission, and exit codes.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hyqsat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	solver := fs.String("solver", "hyqsat", "solver: hyqsat, minisat, or kissat")
	mode := fs.String("mode", "hw", "QA mode for hyqsat: sim (noise-free) or hw (emulated D-Wave 2000Q)")
	topology := fs.String("topology", "chimera", "QA hardware topology for hyqsat: chimera (D-Wave 2000Q) or pegasus (Pegasus(16); clauses embed on its Chimera fabric)")
	seed := fs.Int64("seed", 1, "random seed")
	stats := fs.Bool("stats", false, "print solver statistics")
	model := fs.Bool("model", true, "print the satisfying assignment")
	proofPath := fs.String("proof", "", "write a DRAT proof to this file")
	verifyFlag := fs.Bool("verify", false, "self-certify the verdict before reporting it")
	reads := fs.Int("reads", 0, fmt.Sprintf("QA reads per anneal access for hyqsat, at most %d (0 = 1; best-energy read is used)", qpu.MaxReads))
	tracePath := fs.String("trace", "", "write a JSONL event trace of the solve to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve live introspection (/metrics, /solve/status, ...) on this address")
	flightN := fs.Int("flight-recorder", 0, "keep the last N trace events; dump to stderr on UNSAT/UNKNOWN or panic")
	maxConflicts := fs.Int64("max-conflicts", 0, "CDCL conflict budget of a single solver (not -cube); report UNKNOWN once exhausted (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget; report UNKNOWN with partial stats once expired (0 = none)")
	faultProfile := fs.String("fault-profile", "", "inject QA faults: preset (none, flaky, slow, corrupt, drift, outage) or key=value list")
	cube := fs.Bool("cube", false, "solve by cube-and-conquer: split into assumption cubes conquered across -workers solvers")
	cubeDepth := fs.Int("cube-depth", 3, "cube-and-conquer split depth (2^depth cubes)")
	workers := fs.Int("workers", 0, "cube-and-conquer worker count (0 = GOMAXPROCS)")
	cubeWarmup := fs.Int("cube-warmup", 0, "QA warm-up iterations per cube before its CDCL solve (0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the solve to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the solve to this file")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "hyqsat:", err)
		return 1
	}
	// The cube workers run their solvers without a conflict budget; only the
	// context stops them.
	if *maxConflicts > 0 && *cube {
		return fail(fmt.Errorf("-max-conflicts applies to a single solver, not to -cube; use -timeout to bound a cube run"))
	}
	if *reads < 0 || *reads > qpu.MaxReads {
		return fail(fmt.Errorf("-reads %d outside [0, %d]", *reads, qpu.MaxReads))
	}
	switch *solver {
	case "hyqsat", "minisat", "kissat":
	default:
		return fail(fmt.Errorf("unknown solver %q", *solver))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "hyqsat: memprofile:", err)
			}
			f.Close()
		}()
	}

	// Telemetry plumbing: the JSONL sink (-trace) and the flight-recorder ring
	// (-flight-recorder) tee into one tracer; the registry backs /metrics and
	// the -stats summary. All of it stays disabled-by-default: without the
	// flags the solvers see the Nop tracer and pay only Enabled() branches.
	var sinks []obs.Tracer
	var sink *obs.JSONLSink
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		defer tf.Close()
		sink = obs.NewJSONLSink(tf)
		defer sink.Flush()
		sinks = append(sinks, sink)
	}
	var ring *obs.Ring
	if *flightN > 0 {
		ring = obs.NewRing(*flightN)
		sinks = append(sinks, ring)
	}
	reg := obs.NewRegistry()
	// The quality tracker rides the same event stream as the sinks: it
	// aggregates chain-break rates, energy gaps and strategy payoff live,
	// mirrored into the registry for /metrics and summarised on
	// /solve/status and in -stats.
	var quality *obs.QualityTracker
	if len(sinks) > 0 || *metricsAddr != "" {
		quality = obs.NewQualityTracker(reg)
		sinks = append(sinks, quality)
	}
	tracer := obs.Tee(sinks...)
	if tracer.Enabled() {
		// One solve id for the whole invocation: scoped nearest the sinks,
		// it wins over any inner attribution (cube run ids, solver sources),
		// so every event of this run shares one "solve" value while the inner
		// source names (cube workers, the QPU layer) survive.
		tracer = obs.WithSource(tracer, obs.Source{Solve: obs.NextSolveID()})
	}
	var statusVar obs.StatusVar
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Handler(reg, ring, &statusVar))
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		go func() {
			// A dead introspection endpoint mid-solve should be visible, not
			// silent: surface an abnormal serving-loop exit on stderr.
			if serr, ok := <-srv.Err(); ok && serr != nil {
				fmt.Fprintln(stderr, "hyqsat: metrics server died:", serr)
			}
		}()
		stopSampler := obs.StartRuntimeSampler(reg, 0)
		defer stopSampler()
		fmt.Fprintf(stderr, "c metrics listening on http://%s\n", srv.Addr)
	}
	dumpFlight := func(why string) {
		if ring == nil || ring.Len() == 0 {
			return
		}
		fmt.Fprintf(stderr, "c flight recorder (%s): last %d of %d events\n",
			why, ring.Len(), ring.Total())
		if err := ring.Dump(stderr); err != nil {
			fmt.Fprintln(stderr, "hyqsat: flight dump:", err)
		}
	}
	defer func() {
		if p := recover(); p != nil {
			dumpFlight("panic")
			panic(p)
		}
	}()

	// Solve context: the wall-clock budget (-timeout) and Ctrl-C both cancel
	// it; the hybrid polls it at safe points, CDCL solvers are interrupted
	// through it, and the QA backend honours it inside retry/backoff, so
	// interruption yields UNKNOWN plus partial telemetry rather than a killed
	// process.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// SIGTERM (the orchestrator's shutdown signal) gets the same graceful
	// treatment as Ctrl-C: cancel the solve, dump partial telemetry, exit
	// cleanly — not a killed process with a half-written trace.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctxWhy := func() string {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return "timeout"
		}
		return "interrupt"
	}

	// -fault-profile decorates the solver's QA access path: seeded fault
	// injection underneath, the Resilient reliability layer on top, both
	// reporting into the same tracer and registry as the rest of the solve.
	var wrapBackend func(qpu.Backend) qpu.Backend
	if *faultProfile != "" {
		prof, err := qpu.ParseProfile(*faultProfile)
		if err != nil {
			return fail(err)
		}
		qpuTrace := obs.WithSource(tracer, obs.Source{Name: "qpu"})
		wrapBackend = func(b qpu.Backend) qpu.Backend {
			fi := qpu.NewFaultInjector(b, prof, *seed)
			fi.Trace = qpuTrace
			return qpu.NewResilient(fi, qpu.Config{Seed: *seed, Trace: qpuTrace, Metrics: reg})
		}
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	formula, err := cnf.ParseDIMACS(in)
	if err != nil {
		return fail(err)
	}

	// Proof plumbing shared by the single-solver modes. The recorder backs
	// -verify (in-process hint walk); the text writer backs -proof and is
	// flushed and closed, errors checked, once the solve ends.
	var proofSinks []sat.ProofWriter
	var rec *verify.Recorder
	if *verifyFlag {
		rec = verify.NewRecorder()
		proofSinks = append(proofSinks, rec)
	}
	var pf *os.File
	var tw *verify.TextWriter
	if *proofPath != "" && !*cube {
		if pf, err = os.Create(*proofPath); err != nil {
			return fail(err)
		}
		defer pf.Close() // for the error returns; a second Close is harmless
		tw = verify.NewTextWriter(pf)
		proofSinks = append(proofSinks, tw)
	}
	hook := verify.Tee(proofSinks...)

	// certify replays the verdict through internal/verify against the
	// premise the proof was logged for.
	certify := func(premise *cnf.Formula, status sat.Status, m []bool) error {
		switch status {
		case sat.Sat:
			return verify.CheckModel(premise, m)
		case sat.Unsat:
			return verify.CheckUnsatProof(premise, rec.Proof())
		default:
			return nil
		}
	}

	var status sat.Status
	var assignment []bool
	if *cube {
		// Cube-and-conquer takes the place of -solver (still checked
		// above): the instance is split into assumption cubes conquered
		// across CDCL workers (optionally with QA warm-ups). An UNSAT run
		// stitches the probe's and the workers' hinted proofs into one,
		// written to -proof as DRAT and/or hint-walked in-process by -verify.
		co := portfolio.CubeOptions{
			Depth:       *cubeDepth,
			Workers:     *workers,
			Certify:     *verifyFlag || *proofPath != "",
			Seed:        *seed,
			Trace:       tracer,
			QAWarmup:    *cubeWarmup,
			WrapBackend: wrapBackend,
		}
		out, err := portfolio.SolveCubes(ctx, formula, co)
		switch {
		case err != nil && ctx.Err() != nil:
			fmt.Fprintln(stderr, "c interrupted:", ctx.Err())
			status = sat.Unknown
		case err != nil:
			return fail(err)
		default:
			status, assignment = out.Result.Status, out.Result.Model
			if *proofPath != "" && out.Proof.Len() > 0 {
				pf, err := os.Create(*proofPath)
				if err != nil {
					return fail(err)
				}
				if err := verify.WriteDRAT(pf, out.Proof); err != nil {
					pf.Close()
					return fail(err)
				}
				if err := pf.Close(); err != nil {
					return fail(err)
				}
			}
			if *stats {
				fmt.Fprintf(stdout, "c cubes=%d refuted=%d winner=%d workers=%d elapsed=%v\n",
					out.Cubes, out.Refuted, out.WinningCube, co.Workers, out.Elapsed)
				fmt.Fprintf(stdout, "c aggregate conflicts=%d propagations=%d qacalls=%d qareads=%d\n",
					out.Aggregate.SAT.Conflicts, out.Aggregate.SAT.Propagations,
					out.Aggregate.QACalls, out.Aggregate.QAReads)
				printQuality(stdout, quality)
			}
		}
	} else {
		switch *solver {
		case "minisat", "kissat":
			opts := sat.MiniSATOptions()
			if *solver == "kissat" {
				opts = sat.KissatOptions()
			}
			opts.MaxConflicts = *maxConflicts
			s := sat.New(formula, opts)
			s.SetTracer(obs.WithSource(tracer, obs.Source{Name: *solver}))
			iters := reg.Gauge("cdcl_iterations")
			s.SetMetrics(sat.Metrics{
				ConflictDepth: reg.Histogram("cdcl_conflict_depth", obs.ExpBuckets(1, 2, 10)),
				LearntLen:     reg.Histogram("cdcl_learnt_clause_len", obs.ExpBuckets(1, 2, 8)),
				Iterations:    iters,
			})
			statusVar.Set(func() map[string]any {
				return map[string]any{"solver": *solver, "iterations": iters.Value()}
			})
			if hook != nil {
				s.SetProofWriter(hook)
			}
			// -timeout and Ctrl-C interrupt the search. AfterFunc does so
			// from its own goroutine even when ctx is already done, so an
			// expired context also interrupts here, before the search starts.
			defer context.AfterFunc(ctx, s.Interrupt)()
			if ctx.Err() != nil {
				s.Interrupt()
			}
			r := s.Solve()
			if r.Status == sat.Unknown && ctx.Err() != nil {
				fmt.Fprintln(stderr, "c interrupted:", ctx.Err())
			}
			status, assignment = r.Status, r.Model
			if *verifyFlag {
				if err := certify(formula, status, assignment); err != nil {
					return fail(fmt.Errorf("verdict failed certification: %w", err))
				}
			}
			if *stats {
				fmt.Fprintf(stdout, "c iterations=%d decisions=%d conflicts=%d propagations=%d restarts=%d learned=%d\n",
					r.Stats.Iterations, r.Stats.Decisions, r.Stats.Conflicts,
					r.Stats.Propagations, r.Stats.Restarts, r.Stats.Learned)
			}
		case "hyqsat":
			opts := hyqsat.HardwareOptions()
			if *mode == "sim" {
				opts = hyqsat.SimulatorOptions()
			}
			hw, err := topo.New(*topology)
			if err != nil {
				return fail(err)
			}
			opts.Hardware = hw
			opts.Seed = *seed
			opts.Proof = hook
			opts.NumReads = *reads
			opts.Trace = tracer
			opts.Metrics = reg
			opts.CDCL.MaxConflicts = *maxConflicts
			opts.WrapBackend = wrapBackend
			h := hyqsat.New(formula, opts)
			statusVar.Set(func() map[string]any {
				st := h.LiveStatus()
				if quality != nil {
					st["quality"] = quality.StatusMap()
				}
				return st
			})
			r := h.SolveContext(ctx)
			if r.Err != nil {
				fmt.Fprintln(stderr, "c interrupted:", r.Err)
			}
			status, assignment = r.Status, r.Model
			if *verifyFlag {
				// The hybrid solves the 3-CNF form; proofs certify against it.
				if err := certify(h.ThreeCNF(), status, assignment); err != nil {
					return fail(fmt.Errorf("verdict failed certification: %w", err))
				}
			}
			if *proofPath != "" {
				fmt.Fprintln(stdout, "c proof premise is the 3-CNF form of the input")
			}
			if *stats {
				printHybridStats(stdout, r.Stats)
				printQuality(stdout, quality)
			}
		}
	}

	if tw != nil {
		if err := errors.Join(tw.Flush(), pf.Close()); err != nil {
			return fail(err)
		}
	}
	if *verifyFlag && status != sat.Unknown {
		fmt.Fprintln(stdout, "c verdict certified")
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			fmt.Fprintln(stderr, "hyqsat: trace:", err)
		}
	}

	switch status {
	case sat.Sat:
		fmt.Fprintln(stdout, "s SATISFIABLE")
		if *model {
			fmt.Fprint(stdout, "v")
			for i := 0; i < formula.NumVars && i < len(assignment); i++ {
				l := i + 1
				if !assignment[i] {
					l = -l
				}
				fmt.Fprintf(stdout, " %d", l)
			}
			fmt.Fprintln(stdout, " 0")
		}
		return 10
	case sat.Unsat:
		fmt.Fprintln(stdout, "s UNSATISFIABLE")
		dumpFlight("unsat")
		return 20
	default:
		fmt.Fprintln(stdout, "s UNKNOWN")
		why := "unknown"
		if ctx.Err() != nil {
			why = ctxWhy()
		}
		dumpFlight(why)
		return 0
	}
}

// printHybridStats renders the end-of-solve summary for the hybrid solver.
// Stats is a view over the solver's metrics registry, so every number here is
// also available live on /metrics during the solve; this is the human-facing
// rendering: counters first, then the Fig 11 phase breakdown with shares of
// the modelled end-to-end time.
func printHybridStats(w io.Writer, st hyqsat.Stats) {
	fmt.Fprintf(w, "c iterations=%d warmup=%d qacalls=%d reads=%d embedded=%d s1=%d s2=%d s3=%d s4=%d\n",
		st.SAT.Iterations, st.WarmupIterations, st.QACalls, st.QAReads, st.EmbeddedClauses,
		st.Strategy1Hits, st.Strategy2Hits, st.Strategy3Hits, st.Strategy4Hits)
	fmt.Fprintf(w, "c embed fast=%d\n", st.EmbedFastRuns)
	fmt.Fprintf(w, "c cdcl conflicts=%d restarts=%d learned=%d brokenchains=%d\n",
		st.SAT.Conflicts, st.SAT.Restarts, st.SAT.Learned, st.BrokenChains)
	total := st.Total()
	fmt.Fprintf(w, "c phase breakdown (total %v):\n", total)
	row := func(name string, d time.Duration, note string) {
		share := 0.0
		if total > 0 {
			share = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(w, "c   %-9s %12v %5.1f%%%s\n", name, d, share, note)
	}
	row("frontend", st.Frontend, "")
	row("qa-device", st.QADevice, "  (modelled)")
	row("backend", st.Backend, "")
	row("cdcl", st.CDCL, "")
}

// printQuality renders the QA-quality summary line when the live quality
// tracker was wired (any telemetry flag set) and saw QA traffic.
func printQuality(w io.Writer, quality *obs.QualityTracker) {
	if quality == nil {
		return
	}
	q := quality.Snapshot()
	if q.QACalls == 0 {
		return
	}
	fmt.Fprintf(w, "c quality qacalls=%d chainbreakrate=%.4f gapmean=%.3f degrades=%d payoff=%.3f/us\n",
		q.QACalls, q.ChainBreakRate, q.EnergyGap.Mean, q.Degrades, q.PayoffPerDeviceUs)
}
