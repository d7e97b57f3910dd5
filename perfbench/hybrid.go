package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/verify"
)

// hybridWorkload is a serial closed loop of CLI-path hybrid solves of
// distinct uniform random 3-SAT instances. One verdict is parse →
// hyqsat.New (HardwareOptions, DRAT proof recorded) → Solve → certification
// by the benchmark: the model against the input formula, or the proof by
// RUP against the 3-CNF premise.
type hybridWorkload struct {
	name          string
	vars, clauses int
	expected      sat.Status
}

var (
	hybridSat   = hybridWorkload{"hybrid-sat", 150, 645, sat.Sat}
	hybridUnsat = hybridWorkload{"hybrid-unsat", 200, 860, sat.Unsat}
)

// setupVars/setupClauses size the warm-up solve that stands for set-up.
const setupVars, setupClauses = 60, 258

// errWrong marks a verdict the benchmark proved wrong; it aborts the run.
var errWrong = errors.New("wrong verdict")

// counts are the per-verdict counters that must repeat exactly at one seed.
type counts struct {
	Conflicts  int64 `json:"conflicts"`
	QPUCalls   int64 `json:"qpu_calls"`
	Warmup     int   `json:"warmup_iters"`
	ProofSteps int   `json:"proof_steps"`
}

// verdict is one timed solve.
type verdict struct {
	ok                               bool // certified and correct
	wall, parse, build, solve, check time.Duration
	memMB                            float64 // peak live heap during the verdict
	qpu                              qpuStats
	stats                            hyqsat.Stats
	proofSteps                       int
	counts                           counts
}

// instance returns the i-th input of a run at seed, with its DIMACS text.
func (w hybridWorkload) instance(seed int64, i int) (*gen.Instance, string) {
	s := seed*100_000 + int64(i)
	var inst *gen.Instance
	if w.expected == sat.Sat {
		inst = gen.SatisfiableRandom3SAT(w.vars, w.clauses, s)
	} else {
		inst = gen.UnsatisfiableRandom3SAT(w.vars, w.clauses, s)
	}
	return inst, cnf.DIMACSString(inst.Formula)
}

// solveOne runs and certifies one verdict. The error is non-nil only for a
// wrong verdict; an inconclusive or uncertified one returns ok=false.
func solveOne(text string, expected sat.Status, seed int64, spans *spanLog, tracer obs.Tracer, trace int64) (verdict, error) {
	var v verdict
	root := spans.newID()
	t0 := time.Now()
	f, err := cnf.ParseDIMACSString(text)
	t1 := time.Now()
	spans.add(trace, spans.newID(), root, "cnf.parse", t0, t1)
	v.parse = t1.Sub(t0)
	if err != nil {
		return v, fmt.Errorf("parse generated instance: %w", err)
	}

	opts := hyqsat.HardwareOptions()
	opts.Seed = seed
	rec := verify.NewRecorder()
	opts.Proof = rec
	opts.Trace = tracer
	solveSpan := spans.newID()
	timer := &qpuTimer{}
	opts.WrapBackend = func(b qpu.Backend) qpu.Backend {
		return timeBackend(b, timer, spans, trace, solveSpan)
	}
	s := hyqsat.New(f, opts)
	t2 := time.Now()
	spans.add(trace, spans.newID(), root, "hyqsat.new", t1, t2)
	r := s.Solve()
	t3 := time.Now()
	spans.add(trace, solveSpan, root, "hyqsat.solve", t2, t3)

	switch {
	case r.Status == sat.Unknown:
		// inconclusive: counted as failed
	case r.Status != expected:
		err = fmt.Errorf("%w: %v, generator says %v", errWrong, r.Status, expected)
	case r.Status == sat.Sat:
		if cerr := verify.CheckModel(f, r.Model); cerr != nil {
			err = fmt.Errorf("%w: model fails the input formula: %v", errWrong, cerr)
		} else {
			v.ok = true
		}
	default:
		v.ok = verify.CheckUnsatProof(s.ThreeCNF(), rec.Proof()) == nil
	}
	t4 := time.Now()
	spans.add(trace, spans.newID(), root, "verify.check", t3, t4)
	spans.add(trace, root, 0, "verdict", t0, t4)

	v.wall, v.build, v.check = t4.Sub(t0), t2.Sub(t1), t4.Sub(t3)
	v.qpu = timer.snapshot()
	v.stats = r.Stats
	v.counts = counts{Conflicts: r.Stats.SAT.Conflicts, QPUCalls: v.qpu.calls,
		Warmup: r.Stats.WarmupIterations, ProofSteps: rec.Len()}
	return v, err
}

// setup times five warm-up solves of one fixed small instance, measuring the
// host's speed with probe before each, and checks that they count exactly the
// same work.
func (w hybridWorkload) setup(probe *speedProbe) (float64, error) {
	const seed = 1
	inst := gen.SatisfiableRandom3SAT(setupVars, setupClauses, seed)
	text := cnf.DIMACSString(inst.Formula)
	var times []float64
	var first counts
	for k := 0; k < 5; k++ {
		quiesce(probe)
		v, err := solveOne(text, sat.Sat, seed, nil, nil, 0)
		if err != nil {
			return 0, err
		}
		if !v.ok {
			return 0, fmt.Errorf("set-up solve did not reach a certified verdict")
		}
		if k == 0 {
			first = v.counts
		} else if v.counts != first {
			return 0, fmt.Errorf("count drift in set-up solves: %+v then %+v", first, v.counts)
		}
		times = append(times, v.wall.Seconds())
	}
	return quantile(times, 0.5), nil
}

// hybridPass is what one pass over the instances measured.
type hybridPass struct {
	verdicts []verdict // certified ones
	counts   []counts  // every attempt, in order
	attempts int
	failed   int
	wall     time.Duration
	genTime  time.Duration
}

// pass solves instances in order, generating them into texts as needed,
// until budget of verdict wall time is spent; budget 0 solves exactly the
// instances already in texts. A non-nil probe measures the host's speed
// before every verdict, outside the verdicts' wall time.
func (w hybridWorkload) pass(seed int64, texts *[]string, budget time.Duration, spans *spanLog, tracer obs.Tracer, probe *speedProbe) (hybridPass, error) {
	var p hybridPass
	for i := 0; ; i++ {
		if budget > 0 && p.wall >= budget || budget == 0 && i == len(*texts) {
			return p, nil
		}
		if i == len(*texts) {
			t := time.Now()
			_, text := w.instance(seed, i)
			*texts = append(*texts, text)
			p.genTime += time.Since(t)
		}
		quiesce(probe)
		mem := startMemSampler()
		v, err := solveOne((*texts)[i], w.expected, seed+int64(i), spans, tracer, int64(i+1))
		v.memMB = mem.peakMB()
		if err != nil {
			return p, fmt.Errorf("instance %d: %w", i, err)
		}
		p.attempts++
		p.wall += v.wall
		p.counts = append(p.counts, v.counts)
		if !v.ok {
			p.failed++
			continue
		}
		p.verdicts = append(p.verdicts, v)
	}
}

func (w hybridWorkload) run(cfg config) (*report, error) {
	rep := newReport()
	setupProbe := newSpeedProbe()
	setup, err := w.setup(setupProbe)
	if err != nil {
		return nil, err
	}

	var texts []string
	budget := cfg.duration()
	if cfg.traced {
		budget /= 2
	}
	probe := newSpeedProbe()
	base, err := w.pass(cfg.seed, &texts, budget, nil, nil, probe)
	if err != nil {
		return nil, err
	}
	if len(base.verdicts) == 0 {
		return nil, fmt.Errorf("no certified verdict in the run")
	}
	f := probe.scale()
	rep.attempted, rep.failed = base.attempts, base.failed
	rep.setTime("setup_s", setup, setupProbe.scale())
	w.endToEnd(rep, base, f)
	rep.set("bench.probe_ms", probe.probeMs())
	rep.set("bench.gen_s", base.genTime.Seconds())
	if !cfg.traced {
		// Re-solve the first instance, after the measured window, and check
		// that it counts exactly the same work.
		first := texts[:1]
		again, err := w.pass(cfg.seed, &first, 0, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return rep, sameCounts(base.counts, again.counts)
	}

	// Traced pass: the same instances again, with the program's in-memory
	// tracer attached and the benchmark's spans recorded. Tracing must not
	// change the work: the exact counts must repeat instance by instance.
	spans := newSpanLog()
	ring := obs.NewRing(1 << 14)
	traced, err := w.pass(cfg.seed, &texts, 0, spans, ring, nil)
	if err != nil {
		return nil, err
	}
	if err := sameCounts(base.counts, traced.counts); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rep.attempted += traced.attempts
	rep.failed += traced.failed
	rep.set("obs.trace_overhead_frac", traced.wall.Seconds()/base.wall.Seconds()-1)
	w.perLayer(rep, traced, spans)
	rep.note("obs.events", float64(ring.Total()), "count")
	return rep, spans.writeFile(cfg.spanPath())
}

// quiesce runs before every timed verdict, outside its wall time. Each verdict
// starts on a collected heap, as in a fresh CLI process, and a non-nil probe
// then measures the host's speed while the process is quiet.
func quiesce(probe *speedProbe) {
	runtime.GC()
	if probe != nil {
		probe.measure(2)
	}
}

// sameCounts checks that a replay counted exactly the work of the first
// solves of the same instances.
func sameCounts(first, replay []counts) error {
	for i := 0; i < len(first) && i < len(replay); i++ {
		if first[i] != replay[i] {
			return fmt.Errorf("count drift at instance %d: first solve %+v, replay %+v", i, first[i], replay[i])
		}
	}
	return nil
}

// endToEnd sets the end-to-end metrics of a pass, with measured times
// scaled to the reference host's speed by f; modelled device time is already
// in reference units.
func (w hybridWorkload) endToEnd(rep *report, p hybridPass, f float64) {
	n := float64(len(p.verdicts))
	var walls, composed, mem []float64
	var device time.Duration
	var calls []time.Duration
	for _, v := range p.verdicts {
		walls = append(walls, ms(v.wall))
		composed = append(composed, ms(v.wall-v.qpu.busy)*f+ms(v.stats.QADevice))
		device += v.stats.QADevice
		calls = append(calls, v.qpu.durs...)
		mem = append(mem, v.memMB)
	}
	rep.setTime("wall_ms_p50", quantile(walls, 0.5), f)
	rep.set("hybrid_ms_p50", quantile(composed, 0.5))
	rep.setTime("verdicts_per_s", n/p.wall.Seconds(), 1/f)
	rep.note("qpu_ms_mean", durMean(calls), "ms")
	rep.set("mem_peak_mb", quantile(mem, 0.5))
	rep.set("qpu.device_ms", ms(device)/n)
	rep.note("verdicts", n, "count")
	rep.note("wall_ms_p90", quantile(walls, 0.9), "ms")
	rep.note("qpu_ms_p50", durQuantile(calls, 0.5), "ms")
	rep.note("qpu_ms_p99", durQuantile(calls, 0.99), "ms")
}

func (w hybridWorkload) perLayer(rep *report, p hybridPass, spans *spanLog) {
	n := float64(len(p.verdicts))
	var sum struct {
		parse, build, check, frontend, backend, cdcl, busy time.Duration
		warmup, useful, qaCalls, hits, misses, tmpl, fast  float64
		calls, errors, reads, conflicts, props, steps      float64
		degraded                                           float64
	}
	for _, v := range p.verdicts {
		st := v.stats
		sum.parse += v.parse
		sum.build += v.build
		sum.check += v.check
		sum.frontend += st.Frontend
		sum.backend += st.Backend
		sum.cdcl += st.CDCL
		sum.busy += v.qpu.busy
		sum.warmup += float64(st.WarmupIterations)
		sum.useful += float64(st.Strategy1Hits + st.Strategy2Hits + st.Strategy4Hits)
		sum.qaCalls += float64(st.QACalls)
		sum.hits += float64(st.EmbedCacheHits)
		sum.misses += float64(st.EmbedCacheMisses)
		sum.tmpl += float64(st.EmbedTemplateHits)
		sum.fast += float64(st.EmbedFastRuns)
		sum.calls += float64(v.qpu.calls)
		sum.errors += float64(v.qpu.errors)
		sum.reads += float64(st.QAReads)
		sum.conflicts += float64(st.SAT.Conflicts)
		sum.props += float64(st.SAT.Propagations)
		sum.steps += float64(v.counts.ProofSteps)
		sum.degraded += float64(st.QADegraded)
	}
	rep.set("cnf.parse_ms", ms(sum.parse)/n)
	rep.set("hyqsat.new_ms", ms(sum.build)/n)
	rep.set("hyqsat.frontend_ms", ms(sum.frontend)/n)
	rep.set("hyqsat.frontend_us_per_iter", ratio(us(sum.frontend), sum.warmup))
	rep.set("hyqsat.backend_ms", ms(sum.backend)/n)
	rep.set("hyqsat.warmup_iters", sum.warmup/n)
	rep.set("hyqsat.qa_useful_frac", ratio(sum.useful, sum.qaCalls))
	rep.set("hyqsat.degraded", sum.degraded)
	rep.set("embed.cache_hit_frac", ratio(sum.hits, sum.hits+sum.misses))
	rep.set("embed.template_frac", ratio(sum.tmpl, sum.misses))
	rep.set("embed.fast_runs", sum.fast/n)
	rep.set("qpu.calls", sum.calls/n)
	rep.set("qpu.submit_us_per_call", ratio(us(sum.busy), sum.calls))
	rep.set("qpu.errors", sum.errors)
	rep.set("anneal.reads", sum.reads/n)
	// qpu.Local runs every call as its own device program.
	rep.set("qbatch.members_per_program", 1)
	rep.set("qbatch.solo_frac", 1)
	rep.set("qbatch.device_saved_frac", 0)
	rep.set("sat.cdcl_ms", ms(sum.cdcl)/n)
	rep.set("sat.conflicts", sum.conflicts/n)
	rep.set("verify.check_ms", ms(sum.check)/n)
	rep.note("sat.propagations", sum.props/n, "count/verdict")
	rep.note("verify.proof_steps", sum.steps/n, "count/verdict")
	self, count := spans.selfTimes()
	for _, name := range []string{"verdict", "cnf.parse", "hyqsat.new", "hyqsat.solve", "qpu.submit", "verify.check"} {
		rep.note("span."+name+".self_ms", ms(self[name])/n, "ms/verdict")
		rep.note("span."+name+".count", float64(count[name]), "count")
	}
}
