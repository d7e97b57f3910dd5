package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/gnb"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/qubo"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// Fig1 reproduces Figure 1: end-to-end time to solve one 128-variable,
// 150-clause 3-SAT problem with (a) classic CDCL on the CPU, (b) a
// conventional all-clauses-on-QA approach (Minorminer embedding + 60
// samples), and (c) HyQSAT.
func Fig1(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "fig1",
		Title:  "End-to-end time for a 128-var/150-clause 3-SAT problem",
		Header: []string{"Approach", "Embed/prep", "QA access", "CPU solve", "Total"},
	}
	inst := gen.Fig1Instance(cfg.Seed + 1)
	g := topo.DWave2000Q()
	timing := anneal.DWave2000QTiming()

	// (a) Classic CDCL.
	start := time.Now()
	sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
	cdclTime := time.Since(start)
	rep.Add("CDCL (MiniSAT cfg)", "-", "-", cdclTime.String(), cdclTime.String())

	// At ratio 150/128 the instance is trivially satisfiable on any modern
	// CDCL; the crossover the paper shows appears on hard instances, so a
	// phase-transition companion (128 vars, 545 clauses) is reported too.
	hard := gen.SatisfiableRandom3SAT(128, 545, cfg.Seed+1)
	start = time.Now()
	sat.New(hard.Formula.Copy(), sat.MiniSATOptions()).Solve()
	hardCDCL := time.Since(start)
	rep.Add("CDCL (uf128-545)", "-", "-", hardCDCL.String(), hardCDCL.String())

	// (b) Conventional QA: embed everything with Minorminer, 60 samples.
	enc, err := qubo.Encode(inst.Formula.Clauses)
	if err == nil {
		start = time.Now()
		mm := &embed.Minorminer{Seed: cfg.Seed, MaxRounds: 64,
			Timeout: 3 * time.Duration(cfg.EmbedTimeoutSec) * time.Second}
		emb, mmErr := mm.Embed(embed.ProblemFromEncoding(enc), g)
		embedTime := time.Since(start)
		if mmErr != nil {
			rep.Add("QA-only (Minorminer)", embedTime.String(), "-", "-",
				"embedding failed: "+mmErr.Error())
		} else {
			access := timing.AccessTime(60)
			is := enc.Program(&qubo.Sums{}, true)
			ep := new(anneal.EmbedScratch).EmbedIsing(is, emb, g, anneal.ChainStrengthFor(is))
			sampler := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, cfg.Seed)
			reads := sampler.Sample(ep, 60) // one access, 60 parallel reads
			solved := 0
			for _, s := range reads.Samples {
				x := make([]bool, enc.NumNodes())
				for n, v := range s.NodeValues {
					x[n] = v
				}
				if enc.UnitEnergy(x) < 0.5 {
					solved++
				}
			}
			total := embedTime + access
			rep.Add("QA-only (Minorminer)", embedTime.String(), access.String(), "-", total.String())
			rep.Note("QA-only: %d/60 samples reached zero energy", solved)
		}
	}

	// (c) HyQSAT on both instances.
	o := hyqsat.HardwareOptions()
	o.Seed = cfg.Seed
	rh := hyqsat.New(inst.Formula.Copy(), o).Solve()
	st := rh.Stats
	rep.Add("HyQSAT", st.Frontend.String(), st.QADevice.String(),
		(st.Backend + st.CDCL).String(), st.Total().String())

	o2 := hyqsat.HardwareOptions()
	o2.Seed = cfg.Seed
	rh2 := hyqsat.New(hard.Formula.Copy(), o2).Solve()
	st2 := rh2.Stats
	rep.Add("HyQSAT (uf128-545)", st2.Frontend.String(), st2.QADevice.String(),
		(st2.Backend + st2.CDCL).String(), st2.Total().String())
	rep.Note("paper: CDCL ≈8000µs, QA-only ≈17.2s embed + 8380µs access, HyQSAT ≈4000µs with <16µs embed")
	rep.Note("the 128-var/150-clause instance (ratio 1.17) is trivial for this repo's CDCL; the uf128-545 rows show the regime the paper's comparison targets")
	return rep
}

// Fig5 reproduces Figure 5: the distribution of per-clause visits during the
// CDCL search over uf200-860 instances, split into propagation and
// conflict-resolution visits, bucketed into activity quintiles.
func Fig5(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "fig5",
		Title:  "Clause visit share by quintile (uf200-860), propagation vs conflict",
		Header: []string{"Quintile", "Prop %", "Conflict %", "Total %"},
	}
	n := cfg.ProblemsPerFamily
	propShare := make([]float64, 5)
	confShare := make([]float64, 5)
	for i := 0; i < n; i++ {
		inst := gen.SatisfiableRandom3SAT(200, 860, cfg.Seed+int64(i)+1)
		opts := sat.MiniSATOptions()
		opts.TrackVisits = true
		s := sat.New(inst.Formula.Copy(), opts)
		s.Solve()
		prop, conf := s.VisitCounts()
		type cv struct{ p, c int64 }
		visits := make([]cv, len(prop))
		var totP, totC int64
		for j := range prop {
			visits[j] = cv{prop[j], conf[j]}
			totP += prop[j]
			totC += conf[j]
		}
		sort.Slice(visits, func(a, b int) bool {
			return visits[a].p+visits[a].c > visits[b].p+visits[b].c
		})
		tot := float64(totP + totC)
		if tot == 0 {
			continue
		}
		for q := 0; q < 5; q++ {
			lo, hi := q*len(visits)/5, (q+1)*len(visits)/5
			var p, c int64
			for _, v := range visits[lo:hi] {
				p += v.p
				c += v.c
			}
			propShare[q] += 100 * float64(p) / tot / float64(n)
			confShare[q] += 100 * float64(c) / tot / float64(n)
		}
	}
	for q := 0; q < 5; q++ {
		rep.Add(fmt.Sprintf("top %d/5", q+1), propShare[q], confShare[q],
			propShare[q]+confShare[q])
	}
	rep.Note("paper: the top quintile accounts for 42%% of visits (33%% propagation + 9%% conflict)")
	return rep
}

// fig8Problem generates one random problem, labels it with the CDCL solver,
// embeds it fully (programming through sc), and returns its class label and
// sampled unit energy.
func fig8Sample(rng *rand.Rand, sampler *anneal.Sampler, sc *anneal.EmbedScratch, g *topo.Chimera, adjust bool) (isSat bool, energy float64, ok bool) {
	nv := 15 + rng.Intn(20)
	m := int(float64(nv) * (3.0 + 3.5*rng.Float64()))
	inst := gen.Random3SAT(nv, m, rng.Int63())
	r := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
	if r.Status == sat.Unknown {
		return false, 0, false
	}
	enc, err := qubo.Encode(inst.Formula.Clauses)
	if err != nil {
		return false, 0, false
	}
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses != len(inst.Formula.Clauses) {
		return false, 0, false // need the full problem on hardware
	}
	is := enc.Program(&qubo.Sums{}, adjust)
	ep := sc.EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
	s := sampler.SampleOnce(ep)
	x := make([]bool, enc.NumNodes())
	for n, v := range s.NodeValues {
		x[n] = v
	}
	return r.Status == sat.Sat, enc.UnitEnergy(x), true
}

// Fig8 reproduces Figure 8: the QA output-energy distributions of
// satisfiable and unsatisfiable problems, the Gaussian Naive Bayes fit, and
// the derived 90% confidence partition.
func Fig8(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "fig8",
		Title:  "QA energy distribution by satisfiability + GNB confidence partition",
		Header: []string{"Class", "Samples", "Mean E", "Std E"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	g := topo.DWave2000Q()
	sampler := anneal.NewSampler(anneal.Schedule{Sweeps: 256, BetaMin: 0.1, BetaMax: 32},
		anneal.DWave2000QNoise, cfg.Seed+80)
	var sc anneal.EmbedScratch
	var satE, unsatE []float64
	for len(satE) < cfg.Samples/2 || len(unsatE) < cfg.Samples/2 {
		isSat, e, ok := fig8Sample(rng, sampler, &sc, g, true)
		if !ok {
			continue
		}
		if isSat && len(satE) < cfg.Samples/2 {
			satE = append(satE, e)
		} else if !isSat && len(unsatE) < cfg.Samples/2 {
			unsatE = append(unsatE, e)
		}
	}
	model, err := gnb.Fit(satE, unsatE)
	if err != nil {
		rep.Note("fit failed: %v", err)
		return rep
	}
	rep.Add("satisfiable", len(satE), model.MeanSat, model.StdSat)
	rep.Add("unsatisfiable", len(unsatE), model.MeanUnsat, model.StdUnsat)
	p := model.Partition(0.9)
	rep.Note("90%% confidence partition: [0,0] sat, (0,%.2f] near-sat, (%.2f,%.2f] uncertain, (%.2f,∞) near-unsat",
		p.NearSatUpper, p.NearSatUpper, p.UncertainUpper, p.UncertainUpper)
	rep.Note("paper calibration: t1=4.5, t2=8")
	rep.Note("GNB accuracy on the labelled samples: %.2f%%", 100*model.Accuracy(satE, unsatE))
	return rep
}

// Fig10 reproduces Figure 10: the iteration-reduction ablation of the
// backend feedback strategies (1, 2, 4 — strategy 3 takes no action).
func Fig10(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "fig10",
		Title:  "Feedback-strategy ablation: iteration reduction vs classic CDCL",
		Header: []string{"Benchmark", "S1 only", "S2 only", "S4 only", "All"},
	}
	masks := []hyqsat.StrategyMask{
		hyqsat.Strategy1,
		hyqsat.Strategy2,
		hyqsat.Strategy4,
		hyqsat.AllStrategies,
	}
	// One job per (family, instance): the classical baseline plus one hybrid
	// run per strategy mask, fanned across the worker pool (per-instance
	// seeds keep the figure identical at any worker count).
	fams := gen.Families()
	counts := make([]int, len(fams))
	for f, fam := range fams {
		counts[f] = familyCount(cfg, fam)
	}
	jobs := flattenJobs(counts)
	type f10res struct {
		cdcl  int64
		iters []int64 // hybrid iterations per mask
	}
	results := make([]f10res, len(jobs))
	parallelFor(cfg.Workers, len(jobs), jobProgress(cfg.Metrics, "fig10", len(jobs), func(j int) {
		fam, i := fams[jobs[j].fam], jobs[j].inst
		inst := fam.Make(i)
		rc := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
		r := f10res{cdcl: rc.Stats.Iterations, iters: make([]int64, len(masks))}
		for mi, mask := range masks {
			o := hyqsat.SimulatorOptions()
			o.Seed = cfg.Seed + int64(i)
			o.Strategies = mask
			rh := hyqsat.New(inst.Formula.Copy(), o).Solve()
			r.iters[mi] = rh.Stats.SAT.Iterations
		}
		results[j] = r
	}))
	for f, fam := range fams {
		row := []interface{}{fam.Name}
		for mi := range masks {
			var ratios []float64
			for j, job := range jobs {
				if job.fam != f {
					continue
				}
				ratios = append(ratios,
					float64(results[j].cdcl)/float64(maxI64(results[j].iters[mi], 1)))
			}
			row = append(row, mean(ratios))
		}
		rep.Add(row...)
	}
	rep.Note("paper: every strategy contributes; strategy 4 dominates on the unsatisfiable CFA benchmark")
	return rep
}

// Fig11 reproduces Figure 11: the breakdown of HyQSAT execution time into
// frontend, QA device time, backend, and the remaining CDCL search.
func Fig11(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "fig11",
		Title:  "HyQSAT time breakdown (% of end-to-end time)",
		Header: []string{"Benchmark", "Frontend %", "QA %", "Backend %", "CDCL %"},
	}
	var fAll, qAll, bAll, cAll float64
	rows := 0
	for _, fam := range gen.Families() {
		n := familyCount(cfg, fam)
		var f, q, b, c float64
		for i := 0; i < n; i++ {
			inst := fam.Make(i)
			o := hyqsat.HardwareOptions()
			o.Seed = cfg.Seed + int64(i)
			rh := hyqsat.New(inst.Formula.Copy(), o).Solve()
			st := rh.Stats
			tot := float64(st.Total())
			if tot == 0 {
				continue
			}
			f += 100 * float64(st.Frontend) / tot
			q += 100 * float64(st.QADevice) / tot
			b += 100 * float64(st.Backend) / tot
			c += 100 * float64(st.CDCL) / tot
		}
		rep.Add(fam.Name, f/float64(n), q/float64(n), b/float64(n), c/float64(n))
		fAll += f / float64(n)
		qAll += q / float64(n)
		bAll += b / float64(n)
		cAll += c / float64(n)
		rows++
	}
	rep.Add("Average", fAll/float64(rows), qAll/float64(rows),
		bAll/float64(rows), cAll/float64(rows))
	rep.Note("paper: warm-up stage (frontend+QA+backend) ≈41%% of time; frontend alone 2.2%%")
	return rep
}
