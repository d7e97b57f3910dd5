package bench

import (
	"fmt"
	"math/rand"

	"hyqsat/internal/anneal"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/qubo"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// This file contains ablations of this implementation's own design choices —
// parameters the paper fixes implicitly (chain strength, annealing schedule)
// or that this reproduction had to pick (warm-up budget, queue length).
// They are not paper figures; they document the sensitivity of the
// reproduction.

// AblationChainStrength sweeps the ferromagnetic chain coupling multiplier
// and reports sample quality on a fixed embedded problem.
func AblationChainStrength(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "ablation-chain",
		Title:  "Chain strength vs sample quality (fixed embedded subproblem)",
		Header: []string{"Multiplier", "Mean unit energy", "Zero-energy %", "Broken chains/sample"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 200))
	inst := gen.SatisfiableRandom3SAT(30, 110, cfg.Seed+200)
	enc, err := qubo.Encode(inst.Formula.Clauses)
	if err != nil {
		rep.Note("encode failed: %v", err)
		return rep
	}
	g := topo.DWave2000Q()
	res := embed.Fast(enc, g)
	sub := enc.Restrict(res.EmbeddedSet)
	is := sub.Program(&qubo.Sums{}, true)
	base := anneal.ChainStrengthFor(is) / 1.25

	var sc anneal.EmbedScratch
	for _, mult := range []float64{0.5, 0.75, 1.0, 1.25, 1.75, 2.5} {
		ep := sc.EmbedIsing(is, res.Embedding, g, mult*base)
		sampler := anneal.NewSampler(anneal.LongSchedule(), anneal.DWave2000QNoise, rng.Int63())
		var total float64
		zero, broken := 0, 0
		n := cfg.Samples / 4
		if n < 10 {
			n = 10
		}
		for _, sm := range sampler.Sample(ep, n).Samples {
			x := make([]bool, sub.NumNodes())
			for node, v := range sm.NodeValues {
				x[node] = v
			}
			e := sub.UnitEnergy(x)
			total += e
			if e < 0.5 {
				zero++
			}
			broken += sm.BrokenChains
		}
		rep.Add(fmt.Sprintf("%.2fx", mult), total/float64(n),
			100*float64(zero)/float64(n), float64(broken)/float64(n))
	}
	rep.Note("weak chains sample lower energies in isolation (majority vote repairs breaks) but hybrid guidance measures better with intact chains; the default stays at the conventional 1.25x")
	return rep
}

// AblationSchedule sweeps the annealing sweep count: the trade between the
// modelled 130µs hardware sample and the software cost of simulating it.
func AblationSchedule(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "ablation-schedule",
		Title:  "Annealing schedule length vs sample quality",
		Header: []string{"Sweeps", "Mean unit energy", "Zero-energy %"},
	}
	inst := gen.SatisfiableRandom3SAT(30, 110, cfg.Seed+201)
	enc, err := qubo.Encode(inst.Formula.Clauses)
	if err != nil {
		rep.Note("encode failed: %v", err)
		return rep
	}
	g := topo.DWave2000Q()
	res := embed.Fast(enc, g)
	sub := enc.Restrict(res.EmbeddedSet)
	is := sub.Program(&qubo.Sums{}, true)
	ep := new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))

	for _, sweeps := range []int{8, 32, 64, 256, 1024} {
		sampler := anneal.NewSampler(anneal.Schedule{Sweeps: sweeps, BetaMin: 0.1, BetaMax: 32},
			anneal.DWave2000QNoise, cfg.Seed+202)
		var total float64
		zero := 0
		n := cfg.Samples / 4
		if n < 10 {
			n = 10
		}
		for _, sm := range sampler.Sample(ep, n).Samples {
			x := make([]bool, sub.NumNodes())
			for node, v := range sm.NodeValues {
				x[node] = v
			}
			e := sub.UnitEnergy(x)
			total += e
			if e < 0.5 {
				zero++
			}
		}
		rep.Add(sweeps, total/float64(n), 100*float64(zero)/float64(n))
	}
	rep.Note("short schedules emulate a fast, noisy anneal (the Table II regime); long schedules emulate the paper's noise-free simulator")
	return rep
}

// AblationWarmup sweeps the warm-up budget against the paper's √K choice.
func AblationWarmup(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "ablation-warmup",
		Title:  "Warm-up budget vs iteration reduction (uf200-860)",
		Header: []string{"Budget", "Mean reduction"},
	}
	n := cfg.ProblemsPerFamily
	type instRec struct {
		inst *gen.Instance
		base int64
	}
	var insts []instRec
	for i := 0; i < n; i++ {
		inst := gen.SatisfiableRandom3SAT(200, 860, cfg.Seed+int64(i)+210)
		rc := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
		insts = append(insts, instRec{inst, rc.Stats.Iterations})
	}
	sqrtK := hyqsat.New(insts[0].inst.Formula.Copy(), hyqsat.SimulatorOptions()).WarmupBudget()
	for _, budget := range []int{sqrtK / 4, sqrtK / 2, sqrtK, 2 * sqrtK, 4 * sqrtK} {
		var ratios []float64
		for i, rec := range insts {
			o := hyqsat.SimulatorOptions()
			o.Seed = cfg.Seed + int64(i)
			o.WarmupIterations = budget
			rh := hyqsat.New(rec.inst.Formula.Copy(), o).Solve()
			ratios = append(ratios, float64(rec.base)/float64(maxI64(rh.Stats.SAT.Iterations, 1)))
		}
		label := fmt.Sprintf("%d", budget)
		if budget == sqrtK {
			label += " (√K, paper)"
		}
		rep.Add(label, mean(ratios))
	}
	rep.Note("the paper observes that exceeding √K stops paying off (+20%% iterations on AI5 when everything runs hybrid)")
	return rep
}

// AblationCoefficientAdjust toggles the §IV-C coefficient adjustment inside
// the full hybrid loop (the paper only evaluates it in isolation, Fig 15).
func AblationCoefficientAdjust(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "ablation-adjust",
		Title:  "Coefficient adjustment on/off inside the hybrid loop (uf150-645)",
		Header: []string{"Setting", "Mean reduction"},
	}
	n := cfg.ProblemsPerFamily
	var base []int64
	var insts []*gen.Instance
	for i := 0; i < n; i++ {
		inst := gen.SatisfiableRandom3SAT(150, 645, cfg.Seed+int64(i)+220)
		rc := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
		insts = append(insts, inst)
		base = append(base, rc.Stats.Iterations)
	}
	for _, adjust := range []bool{false, true} {
		var ratios []float64
		for i, inst := range insts {
			o := hyqsat.HardwareOptions() // noise makes the adjustment matter
			o.Seed = cfg.Seed + int64(i)
			o.UniformCoefficients = !adjust
			rh := hyqsat.New(inst.Formula.Copy(), o).Solve()
			ratios = append(ratios, float64(base[i])/float64(maxI64(rh.Stats.SAT.Iterations, 1)))
		}
		label := "α=1 (prior work)"
		if adjust {
			label = "α=d*/d_ij (paper §IV-C)"
		}
		rep.Add(label, mean(ratios))
	}
	return rep
}
