package bench

import (
	"fmt"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// familyCount returns how many instances of a family to run under cfg.
func familyCount(cfg Config, fam gen.Family) int {
	n := cfg.ProblemsPerFamily
	if n > fam.PaperCount {
		n = fam.PaperCount
	}
	return n
}

// Table1 reproduces Table I: iteration counts of classic CDCL (MiniSAT
// configuration) vs HyQSAT on the noise-free simulator, with the
// avg/geomean/max/min per-instance reduction per family.
func Table1(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:    "table1",
		Title: "Iteration count, classic CDCL vs HyQSAT (noise-free simulator)",
		Header: []string{"Benchmark", "#Prob", "CDCL #It", "HyQSAT #It",
			"Avg red", "Geomean", "Max", "Min"},
	}
	fams := gen.Families()
	counts := make([]int, len(fams))
	for f, fam := range fams {
		counts[f] = familyCount(cfg, fam)
	}
	// Every (family, instance) run is independent and seeded per instance, so
	// the whole table fans out across the worker pool with unchanged rows.
	jobs := flattenJobs(counts)
	type t1res struct{ cdcl, hy int64 }
	results := make([]t1res, len(jobs))
	parallelFor(cfg.Workers, len(jobs), jobProgress(cfg.Metrics, "table1", len(jobs), func(j int) {
		fam, i := fams[jobs[j].fam], jobs[j].inst
		inst := fam.Make(i)
		rc := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
		o := hyqsat.SimulatorOptions()
		o.Seed = cfg.Seed + int64(i)
		rh := hyqsat.New(inst.Formula.Copy(), o).Solve()
		results[j] = t1res{rc.Stats.Iterations, rh.Stats.SAT.Iterations}
	}))
	var allRatios []float64
	for f, fam := range fams {
		n := counts[f]
		var cdclTotal, hyTotal int64
		var ratios []float64
		for j, job := range jobs {
			if job.fam != f {
				continue
			}
			r := results[j]
			cdclTotal += r.cdcl
			hyTotal += r.hy
			ratio := float64(r.cdcl) / float64(maxI64(r.hy, 1))
			ratios = append(ratios, ratio)
			allRatios = append(allRatios, ratio)
		}
		s := summarizeReductions(ratios)
		rep.Add(fam.Name, n, cdclTotal/int64(n), hyTotal/int64(n),
			s.Avg, s.Geomean, s.Max, s.Min)
	}
	s := summarizeReductions(allRatios)
	rep.Add("Average", "", "", "", s.Avg, s.Geomean, s.Max, s.Min)
	rep.Note("paper: 14.11 avg / 7.56 geomean / 53.47 max / 3.81 min over family aggregates")
	return rep
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Table2 reproduces Table II: end-to-end time of MiniSAT and KisSAT
// configurations on the host CPU vs HyQSAT (measured CPU + modelled D-Wave
// 2000Q device time), plus the iteration variance between noisy hardware and
// the noise-free simulator.
func Table2(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:    "table2",
		Title: "End-to-end time, CDCL on CPU vs HyQSAT on modelled D-Wave 2000Q",
		Header: []string{"Benchmark", "MiniSAT ms", "KisSAT ms", "HyQSAT ms",
			"Speedup(Mini)", "Speedup(Kis)", "#It variance"},
	}
	for _, fam := range gen.Families() {
		n := familyCount(cfg, fam)
		var miniMS, kisMS, hyMS float64
		var hwIters, simIters int64
		for i := 0; i < n; i++ {
			inst := fam.Make(i)

			start := time.Now()
			sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
			miniMS += float64(time.Since(start).Microseconds()) / 1e3

			start = time.Now()
			sat.New(inst.Formula.Copy(), sat.KissatOptions()).Solve()
			kisMS += float64(time.Since(start).Microseconds()) / 1e3

			oh := hyqsat.HardwareOptions()
			oh.Seed = cfg.Seed + int64(i)
			rh := hyqsat.New(inst.Formula.Copy(), oh).Solve()
			hyMS += float64(rh.Stats.Total().Microseconds()) / 1e3
			hwIters += rh.Stats.SAT.Iterations

			os := hyqsat.SimulatorOptions()
			os.Seed = cfg.Seed + int64(i)
			rs := hyqsat.New(inst.Formula.Copy(), os).Solve()
			simIters += rs.Stats.SAT.Iterations
		}
		variance := float64(hwIters) / float64(maxI64(simIters, 1))
		rep.Add(fam.Name,
			fmt.Sprintf("%.2f", miniMS/float64(n)),
			fmt.Sprintf("%.2f", kisMS/float64(n)),
			fmt.Sprintf("%.2f", hyMS/float64(n)),
			miniMS/hyMS, kisMS/hyMS, variance)
	}
	rep.Note("HyQSAT ms = measured frontend/backend/CDCL CPU time + modelled QA access time (130µs/sample)")
	rep.Note("paper: speedups 0.81–5.89× vs MiniSAT, 1.86–12.62× vs KisSAT; variance 0.49–5.46")
	return rep
}

// Table3 reproduces Table III: HyQSAT iteration reduction vs MiniSAT on
// Chimera grids of growing size, with 10% readout bit-flip noise on the
// simulator, for the AI families plus a 500-variable problem.
func Table3(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:     "table3",
		Title:  "Scalability: iteration reduction by Chimera grid size (10% bit-flip noise)",
		Header: []string{"Benchmark", "16x16", "24x24", "32x32", "64x64"},
	}
	grids := []int{16, 24, 32, 64}

	type bench struct {
		name string
		make func(i int) *gen.Instance
		n    int
	}
	benches := []bench{}
	for _, fam := range gen.Families() {
		if fam.Domain == "Artificial Intelligence" {
			f := fam
			benches = append(benches, bench{f.Name, f.Make, familyCount(cfg, f)})
		}
	}
	benches = append(benches, bench{
		// The paper's Var500 row; clause ratio lowered from the phase
		// transition so the classical baseline remains computable
		// (see DESIGN.md §5).
		name: "Var500",
		make: func(i int) *gen.Instance { return gen.SatisfiableRandom3SAT(500, 1750, int64(i)+1) },
		n:    1,
	})

	// One job per (benchmark, instance): the classical baseline plus all four
	// grid sizes. Jobs are independent and per-instance seeded, so the table
	// is identical at any worker count.
	counts := make([]int, len(benches))
	for bi, b := range benches {
		counts[bi] = b.n
	}
	jobs := flattenJobs(counts)
	type t3res struct {
		cdcl  int64
		iters []int64 // hybrid iterations per grid
	}
	results := make([]t3res, len(jobs))
	parallelFor(cfg.Workers, len(jobs), jobProgress(cfg.Metrics, "table3", len(jobs), func(j int) {
		b, i := benches[jobs[j].fam], jobs[j].inst
		inst := b.make(i)
		rc := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
		r := t3res{cdcl: rc.Stats.Iterations, iters: make([]int64, len(grids))}
		for gi, grid := range grids {
			o := hyqsat.SimulatorOptions()
			o.Seed = cfg.Seed + int64(i)
			o.Hardware = topo.NewChimera(grid, grid, 4)
			o.Noise = anneal.Noise{ReadoutFlipProb: 0.10}
			o.QueueLimit = 40 * grid // let bigger grids see longer queues
			rh := hyqsat.New(inst.Formula.Copy(), o).Solve()
			r.iters[gi] = rh.Stats.SAT.Iterations
		}
		results[j] = r
	}))
	for bi, b := range benches {
		row := []interface{}{b.name}
		for gi := range grids {
			var ratios []float64
			for j, job := range jobs {
				if job.fam != bi {
					continue
				}
				ratios = append(ratios,
					float64(results[j].cdcl)/float64(maxI64(results[j].iters[gi], 1)))
			}
			row = append(row, mean(ratios))
		}
		rep.Add(row...)
	}
	rep.Note("paper: AI rows 3.3–6.2 on 16×16, >340 on ≥24×24 grids; Var500 5.67 → 2.31e6")
	return rep
}
