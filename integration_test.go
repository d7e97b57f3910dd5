// Cross-module integration tests: every benchmark family solved end to end
// by all three solvers with agreeing results and verified models; DIMACS
// round-trips through the generator and the solver; the full hybrid pipeline
// (queue → encode → adjust → embed → anneal → classify → feedback) exercised
// on top of generated workloads.
package hyqsat_test

import (
	"context"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/gnb"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/portfolio"
	"hyqsat/internal/qubo"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
	"hyqsat/internal/verify"
)

// cheapFamilies lists the families fast enough for per-commit integration
// testing; the heavy AI/IF families are covered by the benchmarks.
var cheapFamilies = map[string]bool{
	"GC1: Flat150-360": true,
	"CFA":              true,
	"BP":               true,
	"II":               true,
	"CRY: Cmpadd":      true,
}

func TestAllSolversAgreeAcrossFamilies(t *testing.T) {
	for _, fam := range gen.Families() {
		if !cheapFamilies[fam.Name] {
			continue
		}
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			inst := fam.Make(0)
			f := inst.Formula

			// Every solve logs a proof so that UNSAT verdicts carry a
			// DRAT/RUP certificate checked below; the hybrid certifies
			// itself against its 3-CNF premise.
			miniRec, kisRec := verify.NewRecorder(), verify.NewRecorder()
			miniSolver := sat.New(f.Copy(), sat.MiniSATOptions())
			miniSolver.SetProofWriter(miniRec)
			mini := miniSolver.Solve()
			kisSolver := sat.New(f.Copy(), sat.KissatOptions())
			kisSolver.SetProofWriter(kisRec)
			kis := kisSolver.Solve()
			o := hyqsat.SimulatorOptions()
			o.Seed = 3
			o.SelfCertify = true
			hy := hyqsat.New(f.Copy(), o).Solve()

			if mini.Status != kis.Status || mini.Status != hy.Status {
				t.Fatalf("solver disagreement: mini=%v kis=%v hyqsat=%v",
					mini.Status, kis.Status, hy.Status)
			}
			if inst.Expected != sat.Unknown && mini.Status != inst.Expected {
				t.Fatalf("expected %v, got %v", inst.Expected, mini.Status)
			}
			if hy.Status != sat.Unknown {
				if hy.CertErr != nil || !hy.Certified {
					t.Fatalf("hyqsat verdict not self-certified: %v", hy.CertErr)
				}
			}
			switch mini.Status {
			case sat.Sat:
				for name, model := range map[string][]bool{
					"minisat": mini.Model, "kissat": kis.Model,
				} {
					if !cnf.FromBools(model).Satisfies(f) {
						t.Fatalf("%s model invalid", name)
					}
				}
				f3 := cnf.To3CNF(f)
				if !cnf.FromBools(hy.Model).Satisfies(f3) {
					t.Fatal("hyqsat model invalid")
				}
			case sat.Unsat:
				for name, rec := range map[string]*verify.Recorder{
					"minisat": miniRec, "kissat": kisRec,
				} {
					if err := verify.CheckUnsatProof(f, rec.Proof()); err != nil {
						t.Fatalf("%s UNSAT proof rejected: %v", name, err)
					}
				}
				// Certified cube-and-conquer over the same instance: the
				// verdict must match and carry a checked stitched proof. A
				// one-conflict probe keeps the split from being skipped.
				out, err := portfolio.SolveCubes(context.Background(), f.Copy(),
					portfolio.CubeOptions{Workers: 2, ProbeConflicts: 1, Certify: true, Seed: 7})
				if err != nil {
					t.Fatalf("certified cubes: %v", err)
				}
				if out.Result.Status != sat.Unsat || !out.Certified {
					t.Fatalf("certified cubes: status=%v certified=%v",
						out.Result.Status, out.Certified)
				}
			}
		})
	}
}

func TestDIMACSThroughGeneratorAndSolver(t *testing.T) {
	inst := gen.FlatGraphColoring(60, 140, 5)
	text := cnf.DIMACSString(inst.Formula)
	parsed, err := cnf.ParseDIMACSString(text)
	if err != nil {
		t.Fatal(err)
	}
	r1 := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve()
	r2 := sat.New(parsed, sat.MiniSATOptions()).Solve()
	if r1.Status != r2.Status {
		t.Fatalf("round trip changed status: %v vs %v", r1.Status, r2.Status)
	}
}

func TestFullPipelineManually(t *testing.T) {
	// Drive the frontend→QA→backend pipeline by hand on a generated
	// workload and check every interface contract along the way.
	inst := gen.SatisfiableRandom3SAT(60, 240, 9)
	f3 := cnf.To3CNF(inst.Formula)

	opts := sat.MiniSATOptions()
	s := sat.New(f3, opts)
	for i := 0; i < 5; i++ {
		if st := s.Step(); st != sat.StepContinue {
			t.Fatalf("unexpected early termination: %v", st)
		}
	}

	unsat := s.UnsatisfiedClauses(nil)
	if len(unsat) == 0 {
		t.Fatal("no unsatisfied clauses after 5 steps")
	}
	// The §IV-A activity queue over this unsatisfied set is checked in
	// internal/hyqsat (TestQueueFromCDCLUnsatSet); here the pipeline takes
	// the unsatisfied clauses in order.
	queue := unsat[:min(len(unsat), 200)]
	clauses := make([]cnf.Clause, len(queue))
	for i, ci := range queue {
		clauses[i] = f3.Clauses[ci]
	}

	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.DWave2000Q()
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses == 0 {
		t.Fatal("nothing embedded")
	}
	sub := enc.Restrict(res.EmbeddedSet)
	if err := embed.Verify(embed.ProblemFromEncoding(sub), g, res.Embedding); err != nil {
		t.Fatal(err)
	}
	var sums qubo.Sums
	is := sub.Program(&sums, true)
	if d := sums.DStar(); d <= 0 {
		t.Fatalf("normalizer %v", d)
	}
	ep := new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
	sample := anneal.NewSampler(anneal.LongSchedule(), anneal.NoNoise, 9).SampleOnce(ep)

	x := make([]bool, sub.NumNodes())
	for node, v := range sample.NodeValues {
		x[node] = v
	}
	energy := sub.UnitEnergy(x)
	if energy < 0 {
		t.Fatalf("negative unit energy %v", energy)
	}
	class := gnb.DefaultPartition().Classify(energy)
	t.Logf("embedded %d clauses, unit energy %.2f → %v", res.EmbeddedClauses, energy, class)

	// Feed the result back and finish the solve.
	s.SetPhaseHints(sub.AssignmentFromNodes(x, cnf.NewAssignment(f3.NumVars)))
	r := s.Solve()
	if r.Status != sat.Sat {
		t.Fatalf("status %v on a satisfiable instance", r.Status)
	}
	if !cnf.FromBools(r.Model).Satisfies(f3) {
		t.Fatal("final model invalid")
	}
}

func TestHybridSolvesEveryDomainRepresentative(t *testing.T) {
	// One small representative per domain, through the noisy hardware path.
	reps := []*gen.Instance{
		gen.FlatGraphColoring(45, 100, 2),
		gen.CircuitFaultAnalysis(15, 40, 2),
		gen.BlockPlanning(4, 3, 2),
		gen.InductiveInference(10, 3, 30, 2),
		gen.Factorization(10, 2),
		gen.CmpAdd(6, 2),
		gen.SatisfiableRandom3SAT(40, 168, 2),
	}
	for _, inst := range reps {
		o := hyqsat.HardwareOptions()
		o.Seed = 5
		r := hyqsat.New(inst.Formula.Copy(), o).Solve()
		if inst.Expected != sat.Unknown && r.Status != inst.Expected {
			t.Fatalf("%s: got %v want %v", inst.Name, r.Status, inst.Expected)
		}
		if r.Status == sat.Sat {
			f3 := cnf.To3CNF(inst.Formula)
			if !cnf.FromBools(r.Model).Satisfies(f3) {
				t.Fatalf("%s: invalid model", inst.Name)
			}
		}
	}
}
