package portfolio

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/sat"
	"hyqsat/internal/verify"
)

// TestCubesPartitionSearchSpace is the splitter's core property: the cube
// set must partition the assignment space — every total assignment is
// consistent with exactly one cube (all 2^d sign combinations over a fixed
// variable set give this by construction; the test checks the construction).
func TestCubesPartitionSearchSpace(t *testing.T) {
	inst := gen.SatisfiableRandom3SAT(50, 210, 4)
	// A probe budget of 1 keeps the instance unsolved so cubes are produced.
	cubes, probe := makeCubes(inst.Formula, 4, 1, nil, nil)
	if probe.Status != sat.Unknown {
		t.Fatalf("probe concluded %v; no cubes to test", probe.Status)
	}
	if len(cubes) != 16 {
		t.Fatalf("got %d cubes, want 16", len(cubes))
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		assign := make([]bool, inst.Formula.NumVars)
		for i := range assign {
			assign[i] = rng.Intn(2) == 1
		}
		consistent := 0
		for _, c := range cubes {
			ok := true
			for _, l := range c {
				if assign[l.Var()] == l.IsNeg() {
					ok = false
					break
				}
			}
			if ok {
				consistent++
			}
		}
		if consistent != 1 {
			t.Fatalf("trial %d: assignment consistent with %d cubes, want exactly 1", trial, consistent)
		}
	}
	// Pairwise disjoint follows from the count above, but check the literals
	// directly too: any two cubes differ in at least one variable's sign.
	for i := 0; i < len(cubes); i++ {
		for j := i + 1; j < len(cubes); j++ {
			differ := false
			for k := range cubes[i] {
				if cubes[i][k] == cubes[j][k].Not() {
					differ = true
					break
				}
			}
			if !differ {
				t.Fatalf("cubes %d and %d are not disjoint: %v %v", i, j, cubes[i], cubes[j])
			}
		}
	}
}

// TestCubeUnsatUnderEveryCube: an UNSAT instance stays UNSAT under every
// cube, and each refutation is flagged as assumption-dependent or global.
func TestCubeUnsatUnderEveryCube(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(26, 126, 8)
	cubes, probe := makeCubes(inst.Formula, 3, 1, nil, nil)
	if probe.Status != sat.Unknown {
		t.Fatalf("probe concluded %v; raise the instance size", probe.Status)
	}
	for i, c := range cubes {
		s := sat.New(inst.Formula.Copy(), sat.MiniSATOptions())
		if r := s.SolveWithAssumptions(c); r.Status != sat.Unsat {
			t.Fatalf("cube %d (%v): status %v, want Unsat", i, c, r.Status)
		}
	}
}

func TestCubeSolveSat(t *testing.T) {
	inst := gen.SatisfiableRandom3SAT(50, 210, 6)
	out, err := SolveCubes(context.Background(), inst.Formula,
		CubeOptions{Depth: 3, Workers: 2, ProbeConflicts: 1, Certify: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Sat || !out.Certified {
		t.Fatalf("status=%v certified=%v", out.Result.Status, out.Certified)
	}
	if err := verify.CheckModel(inst.Formula, out.Result.Model); err != nil {
		t.Fatalf("winning model invalid: %v", err)
	}
	if out.WinningCube < 0 || out.WinningCube >= out.Cubes {
		t.Fatalf("winning cube %d out of range (%d cubes)", out.WinningCube, out.Cubes)
	}
}

// TestCubeStitchedProofRoundTrip certifies an UNSAT cube solve, then pushes
// the stitched proof through the full serialization cycle: WriteDRAT →
// ParseDRAT → CheckUnsatProof against the original formula.
func TestCubeStitchedProofRoundTrip(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(26, 126, 15)
	out, err := SolveCubes(context.Background(), inst.Formula,
		CubeOptions{Depth: 3, Workers: 2, ProbeConflicts: 1, Certify: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Unsat || !out.Certified {
		t.Fatalf("status=%v certified=%v", out.Result.Status, out.Certified)
	}
	if out.Proof == nil {
		t.Fatal("certified UNSAT outcome carries no proof")
	}
	var buf bytes.Buffer
	if err := verify.WriteDRAT(&buf, out.Proof); err != nil {
		t.Fatal(err)
	}
	parsed, err := verify.ParseDRAT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckUnsatProof(inst.Formula, parsed); err != nil {
		t.Fatalf("round-tripped stitched proof rejected: %v", err)
	}
}

// TestCubeDeterminismSingleWorker: a fixed-seed one-worker cube solve
// conquers the cubes in queue order on one solver, so two runs must agree
// bit for bit: verdict, refuted count, aggregate stats and stitched proof.
func TestCubeDeterminismSingleWorker(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(26, 126, 18)
	run := func() CubeOutcome {
		o := CubeOptions{Depth: 3, Workers: 1, ProbeConflicts: 1, Certify: true, Seed: 11}
		out, err := SolveCubes(context.Background(), inst.Formula, o)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Result.Status != b.Result.Status || a.Refuted != b.Refuted {
		t.Fatalf("verdicts diverged: %v/%d vs %v/%d",
			a.Result.Status, a.Refuted, b.Result.Status, b.Refuted)
	}
	if a.Aggregate.SAT != b.Aggregate.SAT {
		t.Fatalf("stats diverged:\n  first:  %+v\n  second: %+v", a.Aggregate.SAT, b.Aggregate.SAT)
	}
	if !reflect.DeepEqual(a.Proof, b.Proof) {
		t.Fatal("stitched proofs diverged between identical runs")
	}
}

// TestCubeAgreesWithDirectSolve: on a random corpus the cube verdict matches
// a single MiniSAT solve of the same formula.
func TestCubeAgreesWithDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		inst := gen.Random3SAT(30, 126, rng.Int63())
		want := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve().Status
		out, err := SolveCubes(context.Background(), inst.Formula,
			CubeOptions{Depth: 3, Workers: 2, ProbeConflicts: 1, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Status != want {
			t.Fatalf("trial %d: cubes %v, direct %v", trial, out.Result.Status, want)
		}
	}
}

// TestCubeContextCancel: a cancelled context stops the conquer phase before
// any cube is solved, and the run reports the context's error.
func TestCubeContextCancel(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(200, 860, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := SolveCubes(ctx, inst.Formula,
		CubeOptions{Depth: 3, Workers: 2, ProbeConflicts: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestCubeQAWarmup exercises the per-cube QA warm-up path: QA calls
// aggregated across cubes, belief fed back as phase hints, and the verdict
// still correct and certified.
func TestCubeQAWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("QA warm-up skipped in -short")
	}
	inst := gen.SatisfiableRandom3SAT(30, 126, 9)
	out, err := SolveCubes(context.Background(), inst.Formula,
		CubeOptions{Depth: 2, Workers: 2, ProbeConflicts: 1, Certify: true,
			Seed: 13, QAWarmup: 1, WarmupConflicts: 200})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Sat {
		t.Fatalf("status %v", out.Result.Status)
	}
	if out.Aggregate.QACalls == 0 {
		t.Fatal("warm-up ran but no QA calls aggregated")
	}
}

// TestCubeProbeShortCircuit: a generous probe budget solves easy instances
// outright — no cubes, conclusive result.
func TestCubeProbeShortCircuit(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	f.Add(-1)
	out, err := SolveCubes(context.Background(), f,
		CubeOptions{Depth: 3, Certify: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Sat || out.Cubes != 0 {
		t.Fatalf("status=%v cubes=%d", out.Result.Status, out.Cubes)
	}
}

func TestCubeAggregatesAllWorkers(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(26, 126, 22)
	ring := obs.NewRing(4096)
	out, err := SolveCubes(context.Background(), inst.Formula,
		CubeOptions{Depth: 3, Workers: 2, ProbeConflicts: 1, Seed: 17, Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Unsat {
		t.Fatalf("status %v", out.Result.Status)
	}
	if out.Aggregate.SAT.Conflicts == 0 {
		t.Fatal("no conflicts aggregated across workers")
	}
	// Every cube's conflicts, whichever worker solved it, land in the
	// aggregate (which also holds the probe's).
	var cubeConflicts int64
	for _, ev := range ring.Events() {
		if ce, ok := ev.E.(obs.CubeEvent); ok {
			cubeConflicts += ce.Conflicts
		}
	}
	if cubeConflicts == 0 {
		t.Fatal("no cube events recorded")
	}
	if out.Aggregate.SAT.Conflicts < cubeConflicts {
		t.Fatalf("aggregate conflicts %d < %d summed over cube events",
			out.Aggregate.SAT.Conflicts, cubeConflicts)
	}
}
