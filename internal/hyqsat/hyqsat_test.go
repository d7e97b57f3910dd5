package hyqsat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

func random3SAT(rng *rand.Rand, nVars, nClauses int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		perm := rng.Perm(nVars)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		f.AddClause(c)
	}
	return f
}

func bruteForce(f *cnf.Formula) bool {
	for mask := 0; mask < 1<<f.NumVars; mask++ {
		a := cnf.NewAssignment(f.NumVars)
		for i := 0; i < f.NumVars; i++ {
			a.Set(cnf.Var(i), mask&(1<<i) != 0)
		}
		if a.Satisfies(f) {
			return true
		}
	}
	return false
}

func simOpts(seed int64) Options {
	o := SimulatorOptions()
	o.Seed = seed
	return o
}

func TestHybridMatchesBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		nv := rng.Intn(8) + 3
		nc := rng.Intn(25) + 1
		f := random3SAT(rng, nv, nc)
		want := bruteForce(f)
		r := New(f, simOpts(int64(trial))).Solve()
		if r.Status == sat.Unknown {
			t.Fatalf("trial %d: Unknown", trial)
		}
		if (r.Status == sat.Sat) != want {
			t.Fatalf("trial %d: hybrid=%v brute=%v", trial, r.Status, want)
		}
		if r.Status == sat.Sat {
			model := cnf.FromBools(r.Model[:f.NumVars])
			if !model.Satisfies(f) {
				t.Fatalf("trial %d: invalid model", trial)
			}
		}
	}
}

func TestHybridMatchesCDCLMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		f := random3SAT(rng, 40, 170)
		want := sat.New(f.Copy(), sat.MiniSATOptions()).Solve().Status
		got := New(f, simOpts(int64(trial))).Solve()
		if got.Status != want {
			t.Fatalf("trial %d: hybrid=%v cdcl=%v", trial, got.Status, want)
		}
		if got.Status == sat.Sat && !cnf.FromBools(got.Model[:f.NumVars]).Satisfies(f) {
			t.Fatalf("trial %d: invalid model", trial)
		}
	}
}

func TestHybridUnsatisfiable(t *testing.T) {
	// x ∧ ¬x via 3-literal padding stays Unsat through the hybrid loop.
	f := cnf.New(3)
	f.Add(1, 2, 3)
	f.Add(1, 2, -3)
	f.Add(1, -2, 3)
	f.Add(1, -2, -3)
	f.Add(-1, 2, 3)
	f.Add(-1, 2, -3)
	f.Add(-1, -2, 3)
	f.Add(-1, -2, -3)
	r := New(f, simOpts(1)).Solve()
	if r.Status != sat.Unsat {
		t.Fatalf("status %v", r.Status)
	}
}

func TestHybridKSATInput(t *testing.T) {
	// Clauses longer than 3 are converted internally.
	f := cnf.New(6)
	f.Add(1, 2, 3, 4, 5, 6)
	f.Add(-1, -2)
	f.Add(-3)
	r := New(f, simOpts(2)).Solve()
	if r.Status != sat.Sat {
		t.Fatalf("status %v", r.Status)
	}
	if !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(&cnf.Formula{
		NumVars: 6, Clauses: f.Clauses[1:],
	}) {
		t.Fatal("model violates short clauses")
	}
	orig := cnf.To3CNF(f)
	if !cnf.FromBools(r.Model).Satisfies(orig) {
		t.Fatal("model violates 3-CNF conversion")
	}
}

func TestWarmupBudgetScaling(t *testing.T) {
	small := New(random3SAT(rand.New(rand.NewSource(1)), 20, 80), simOpts(1))
	large := New(random3SAT(rand.New(rand.NewSource(1)), 200, 860), simOpts(1))
	if small.WarmupBudget() >= large.WarmupBudget() {
		t.Fatalf("warm-up budget not increasing: %d vs %d",
			small.WarmupBudget(), large.WarmupBudget())
	}
	o := simOpts(1)
	o.WarmupIterations = 7
	fixed := New(random3SAT(rand.New(rand.NewSource(2)), 50, 210), o)
	if fixed.WarmupBudget() != 7 {
		t.Fatalf("override ignored: %d", fixed.WarmupBudget())
	}
}

func TestStrategyCountersAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var hits [4]int
	for trial := 0; trial < 6; trial++ {
		f := random3SAT(rng, 50, 213)
		r := New(f, simOpts(int64(trial))).Solve()
		hits[0] += r.Stats.Strategy1Hits
		hits[1] += r.Stats.Strategy2Hits
		hits[2] += r.Stats.Strategy3Hits
		hits[3] += r.Stats.Strategy4Hits
		if r.Stats.QACalls == 0 {
			t.Fatalf("trial %d: no QA calls during warm-up", trial)
		}
		if r.Stats.EmbeddedClauses == 0 {
			t.Fatalf("trial %d: nothing embedded", trial)
		}
	}
	if hits[1] == 0 {
		t.Fatalf("strategy 2 never used across trials: %v", hits)
	}
}

func TestStrategyMaskDisables(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := random3SAT(rng, 40, 170)
	o := simOpts(3)
	o.Strategies = StrategyNone
	r := New(f.Copy(), o).Solve()
	if r.Stats.Strategy1Hits+r.Stats.Strategy2Hits+r.Stats.Strategy4Hits > 0 {
		t.Fatal("disabled strategies still fired")
	}
	if r.Status == sat.Unknown {
		t.Fatal("solve did not finish")
	}
}

func TestRandomQueueModeSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := random3SAT(rng, 30, 126)
	o := simOpts(4)
	o.RandomQueue = true
	r := New(f.Copy(), o).Solve()
	want := sat.New(f, sat.MiniSATOptions()).Solve().Status
	if r.Status != want {
		t.Fatalf("random-queue hybrid %v, cdcl %v", r.Status, want)
	}
}

// TestZeroOptionsArePaperSolver pins the Options zero-value contract: with
// only the schedule and noise filled in, New runs exactly the paper's
// hardware-mode solver (activity queue, §IV-C coefficients, all strategies).
func TestZeroOptionsArePaperSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, seed := range []int64{1, 2, 3} {
		f := random3SAT(rng, 40, 170)
		hw := HardwareOptions()
		hw.Seed = seed
		want := New(f.Copy(), hw).Solve()
		got := New(f.Copy(), Options{Seed: seed, Schedule: anneal.DefaultSchedule(), Noise: anneal.DWave2000QNoise}).Solve()
		if got.Status != want.Status || !reflect.DeepEqual(got.Model, want.Model) {
			t.Fatalf("seed %d: zero Options %v, HardwareOptions %v", seed, got.Status, want.Status)
		}
		// Phase durations are wall-clock measurements; every counter must match.
		gs, ws := got.Stats, want.Stats
		gs.Frontend, gs.Backend, gs.CDCL = 0, 0, 0
		ws.Frontend, ws.Backend, ws.CDCL = 0, 0, 0
		if gs != ws {
			t.Fatalf("seed %d: stats differ:\nzero Options    %+v\nHardwareOptions %+v", seed, gs, ws)
		}
	}
}

func TestTimeBreakdownPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := random3SAT(rng, 50, 210)
	r := New(f, simOpts(5)).Solve()
	st := r.Stats
	if st.Frontend <= 0 || st.CDCL <= 0 {
		t.Fatalf("breakdown missing: %+v", st)
	}
	if st.QACalls > 0 && st.QADevice <= 0 {
		t.Fatal("QA device time not charged")
	}
	if st.Total() < st.Frontend+st.CDCL {
		t.Fatal("Total less than its parts")
	}
}

func TestHardwareOptionsNoiseToleratedOnSmallProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		f := random3SAT(rng, 12, 40)
		want := bruteForce(f)
		o := HardwareOptions()
		o.Seed = int64(trial)
		r := New(f, o).Solve()
		if (r.Status == sat.Sat) != want {
			t.Fatalf("trial %d: noisy hybrid=%v brute=%v", trial, r.Status, want)
		}
	}
}

func TestScalabilityLargerGridEmbedsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := random3SAT(rng, 100, 430)
	perCall := func(grid int) float64 {
		o := simOpts(6)
		o.Hardware = topo.NewChimera(grid, grid, 4)
		o.WarmupIterations = 10
		s := New(f.Copy(), o)
		s.Solve()
		st := s.Stats()
		if st.QACalls == 0 {
			return 0
		}
		return float64(st.EmbeddedClauses) / float64(st.QACalls)
	}
	small, big := perCall(16), perCall(32)
	if big <= small {
		t.Fatalf("32×32 grid embedded %.1f clauses/call vs %.1f on 16×16", big, small)
	}
}

func TestGenerateQueueProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	f := random3SAT(rng, 30, 120)
	adj := cnf.VarAdjacency(f)
	scores := make([]float64, 120)
	for i := range scores {
		scores[i] = float64(i % 17)
	}
	candidates := make([]int, 0, 60)
	for i := 0; i < 120; i += 2 {
		candidates = append(candidates, i)
	}
	q := new(queueGen).generate(f, adj, scores, candidates, 30, 40, rng)
	if len(q) == 0 || len(q) > 40 {
		t.Fatalf("queue length %d", len(q))
	}
	seen := map[int]bool{}
	inCand := map[int]bool{}
	for _, c := range candidates {
		inCand[c] = true
	}
	for _, ci := range q {
		if seen[ci] {
			t.Fatalf("duplicate clause %d in queue", ci)
		}
		seen[ci] = true
		if !inCand[ci] {
			t.Fatalf("non-candidate clause %d in queue", ci)
		}
	}
	// Locality: each queued clause after the head shares a variable with an
	// earlier one (BFS property), when the candidate graph is connected
	// enough. Verify the weaker invariant that holds always: every clause
	// except the head shares a variable with at least one other queue
	// member.
	for i := 1; i < len(q); i++ {
		shares := false
		for _, v := range f.Clauses[q[i]].Vars() {
			for j := 0; j < len(q); j++ {
				if j != i && slices.Contains(f.Clauses[q[j]].Vars(), v) {
					shares = true
				}
			}
		}
		if !shares {
			t.Fatalf("clause %d shares no variable with the queue", q[i])
		}
	}
}

func TestGenerateQueueHeadFromTopActivity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := random3SAT(rng, 20, 50)
	adj := cnf.VarAdjacency(f)
	scores := make([]float64, 50)
	scores[42] = 100 // single dominant clause
	candidates := make([]int, 50)
	for i := range candidates {
		candidates[i] = i
	}
	q := new(queueGen).generate(f, adj, scores, candidates, 1, 10, rng)
	if q[0] != 42 {
		t.Fatalf("head = %d, want the top-activity clause 42", q[0])
	}
}

// TestTopAtMatchesSelectionSort checks the queue head's pool against its
// defining selection sort, at every pool position, on scores with many ties
// and on candidate lists shorter than the pool.
func TestTopAtMatchesSelectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var g queueGen
	for trial := 0; trial < 300; trial++ {
		scores := make([]float64, 1+rng.Intn(200))
		levels := 1 + rng.Intn(40)
		for i := range scores {
			scores[i] = float64(rng.Intn(levels))
		}
		cands := rng.Perm(len(scores))[:1+rng.Intn(len(scores))]
		topN := min(1+rng.Intn(40), len(cands))
		want := slices.Clone(cands)
		for i := 0; i < topN; i++ {
			best := i
			for j := i + 1; j < len(want); j++ {
				if scores[want[j]] > scores[want[best]] {
					best = j
				}
			}
			want[i], want[best] = want[best], want[i]
		}
		for k := 0; k < topN; k++ {
			if got := g.topAt(slices.Clone(cands), scores, topN, k); got != want[k] {
				t.Fatalf("trial %d: position %d of the top %d holds %d, want %d", trial, k, topN, got, want[k])
			}
		}
	}
}

// TestQueueFromCDCLUnsatSet generates a §IV-A queue from a CDCL solver's
// real activity scores and unsatisfied set, as a hybrid iteration does:
// every queued clause is unsatisfied and queued once, the queue respects
// its limit, and the head scores among the top 30.
func TestQueueFromCDCLUnsatSet(t *testing.T) {
	f3 := cnf.To3CNF(gen.SatisfiableRandom3SAT(60, 240, 9).Formula)
	s := sat.New(f3, sat.MiniSATOptions())
	for i := 0; i < 5; i++ {
		if st := s.Step(); st != sat.StepContinue {
			t.Fatalf("unexpected early termination: %v", st)
		}
	}
	unsat := s.UnsatisfiedClauses(nil)
	if len(unsat) == 0 {
		t.Fatal("no unsatisfied clauses after 5 steps")
	}
	scores := s.ClauseScores()
	q := new(queueGen).generate(f3, cnf.VarAdjacency(f3), scores, unsat, 30, 200, rand.New(rand.NewSource(9)))
	if len(q) == 0 || len(q) > 200 {
		t.Fatalf("queue length %d, want 1..200", len(q))
	}
	seen := map[int]bool{}
	for _, ci := range q {
		if seen[ci] || !slices.Contains(unsat, ci) {
			t.Fatalf("clause %d queued twice or not unsatisfied", ci)
		}
		seen[ci] = true
	}
	byScore := make([]float64, len(unsat))
	for i, ci := range unsat {
		byScore[i] = scores[ci]
	}
	slices.Sort(byScore)
	if floor := byScore[max(0, len(byScore)-30)]; scores[q[0]] < floor {
		t.Fatalf("head score %v below the top-30 floor %v", scores[q[0]], floor)
	}
}

func TestGenerateQueueEmptyAndLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := random3SAT(rng, 10, 20)
	adj := cnf.VarAdjacency(f)
	scores := make([]float64, 20)
	if q := new(queueGen).generate(f, adj, scores, nil, 30, 10, rng); q != nil {
		t.Fatal("empty candidates should give nil queue")
	}
	if q := new(queueGen).generate(f, adj, scores, []int{3}, 30, 0, rng); q != nil {
		t.Fatal("zero limit should give nil queue")
	}
	q := new(queueGen).generate(f, adj, scores, []int{3}, 30, 10, rng)
	if len(q) != 1 || q[0] != 3 {
		t.Fatalf("singleton queue = %v", q)
	}
}

func TestRandomQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cand := []int{1, 2, 3, 4, 5, 6, 7, 8}
	q := RandomQueue(cand, 5, rng)
	if len(q) != 5 {
		t.Fatalf("len %d", len(q))
	}
	seen := map[int]bool{}
	for _, c := range q {
		if seen[c] {
			t.Fatal("duplicate in random queue")
		}
		seen[c] = true
	}
	// Original slice must not be mutated.
	for i, v := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		if cand[i] != v {
			t.Fatal("RandomQueue mutated input")
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	f := random3SAT(rand.New(rand.NewSource(22)), 40, 170)
	r1 := New(f.Copy(), simOpts(77)).Solve()
	r2 := New(f.Copy(), simOpts(77)).Solve()
	if r1.Status != r2.Status || r1.Stats.SAT.Iterations != r2.Stats.SAT.Iterations {
		t.Fatalf("non-deterministic: %v/%d vs %v/%d",
			r1.Status, r1.Stats.SAT.Iterations, r2.Status, r2.Stats.SAT.Iterations)
	}
}
