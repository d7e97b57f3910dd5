// Production-checker tests that need proofs from the hybrid solver or the
// shared benchmark fixture, both of which sit above internal/verify in the
// dependency order.
package verify_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hyqsat/internal/bench"
	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/sat"
	"hyqsat/internal/verify"
)

// TestCheckUnsatProofMatchesReference pins the production checker to the
// original one: on the certification corpus's CDCL proofs, on hybrid-solver
// proofs, and on mutated copies of each, every worker count and chunk size
// must return the reference's verdict and error text and leave the proof
// untouched.
func TestCheckUnsatProofMatchesReference(t *testing.T) {
	instances, hybrids := 40, 3
	if testing.Short() {
		instances, hybrids = 10, 1
	}
	type input struct {
		name string
		f    *cnf.Formula
		p    verify.Proof
	}
	var inputs []input
	for i, f := range verify.CertCorpus(instances) {
		for _, c := range []struct {
			name string
			opts sat.Options
		}{{"minisat", sat.MiniSATOptions()}, {"kissat", sat.KissatOptions()}} {
			rec := verify.NewRecorder()
			s := sat.New(f.Copy(), c.opts)
			s.SetProofWriter(rec)
			if s.Solve().Status == sat.Unsat {
				inputs = append(inputs, input{fmt.Sprintf("corpus %d %s", i, c.name), f, rec.Proof()})
			}
		}
	}
	for i := 0; i < hybrids; i++ {
		inst := gen.UnsatisfiableRandom3SAT(60, 258, int64(i+1))
		opts := hyqsat.HardwareOptions()
		opts.Seed = int64(i + 1)
		rec := verify.NewRecorder()
		opts.Proof = rec
		s := hyqsat.New(inst.Formula, opts)
		if r := s.Solve(); r.Status != sat.Unsat {
			t.Fatalf("hybrid %d: status %v", i, r.Status)
		}
		inputs = append(inputs, input{fmt.Sprintf("hybrid uuf60 %d", i), s.ThreeCNF(), rec.Proof()})
	}
	rng := rand.New(rand.NewSource(19))
	checked, rejected := 0, 0
	for _, in := range inputs {
		if err := verify.CheckUnsatProof(in.f, in.p); err != nil {
			t.Fatalf("%s: valid proof rejected: %v", in.name, err)
		}
		proofs := []verify.Proof{in.p}
		for round := 0; round < 2; round++ {
			proofs = append(proofs, mutateProof(in.f, in.p, rng)...)
		}
		for j, p := range proofs {
			if err := referenceMismatch(in.f, p); err != nil {
				t.Fatalf("%s, variant %d (%d steps): %v", in.name, j, p.Len(), err)
			}
			checked++
			if verify.CheckUnsatProof(in.f, p) != nil {
				rejected++
			}
		}
	}
	if rejected == 0 || rejected == checked {
		t.Fatalf("one-sided comparison: %d of %d proofs rejected", rejected, checked)
	}
	t.Logf("%d proofs from %d inputs agree with the reference (%d rejected)", checked, len(inputs), rejected)
}

// TestCheckUnsatProofAllocs gates the checker's allocations: a one-worker
// check of the benchmark fixture allocates at most one object per four proof
// steps (the map- and string-keyed checker it replaced made ~18 per step
// on this proof).
func TestCheckUnsatProofAllocs(t *testing.T) {
	f, p := bench.BuildProofFixture()
	allocs := testing.AllocsPerRun(3, func() {
		if err := verify.CheckUnsatProofWith(f, p, 1, verify.ProofChunk); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(p.Len()) / 4; allocs > limit {
		t.Fatalf("one-worker check of a %d-step proof: %.0f allocs, want ≤ %.0f", p.Len(), allocs, limit)
	}
	t.Logf("%d steps: %.0f allocs", p.Len(), allocs)
}

// TestCheckHintedProofBytes gates the memory of a hinted check: checking
// the benchmark fixture by its hints, on one database without watch lists,
// allocates no more bytes than a one-worker RUP check of the same proof with
// its hints stripped.
func TestCheckHintedProofBytes(t *testing.T) {
	f, p := bench.BuildProofFixture()
	hinted := checkBytes(t, f, p)
	rup := checkBytes(t, f, stripHints(p))
	if hinted > rup {
		t.Fatalf("hinted check of a %d-step proof allocates %d bytes, the RUP check of it %d", p.Len(), hinted, rup)
	}
	t.Logf("%d steps: hinted check %d bytes, RUP check %d bytes", p.Len(), hinted, rup)
}

// checkBytes returns the fewest bytes a one-worker check of p allocated over
// three runs.
func checkBytes(t *testing.T, f *cnf.Formula, p verify.Proof) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := verify.CheckUnsatProofWith(f, p, 1, verify.ProofChunk); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRecorderBytesPerStep gates the Recorder's footprint: recording the
// benchmark fixture's hinted proof holds at most 72 bytes per step, the live
// heap the Recorder held per step of this proof when it kept a Step header
// and a literal slice per step and recorded no hints.
func TestRecorderBytesPerStep(t *testing.T) {
	f, _ := bench.BuildProofFixture()
	rec := verify.NewRecorder()
	s := sat.New(f.Copy(), sat.MiniSATOptions())
	s.SetProofWriter(rec)
	if s.Solve().Status != sat.Unsat {
		t.Fatal("fixture not unsatisfiable")
	}
	perStep := float64(verify.RecorderBytes(rec)) / float64(rec.Len())
	if perStep > 72 {
		t.Fatalf("recorder holds %.1f bytes per step over %d steps, want ≤ 72", perStep, rec.Len())
	}
	t.Logf("%d steps: %.1f bytes per step", rec.Len(), perStep)
}

// TestHybridProofHintsComplete pins hint emission on the hybrid solver's
// path: the proof of a uuf150 HardwareOptions solve must check with no lemma
// falling back from its hints to RUP, and check again with its hints
// stripped.
func TestHybridProofHintsComplete(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(150, 645, 1)
	opts := hyqsat.HardwareOptions()
	opts.Seed = 1
	rec := verify.NewRecorder()
	opts.Proof = rec
	s := hyqsat.New(inst.Formula, opts)
	if r := s.Solve(); r.Status != sat.Unsat {
		t.Fatalf("status %v", r.Status)
	}
	fallbacks, err := verify.HintFallbacks(s.ThreeCNF(), rec.Proof())
	if err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
	if fallbacks != 0 {
		t.Fatalf("%d of the proof's lemmas fell back from their hints to RUP", fallbacks)
	}
	if err := verify.CheckUnsatProof(s.ThreeCNF(), stripHints(rec.Proof())); err != nil {
		t.Fatalf("proof rejected with its hints stripped: %v", err)
	}
}

// BenchmarkCheckUnsatProof times CheckUnsatProof on the shared proof fixture;
// cmd/benchreport -suite cdcl records the same workload as CheckProof/uuf150.
func BenchmarkCheckUnsatProof(b *testing.B) {
	f, p := bench.BuildProofFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify.CheckUnsatProof(f, p); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceMismatch checks p against f with the reference checker, with
// CheckUnsatProof, and with CheckUnsatProofWith at 1, 2 and 3 workers and
// chunks of 1, 7 and ProofChunk additions, each on p as given and on p with
// its hints stripped. It describes the first run whose verdict or error text
// differs from the reference's, or that modified p, and returns nil when
// every run agrees.
func referenceMismatch(f *cnf.Formula, p verify.Proof) error {
	want := fmt.Sprint(verify.ReferenceCheckUnsatProof(f, p))
	orig := p.Steps()
	stripped := stripHints(p)
	agree := func(name string, err error) error {
		if got := fmt.Sprint(err); got != want {
			return fmt.Errorf("%s: got %q, reference %q", name, got, want)
		}
		if !reflect.DeepEqual(p.Steps(), orig) {
			return fmt.Errorf("%s modified the proof", name)
		}
		return nil
	}
	for _, v := range []struct {
		name string
		p    verify.Proof
	}{{"hinted", p}, {"stripped", stripped}} {
		if err := agree(v.name+" CheckUnsatProof", verify.CheckUnsatProof(f, v.p)); err != nil {
			return err
		}
		for _, workers := range []int{1, 2, 3} {
			for _, chunk := range []int{1, 7, verify.ProofChunk} {
				name := fmt.Sprintf("%s workers=%d chunk=%d", v.name, workers, chunk)
				if err := agree(name, verify.CheckUnsatProofWith(f, v.p, workers, chunk)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// stripHints returns p without its hints.
func stripHints(p verify.Proof) verify.Proof {
	steps := p.Steps()
	for i := range steps {
		steps[i].Hints = nil
	}
	return verify.NewProof(steps...)
}

// mutateProof returns corrupted copies of p, a proof for f, one per
// mutation that applies, each at a position drawn from rng: an addition
// dropped, a deletion dropped, a literal dropped, a literal flipped, the
// proof truncated before its last empty clause, two adjacent steps swapped,
// a deletion of an earlier clause (literals reversed) inserted before an
// addition, and each of verify.HintMutations' hint corruptions.
func mutateProof(f *cnf.Formula, p verify.Proof, rng *rand.Rand) []verify.Proof {
	steps := p.Steps()
	var adds, dels, lits []int // step indices: additions, deletions, non-empty steps
	lastEmpty := -1
	for i, s := range steps {
		switch {
		case s.Del:
			dels = append(dels, i)
		case len(s.Lits) == 0:
			lastEmpty = i
		default:
			adds = append(adds, i)
		}
		if len(s.Lits) > 0 {
			lits = append(lits, i)
		}
	}
	pick := func(idx []int) int { return idx[rng.Intn(len(idx))] }
	clone := p.Steps
	drop := func(i int) verify.Proof {
		q := clone()
		return verify.NewProof(append(q[:i], q[i+1:]...)...)
	}
	var out []verify.Proof
	if len(adds) > 0 {
		out = append(out, drop(pick(adds)))
	}
	if len(dels) > 0 {
		out = append(out, drop(pick(dels)))
	}
	if len(lits) > 0 {
		q := clone()
		s := &q[pick(lits)]
		j := rng.Intn(len(s.Lits))
		s.Lits = append(s.Lits[:j], s.Lits[j+1:]...)
		out = append(out, verify.NewProof(q...))

		q = clone()
		s = &q[pick(lits)]
		j = rng.Intn(len(s.Lits))
		s.Lits[j] = s.Lits[j].Not()
		out = append(out, verify.NewProof(q...))
	}
	if lastEmpty >= 0 {
		out = append(out, verify.NewProof(steps[:lastEmpty]...))
	}
	if len(steps) > 1 {
		q := clone()
		i := rng.Intn(len(q) - 1)
		q[i], q[i+1] = q[i+1], q[i]
		out = append(out, verify.NewProof(q...))
	}
	if len(adds) > 0 {
		i := pick(adds)
		earlier := append([]cnf.Clause(nil), f.Clauses...)
		for _, s := range steps[:i] {
			if !s.Del {
				earlier = append(earlier, s.Lits)
			}
		}
		victim := earlier[rng.Intn(len(earlier))]
		del := verify.Step{Del: true, Lits: make([]cnf.Lit, len(victim))}
		for j, l := range victim {
			del.Lits[len(victim)-1-j] = l
		}
		q := clone()
		out = append(out, verify.NewProof(append(q[:i], append([]verify.Step{del}, q[i:]...)...)...))
	}
	for _, q := range verify.HintMutations(f, steps, rng.Intn) {
		out = append(out, verify.NewProof(q...))
	}
	return out
}
