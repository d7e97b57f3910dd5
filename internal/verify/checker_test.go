// Production-checker tests that need proofs from the hybrid solver or the
// shared benchmark fixture, both of which sit above internal/verify in the
// dependency order.
package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
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
				t.Fatalf("%s, variant %d (%d steps): %v", in.name, j, len(p), err)
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
	if limit := float64(len(p)) / 4; allocs > limit {
		t.Fatalf("one-worker check of a %d-step proof: %.0f allocs, want ≤ %.0f", len(p), allocs, limit)
	}
	t.Logf("%d steps: %.0f allocs", len(p), allocs)
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
// chunks of 1, 7 and ProofChunk additions. It describes the first run whose
// verdict or error text differs from the reference's, or that modified p,
// and returns nil when every run agrees.
func referenceMismatch(f *cnf.Formula, p verify.Proof) error {
	want := fmt.Sprint(verify.ReferenceCheckUnsatProof(f, p))
	orig := cloneProof(p)
	agree := func(name string, err error) error {
		if got := fmt.Sprint(err); got != want {
			return fmt.Errorf("%s: got %q, reference %q", name, got, want)
		}
		if !reflect.DeepEqual(p, orig) {
			return fmt.Errorf("%s modified the proof", name)
		}
		return nil
	}
	if err := agree("CheckUnsatProof", verify.CheckUnsatProof(f, p)); err != nil {
		return err
	}
	for _, workers := range []int{1, 2, 3} {
		for _, chunk := range []int{1, 7, verify.ProofChunk} {
			name := fmt.Sprintf("workers=%d chunk=%d", workers, chunk)
			if err := agree(name, verify.CheckUnsatProofWith(f, p, workers, chunk)); err != nil {
				return err
			}
		}
	}
	return nil
}

func cloneProof(p verify.Proof) verify.Proof {
	if p == nil {
		return nil
	}
	out := make(verify.Proof, len(p))
	for i, s := range p {
		out[i] = verify.Step{Del: s.Del}
		if s.Lits != nil {
			out[i].Lits = append(make([]cnf.Lit, 0, len(s.Lits)), s.Lits...)
		}
	}
	return out
}

// mutateProof returns corrupted copies of p, a proof for f, one per
// mutation that applies, each at a position drawn from rng: an addition
// dropped, a deletion dropped, a literal dropped, a literal flipped, the
// proof truncated before its last empty clause, two adjacent steps swapped,
// and a deletion of an earlier clause (literals reversed) inserted before an
// addition.
func mutateProof(f *cnf.Formula, p verify.Proof, rng *rand.Rand) []verify.Proof {
	var adds, dels, lits []int // step indices: additions, deletions, non-empty steps
	lastEmpty := -1
	for i, s := range p {
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
	drop := func(i int) verify.Proof {
		q := cloneProof(p)
		return append(q[:i], q[i+1:]...)
	}
	var out []verify.Proof
	if len(adds) > 0 {
		out = append(out, drop(pick(adds)))
	}
	if len(dels) > 0 {
		out = append(out, drop(pick(dels)))
	}
	if len(lits) > 0 {
		q := cloneProof(p)
		s := &q[pick(lits)]
		j := rng.Intn(len(s.Lits))
		s.Lits = append(s.Lits[:j], s.Lits[j+1:]...)
		out = append(out, q)

		q = cloneProof(p)
		s = &q[pick(lits)]
		j = rng.Intn(len(s.Lits))
		s.Lits[j] = s.Lits[j].Not()
		out = append(out, q)
	}
	if lastEmpty >= 0 {
		out = append(out, cloneProof(p[:lastEmpty]))
	}
	if len(p) > 1 {
		q := cloneProof(p)
		i := rng.Intn(len(q) - 1)
		q[i], q[i+1] = q[i+1], q[i]
		out = append(out, q)
	}
	if len(adds) > 0 {
		i := pick(adds)
		earlier := append([]cnf.Clause(nil), f.Clauses...)
		for _, s := range p[:i] {
			if !s.Del {
				earlier = append(earlier, s.Lits)
			}
		}
		victim := earlier[rng.Intn(len(earlier))]
		del := verify.Step{Del: true, Lits: make([]cnf.Lit, len(victim))}
		for j, l := range victim {
			del.Lits[len(victim)-1-j] = l
		}
		q := cloneProof(p)
		out = append(out, append(q[:i], append(verify.Proof{del}, q[i:]...)...))
	}
	return out
}
