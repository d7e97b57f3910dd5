package verify_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hyqsat/internal/gen"
	"hyqsat/internal/portfolio"
	"hyqsat/internal/verify"
)

// TestCubeProofHintsComplete pins hint emission on the cube-and-conquer
// path: certified cube solves of uuf75 instances at 1, 2 and 4 workers and
// depths 1–4 must return stitched proofs that check with no lemma falling
// back from its hints to RUP, and check again with their hints stripped. The
// runs cover all three ways a cube run proves unsatisfiability: the probe
// decides (default probe budget), every cube is refuted, and a worker finds
// the formula unsatisfiable outright (a one-conflict probe leaves the
// splitting to the workers). One stitched proof, and its mutations, must also
// get the reference checker's verdict and error text.
func TestCubeProofHintsComplete(t *testing.T) {
	kinds := map[string]int{}
	var sample verify.Proof
	for seed := int64(1); seed <= 2; seed++ {
		f := gen.UnsatisfiableRandom3SAT(75, 322, seed).Formula
		for _, probe := range []int64{0, 1} {
			for _, workers := range []int{1, 2, 4} {
				for depth := 1; depth <= 4; depth++ {
					name := fmt.Sprintf("seed %d probe %d workers %d depth %d", seed, probe, workers, depth)
					out, err := portfolio.SolveCubes(context.Background(), f, portfolio.CubeOptions{
						Depth: depth, Workers: workers, ProbeConflicts: probe, Certify: true})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !out.Certified || out.Proof.Len() == 0 {
						t.Fatalf("%s: certified %v with a %d-step proof", name, out.Certified, out.Proof.Len())
					}
					kind := "all cubes refuted"
					switch {
					case out.Cubes == 0:
						kind = "probe"
					case out.Refuted < out.Cubes:
						kind = "worker unsat"
					}
					kinds[kind]++
					fallbacks, err := verify.HintFallbacks(f, out.Proof)
					if err != nil {
						t.Fatalf("%s (%s): proof rejected: %v", name, kind, err)
					}
					if fallbacks != 0 {
						t.Fatalf("%s (%s): %d lemmas fell back from their hints to RUP", name, kind, fallbacks)
					}
					if err := verify.CheckUnsatProof(f, stripHints(out.Proof)); err != nil {
						t.Fatalf("%s (%s): proof rejected with its hints stripped: %v", name, kind, err)
					}
					if kind == "all cubes refuted" && depth >= 3 && sample.Len() == 0 {
						sample = out.Proof
						rng := rand.New(rand.NewSource(seed))
						for j, p := range append([]verify.Proof{sample}, mutateProof(f, sample, rng)...) {
							if err := referenceMismatch(f, p); err != nil {
								t.Fatalf("%s, variant %d (%d steps): %v", name, j, p.Len(), err)
							}
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"probe", "all cubes refuted", "worker unsat"} {
		if kinds[kind] == 0 {
			t.Fatalf("no cube run ended by %q: %v", kind, kinds)
		}
	}
	if sample.Len() == 0 {
		t.Fatal("no run of depth 3 or more refuted every cube")
	}
	t.Logf("proof kinds: %v", kinds)
}
