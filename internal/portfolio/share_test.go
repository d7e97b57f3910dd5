package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/verify"
)

// TestSharingSoundnessCorpus is the soundness battery's core: a randomized
// uf/uuf corpus solved by a sharing, certifying portfolio. Every Sat verdict
// is model-checked (the race refuses invalid models; we re-check here
// against the original formula anyway) and every Unsat verdict must have
// passed the RUP check of the shared proof log. Statuses are cross-checked
// against the generator's ground truth.
func TestSharingSoundnessCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	n := 8
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		var inst *gen.Instance
		if i%2 == 0 {
			inst = gen.SatisfiableRandom3SAT(36, 150, seed)
		} else {
			inst = gen.UnsatisfiableRandom3SAT(28, 136, seed)
		}
		entrants := []Entrant{MiniSATEntrant(seed), KissatEntrant(seed + 1)}
		if i%4 == 0 {
			// Every fourth instance adds the hybrid to the sharing group
			// (inputs are 3-CNF, so it joins the bus).
			entrants = append(entrants, HyQSATEntrant(seed+2, nil))
		}
		out, err := SolveWith(context.Background(), inst.Formula, entrants,
			RaceOptions{Certify: true, Share: true})
		if err != nil {
			t.Fatalf("instance %s: %v", inst.Name, err)
		}
		if out.Result.Status != inst.Expected {
			t.Fatalf("instance %s: got %v, want %v", inst.Name, out.Result.Status, inst.Expected)
		}
		switch out.Result.Status {
		case sat.Sat:
			model := out.Result.Model[:inst.Formula.NumVars]
			if err := verify.CheckModel(inst.Formula, model); err != nil {
				t.Fatalf("instance %s: winning model invalid: %v", inst.Name, err)
			}
		case sat.Unsat:
			if !out.Certified {
				t.Fatalf("instance %s: UNSAT verdict not certified", inst.Name)
			}
		}
	}
}

// TestSharingAdversarialInjection is the corpus's adversarial arm: a
// corrupted clause placed on the bus must make certification fail, never
// silently poison a verdict. Injecting the conflicting units {x1} and {¬x1}
// into a race on the satisfiable formula (x1 ∨ x2) forces the importer to an
// immediate root-level Unsat — a wrong verdict whose proof begins with a
// non-RUP clause, which the checker must reject.
func TestSharingAdversarialInjection(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	bus := NewBus(nil)
	bus.Inject([]cnf.Lit{cnf.Pos(0)}, 1)
	bus.Inject([]cnf.Lit{cnf.Neg(0)}, 1)
	_, err := SolveWith(context.Background(), f, []Entrant{MiniSATEntrant(1)},
		RaceOptions{Certify: true, Bus: bus})
	var uncert ErrUncertified
	if !errors.As(err, &uncert) {
		t.Fatalf("corrupted bus traffic not rejected by certification: err=%v", err)
	}
}

// TestSharingAdversarialInjectionUnsatInstance covers the subtler poisoning:
// the instance is genuinely UNSAT, so the verdict is right — but the proof
// contains the injected non-RUP clause, and the checker must still reject the
// run rather than certify a proof with an unjustified step.
func TestSharingAdversarialInjectionUnsatInstance(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(20, 100, 3)
	bus := NewBus(nil)
	// A long clause of only-positive literals over fresh search space is
	// essentially never RUP for a random instance; pick one and verify the
	// run is rejected, not certified.
	bus.Inject([]cnf.Lit{cnf.Pos(0), cnf.Pos(1)}, 2)
	out, err := SolveWith(context.Background(), inst.Formula, []Entrant{MiniSATEntrant(2)},
		RaceOptions{Certify: true, Bus: bus})
	if err == nil {
		// The injected clause may by luck be a real consequence; then the
		// run legitimately certifies. Accept only that outcome.
		if !out.Certified {
			t.Fatal("neither rejected nor certified")
		}
		direct := sat.New(inst.Formula.Copy(), sat.MiniSATOptions())
		rec := verify.NewRecorder()
		direct.SetProofWriter(rec)
		if r := direct.Solve(); r.Status != sat.Unsat {
			t.Fatalf("fixture not UNSAT: %v", r.Status)
		}
		return
	}
	var uncert ErrUncertified
	if !errors.As(err, &uncert) {
		t.Fatalf("want ErrUncertified, got %v", err)
	}
}

// TestSharingDeterminism is the bit-identical satellite: a fixed-seed
// single-entrant race must produce the same statuses, models and stats with
// the bus enabled as without — an attached exchange with no peer traffic is
// a no-op for the search.
func TestSharingDeterminism(t *testing.T) {
	inst := gen.SatisfiableRandom3SAT(40, 168, 77)
	run := func(share bool) Outcome {
		o := RaceOptions{}
		if share {
			o.Share = true
		}
		out, err := SolveWith(context.Background(), inst.Formula, []Entrant{MiniSATEntrant(9)}, o)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	off, on := run(false), run(true)
	if off.Result.Status != on.Result.Status {
		t.Fatalf("status diverged: %v vs %v", off.Result.Status, on.Result.Status)
	}
	if !reflect.DeepEqual(off.Result.Model, on.Result.Model) {
		t.Fatal("model diverged with bus enabled")
	}
	if off.Result.Stats != on.Result.Stats {
		t.Fatalf("stats diverged:\n  off: %+v\n  on:  %+v", off.Result.Stats, on.Result.Stats)
	}
}

// TestSharingChaosMatrix runs sharing races with the hybrid entrant's QA
// path under fault injection (run the package with -race: the matrix is as
// much a data-race probe as a soundness one). Whatever the QPU does, the
// verdict must stay correct and certified.
func TestSharingChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short")
	}
	profiles := []string{"flaky", "corrupt"}
	for pi, name := range profiles {
		profile, err := qpu.ParseProfile(name)
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		wrap := func(b qpu.Backend) qpu.Backend {
			return qpu.NewFaultInjector(b, profile, int64(pi)+1)
		}
		for i, inst := range []*gen.Instance{
			gen.SatisfiableRandom3SAT(32, 134, int64(100+pi)),
			gen.UnsatisfiableRandom3SAT(24, 118, int64(200+pi)),
		} {
			out, err := SolveWith(context.Background(), inst.Formula,
				DefaultEntrants(int64(10*pi+i), wrap),
				RaceOptions{Certify: true, Share: true})
			if err != nil {
				t.Fatalf("profile %s instance %s: %v", name, inst.Name, err)
			}
			if out.Result.Status != inst.Expected {
				t.Fatalf("profile %s instance %s: got %v want %v",
					name, inst.Name, out.Result.Status, inst.Expected)
			}
			if out.Result.Status == sat.Unsat && !out.Certified {
				t.Fatalf("profile %s instance %s: uncertified UNSAT", name, inst.Name)
			}
		}
	}
}

// TestSharingTrafficFlows pins the tentpole end-to-end in two phases. The
// sequential phase is deterministic: one solver fills the bus with learnt
// clauses, then a second solver on the same formula must attach some of them
// at its restart boundaries. The racing phase then checks that a concurrent
// certifying race also produces bus traffic and a certified verdict —
// whether any import lands there before the losers are interrupted is
// timing-dependent, so the attachment assertion lives in phase one.
func TestSharingTrafficFlows(t *testing.T) {
	inst := gen.UnsatisfiableRandom3SAT(44, 210, 12345)
	bus := NewBus(nil)
	// Both peers join before any traffic: Export fans out to the peers
	// present at export time.
	exporterPeer, importerPeer := bus.NewPeer("exporter"), bus.NewPeer("importer")
	exporter := sat.New(inst.Formula.Copy(), sat.MiniSATOptions())
	exporter.SetExchange(exporterPeer)
	if r := exporter.Solve(); r.Status != sat.Unsat {
		t.Fatalf("exporter status %v", r.Status)
	}
	if bus.Stats().Exported == 0 {
		t.Fatal("no clauses crossed the bus")
	}
	importer := sat.New(inst.Formula.Copy(), sat.MiniSATOptions())
	importer.SetExchange(importerPeer)
	r := importer.Solve()
	if r.Status != sat.Unsat {
		t.Fatalf("importer status %v", r.Status)
	}
	if r.Stats.Imported == 0 {
		t.Fatal("no foreign clauses were attached by the peer")
	}

	out, err := SolveWith(context.Background(), inst.Formula,
		[]Entrant{MiniSATEntrant(1), KissatEntrant(2)},
		RaceOptions{Certify: true, Share: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Unsat || !out.Certified {
		t.Fatalf("status=%v certified=%v", out.Result.Status, out.Certified)
	}
	if out.Share.Exported == 0 {
		t.Fatal("racing entrants exported nothing")
	}
}

// posLits returns the clause (x0 ∨ … ∨ x(n-1)).
func posLits(n int) []cnf.Lit {
	lits := make([]cnf.Lit, n)
	for i := range lits {
		lits[i] = cnf.Pos(cnf.Var(i))
	}
	return lits
}

func TestBusFiltersAndDedupes(t *testing.T) {
	// Probe the filter at its real bounds (maxShareLen = 8, maxShareLBD = 6):
	// 8 literals at LBD 6 is admitted; 9 literals or LBD 7 is filtered.
	bus := NewBus(nil)
	a := bus.NewPeer("a")
	b := bus.NewPeer("b")
	a.Export(posLits(9), 1) // too long
	a.Export(posLits(2), 7) // LBD too high
	good := posLits(8)
	a.Export(good, 6)
	reordered := append([]cnf.Lit(nil), good...)
	reordered[0], reordered[7] = reordered[7], reordered[0]
	a.Export(reordered, 6) // same clause, reordered
	st := bus.Stats()
	if st.Filtered != 2 || st.Exported != 1 || st.Duplicates != 1 {
		t.Fatalf("stats %+v", st)
	}
	var got [][]cnf.Lit
	b.Import(func(lits []cnf.Lit, lbd int32) bool {
		got = append(got, append([]cnf.Lit(nil), lits...))
		return true
	})
	if len(got) != 1 || !reflect.DeepEqual(got[0], good) {
		t.Fatalf("peer b received %v", got)
	}
	// The exporter must not hear its own clause back.
	a.Import(func(lits []cnf.Lit, lbd int32) bool {
		t.Fatalf("exporter received its own clause %v", lits)
		return false
	})
}

func TestBusExportHotPathAllocs(t *testing.T) {
	// Export runs inside every sharing solver's conflict analysis; its
	// filtered and duplicate fast paths must be allocation-free.
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	bus := NewBus(nil)
	p := bus.NewPeer("p")
	long := posLits(9)
	if avg := testing.AllocsPerRun(1000, func() { p.Export(long, 1) }); avg != 0 {
		t.Fatalf("filtered export allocates %.1f/op, want 0", avg)
	}
	dup := []cnf.Lit{cnf.Pos(5), cnf.Pos(6)}
	p.Export(dup, 1)
	if avg := testing.AllocsPerRun(1000, func() { p.Export(dup, 1) }); avg != 0 {
		t.Fatalf("duplicate export allocates %.1f/op, want 0", avg)
	}
}
