package sat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hyqsat/internal/cnf"
)

// updateSearchGolden rewrites testdata/search_golden.json from the current
// code. The golden pins the CDCL search across builds, so regenerate it only
// for a change that is meant to alter the search.
var updateSearchGolden = flag.Bool("update", false, "rewrite testdata/search_golden.json")

const searchGoldenFile = "testdata/search_golden.json"

// searchCounts is the pinned outcome of one golden run: its status, the
// search counters, and digests of the model and of the proof the run
// recorded (every added clause with its id and hints, every deletion).
type searchCounts struct {
	Status            string `json:"status"`
	AssumptionsFailed bool   `json:"assumptions_failed,omitempty"`
	Conflicts         int64  `json:"conflicts"`
	Decisions         int64  `json:"decisions"`
	Propagations      int64  `json:"propagations"`
	Learned           int64  `json:"learned"`
	Removed           int64  `json:"removed"`
	Minimized         int64  `json:"minimized"`
	Restarts          int64  `json:"restarts"`
	ProofSteps        int    `json:"proof_steps"`
	Proof             string `json:"proof"`
	Model             string `json:"model"`
}

// proofHash is a ProofWriter that folds every proof event into a sha256:
// additions with their id (numbered as ProofWriter defines) and hints,
// deletions with their literals.
type proofHash struct {
	h      hash.Hash
	nextID int32
	steps  int
}

func newProofHash(f *cnf.Formula) *proofHash {
	return &proofHash{h: sha256.New(), nextID: int32(len(f.Clauses)) + 1}
}

func (p *proofHash) word(v int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	p.h.Write(b[:])
}

func (p *proofHash) clause(tag int32, lits []cnf.Lit) {
	p.word(tag)
	p.word(int32(len(lits)))
	for _, l := range lits {
		p.word(int32(l))
	}
	p.steps++
}

func (p *proofHash) ProofAdd(lits []cnf.Lit, hints []int32) {
	p.clause('a', lits)
	p.word(p.nextID)
	p.nextID++
	p.word(int32(len(hints)))
	for _, id := range hints {
		p.word(id)
	}
}

func (p *proofHash) ProofDelete(lits []cnf.Lit) { p.clause('d', lits) }

func (p *proofHash) sum() string { return hex.EncodeToString(p.h.Sum(nil)[:12]) }

func modelDigest(model []bool) string {
	if model == nil {
		return ""
	}
	h := sha256.New()
	for _, b := range model {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// goldenRandom3SAT rejection-samples uniform random 3-SAT over n variables
// and m clauses until a candidate has the wanted status, advancing the seed
// as gen.SatisfiableRandom3SAT and gen.UnsatisfiableRandom3SAT do (the
// SATLIB uf/uuf construction; gen imports sat, so the test cannot).
func goldenRandom3SAT(n, m int, seed int64, want Status) *cnf.Formula {
	for k := int64(0); ; k++ {
		f := random3SAT(rand.New(rand.NewSource(seed*1_000_003+k)), n, m)
		if New(f.Copy(), MiniSATOptions()).Solve().Status == want {
			return f
		}
	}
}

func countsOf(r Result, p *proofHash) searchCounts {
	return searchCounts{
		Status:            r.Status.String(),
		AssumptionsFailed: r.AssumptionsFailed,
		Conflicts:         r.Stats.Conflicts,
		Decisions:         r.Stats.Decisions,
		Propagations:      r.Stats.Propagations,
		Learned:           r.Stats.Learned,
		Removed:           r.Stats.Removed,
		Minimized:         r.Stats.Minimized,
		Restarts:          r.Stats.Restarts,
		ProofSteps:        p.steps,
		Proof:             p.sum(),
		Model:             modelDigest(r.Model),
	}
}

// searchGoldenRuns solves the golden corpus and returns each run's counts
// by name.
func searchGoldenRuns() map[string]searchCounts {
	out := map[string]searchCounts{}
	presets := []struct {
		name string
		opts Options
	}{{"minisat", MiniSATOptions()}, {"kissat", KissatOptions()}}
	for _, n := range []int{50, 100, 150} {
		m := n * 426 / 100
		for _, family := range []struct {
			name string
			want Status
		}{{"uf", Sat}, {"uuf", Unsat}} {
			f := goldenRandom3SAT(n, m, int64(n), family.want)
			for _, pr := range presets {
				s := New(f.Copy(), pr.opts)
				p := newProofHash(f)
				s.SetProofWriter(p)
				out[fmt.Sprintf("%s%d/%s", family.name, n, pr.name)] = countsOf(s.Solve(), p)
			}
		}
	}

	// Assumptions that contradict the model MiniSAT finds on a uf100
	// instance in its first ten variables; the search refutes them after
	// real conflicts.
	f := goldenRandom3SAT(100, 426, 100, Sat)
	model := New(f.Copy(), MiniSATOptions()).Solve().Model
	var assumptions []cnf.Lit
	for v := 0; v < 10; v++ {
		assumptions = append(assumptions, cnf.MkLit(cnf.Var(v), model[v]))
	}
	s := New(f.Copy(), MiniSATOptions())
	p := newProofHash(f)
	s.SetProofWriter(p)
	out["assumptions/uf100"] = countsOf(s.SolveWithAssumptions(assumptions), p)

	// The eight depth-3 cubes over the first three variables of the uuf150
	// instance, refuted in turn on one incremental solver as a cube worker
	// does: the search restarts and reduces its learnt database under the
	// assumptions. The counts and proof are the whole sequence's.
	uuf150 := goldenRandom3SAT(150, 639, 150, Unsat)
	s = New(uuf150.Copy(), MiniSATOptions())
	p = newProofHash(uuf150)
	s.SetProofWriter(p)
	results := solveDepth3Cubes(s)
	out["cubes/uuf150"] = countsOf(results[len(results)-1], p)

	// A budgeted solve that stops Unknown, then continues to its verdict.
	uuf := goldenRandom3SAT(100, 426, 100, Unsat)
	opts := KissatOptions()
	opts.MaxConflicts = 300
	s = New(uuf.Copy(), opts)
	p = newProofHash(uuf)
	s.SetProofWriter(p)
	out["budget/uuf100/first"] = countsOf(s.Solve(), p)
	s.opts.MaxConflicts = 0
	out["budget/uuf100/continued"] = countsOf(s.Solve(), p)
	return out
}

// TestSearchGolden pins the CDCL search across builds: per fixed instance,
// the counters and the recorded proof (ids and hints included) of MiniSAT
// and Kissat solves of uf/uuf 50–150, one SolveWithAssumptions run that ends
// AssumptionsFailed, an incremental sequence of cube refutations, and a
// budgeted solve that is continued. A change meant
// to keep the search bit-identical must pass it with the file unchanged.
func TestSearchGolden(t *testing.T) {
	got := searchGoldenRuns()
	if w := got["assumptions/uf100"]; !w.AssumptionsFailed || w.Conflicts == 0 {
		t.Fatalf("assumption run ended %+v, want AssumptionsFailed after conflicts", w)
	}
	if w := got["cubes/uuf150"]; w.Restarts == 0 || w.Removed == 0 {
		t.Fatalf("cube sequence ended %+v, want restarts and reductions", w)
	}

	path := filepath.FromSlash(searchGoldenFile)
	if *updateSearchGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]searchCounts
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	slices.Sort(names)
	if len(want) != len(got) {
		t.Fatalf("corpus size changed: golden %d runs, got %d", len(want), len(got))
	}
	for _, name := range names {
		if g, w := got[name], want[name]; g != w {
			t.Errorf("%s: search differs\n got  %+v\n want %+v", name, g, w)
		}
	}
}
