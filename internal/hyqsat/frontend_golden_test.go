package hyqsat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/chimera"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// updateGolden rewrites testdata/frontend_golden.json from the current code.
// The goldens pin the frontend's output bit for bit, so regenerate them only
// for a change that is meant to alter what the pipeline produces.
var updateGolden = flag.Bool("update", false, "rewrite testdata/frontend_golden.json")

const frontendGoldenFile = "testdata/frontend_golden.json"

// frontendGolden is the pinned output of the cold embedding frontend: one
// digest per pipeline stage per corpus queue, plus per-instance solver
// counts of short hardware-mode solves that run the whole pipeline.
type frontendGolden struct {
	Queues    map[string]stageDigests `json:"queues"`
	Templates map[string]string       `json:"templates"`
	Solves    map[string]solveCounts  `json:"solves"`
}

// stageDigests hashes each stage of encode → Fast → restrict/adjust/Ising →
// EmbedIsing for one queue.
type stageDigests struct {
	Encode   string `json:"encode"`
	Fast     string `json:"fast"`
	Ising    string `json:"ising"`
	Embedded string `json:"embedded"`
}

// solveCounts are the exact counters of one HardwareOptions solve.
type solveCounts struct {
	Status       string `json:"status"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	QACalls      int    `json:"qa_calls"`
	Warmup       int    `json:"warmup_iters"`
	FastRuns     int    `json:"fast_runs"`
	TemplateHits int    `json:"template_hits"`
	Embedded     int64  `json:"embedded_clauses"`
	BrokenChains int64  `json:"broken_chains"`
	StrategyHits [4]int `json:"strategy_hits"`
	ModelDigest  string `json:"model"`
	CacheMisses  int    `json:"cache_misses"`
	CacheHits    int    `json:"cache_hits"`
}

// digest is a sha256 over a canonical little-endian serialisation.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digest) ints(vs []int) {
	d.int(len(vs))
	for _, v := range vs {
		d.int(v)
	}
}

func (d *digest) int32s(vs []int32) {
	d.int(len(vs))
	for _, v := range vs {
		d.int(int(v))
	}
}

func (d *digest) floats(vs []float64) {
	d.int(len(vs))
	for _, v := range vs {
		d.float(v)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// poly hashes a polynomial in sorted key order. Map entries are hashed as
// present, so a stored zero coefficient would change the digest.
func (d *digest) poly(p *qubo.Poly) {
	d.float(p.Offset)
	lin := make([]int, 0, len(p.Linear))
	for i := range p.Linear {
		lin = append(lin, i)
	}
	slices.Sort(lin)
	d.int(len(lin))
	for _, i := range lin {
		d.int(i)
		d.float(p.Linear[i])
	}
	d.quad(p.Quad)
}

func (d *digest) quad(m map[qubo.Edge]float64) {
	es := make([]qubo.Edge, 0, len(m))
	for e := range m {
		es = append(es, e)
	}
	slices.SortFunc(es, qubo.CompareEdges)
	d.int(len(es))
	for _, e := range es {
		d.int(e.U)
		d.int(e.V)
		d.float(m[e])
	}
}

func (d *digest) linearMap(m map[int]float64) {
	keys := make([]int, 0, len(m))
	for i := range m {
		keys = append(keys, i)
	}
	slices.Sort(keys)
	d.int(len(keys))
	for _, i := range keys {
		d.int(i)
		d.float(m[i])
	}
}

func (d *digest) encoding(e *qubo.Encoding) {
	d.int(len(e.Clauses))
	vars := make([]int, 0, len(e.VarNode))
	for v := range e.VarNode {
		vars = append(vars, int(v))
	}
	slices.Sort(vars)
	d.int(len(vars))
	for _, v := range vars {
		d.int(v)
		d.int(e.VarNode[cnf.Var(v)])
	}
	d.int(len(e.NodeVar))
	for _, v := range e.NodeVar {
		d.int(int(v))
	}
	d.ints(e.AuxNode)
	d.int(len(e.Sub))
	for _, sc := range e.Sub {
		d.int(sc.Clause)
		d.float(sc.Alpha)
		d.poly(sc.Poly)
	}
	d.poly(e.Poly)
}

func (d *digest) fastResult(r *embed.FastResult) {
	d.int(r.EmbeddedClauses)
	d.ints(r.EmbeddedSet)
	nodes := make([]int, 0, len(r.EmbeddedNodes))
	for n, in := range r.EmbeddedNodes {
		if in {
			nodes = append(nodes, n)
		}
	}
	slices.Sort(nodes)
	d.ints(nodes)
	chained := make([]int, 0, len(r.Embedding.Chains))
	for n := range r.Embedding.Chains {
		chained = append(chained, n)
	}
	slices.Sort(chained)
	d.int(len(chained))
	for _, n := range chained {
		d.int(n)
		d.ints(r.Embedding.Chains[n])
	}
}

func (d *digest) ising(is *qubo.Ising) {
	d.float(is.Offset)
	d.linearMap(is.H)
	d.quad(is.J)
}

func (d *digest) embedded(ep *anneal.EmbeddedProblem) {
	w := ep.WireView()
	d.ints(w.Qubits)
	d.floats(w.H)
	d.float(w.Offset)
	d.int32s(w.AdjStart)
	d.int32s(w.AdjOther)
	d.floats(w.AdjJ)
	d.int32s(w.AdjPair)
	d.int(w.NumPairs)
	d.ints(w.ChainNodes)
	d.int(len(w.Chains))
	for _, c := range w.Chains {
		d.ints(c)
	}
}

// goldenQueues is the fixed corpus: BFS activity queues from GenerateQueue
// on uf150- and uuf200-sized random 3-SAT formulas (all clauses as
// candidates, and random unsatisfied-like subsets), plus random 1–3-literal
// queues over few variables, so repeated variables within a clause and
// tautologies occur.
func goldenQueues() (names []string, queues map[string][]cnf.Clause) {
	queues = map[string][]cnf.Clause{}
	add := func(name string, q []cnf.Clause) {
		names = append(names, name)
		queues[name] = q
	}
	for _, fam := range []struct {
		name          string
		vars, clauses int
		seeds         []int64
	}{
		{"uf150", 150, 645, []int64{1, 2, 3}},
		{"uuf200", 200, 860, []int64{1, 2}},
	} {
		for _, seed := range fam.seeds {
			f := gen.Random3SAT(fam.vars, fam.clauses, seed).Formula
			adj := cnf.VarAdjacency(f)
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 3; k++ {
				scores := make([]float64, len(f.Clauses))
				for i := range scores {
					scores[i] = rng.Float64()
				}
				var cands []int
				for i := range f.Clauses {
					if k == 0 || rng.Intn(3) > 0 {
						cands = append(cands, i)
					}
				}
				idx := GenerateQueue(f, adj, scores, cands, 30, 300, rng)
				q := make([]cnf.Clause, len(idx))
				for i, ci := range idx {
					q[i] = f.Clauses[ci]
				}
				add(fmt.Sprintf("%s-s%d-q%d", fam.name, seed, k), q)
			}
		}
	}
	rng := rand.New(rand.NewSource(77))
	for k, spec := range []struct{ vars, n int }{{6, 40}, {20, 120}, {60, 300}, {150, 300}} {
		q := make([]cnf.Clause, spec.n)
		for i := range q {
			c := make(cnf.Clause, 1+rng.Intn(3))
			for j := range c {
				c[j] = cnf.MkLit(cnf.Var(rng.Intn(spec.vars)), rng.Intn(2) == 1)
			}
			q[i] = c
		}
		add(fmt.Sprintf("random-%d-v%d-n%d", k, spec.vars, spec.n), q)
	}
	return names, queues
}

// goldenStages runs one queue through the cold pipeline exactly as
// Solver.encodeAndEmbed does (coefficient adjustment on) and digests each
// stage.
func goldenStages(t *testing.T, q []cnf.Clause, g *chimera.Graph) stageDigests {
	t.Helper()
	enc, err := qubo.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	var out stageDigests
	d := newDigest()
	d.encoding(enc)
	out.Encode = d.sum()

	res := embed.Fast(enc, g)
	d = newDigest()
	d.fastResult(res)
	out.Fast = d.sum()
	if res.EmbeddedClauses == 0 {
		return out
	}

	embEnc := enc.Restrict(res.EmbeddedSet)
	embEnc.AdjustCoefficients()
	norm, _ := embEnc.Poly.Normalized()
	is := norm.ToIsing()
	d = newDigest()
	d.encoding(embEnc)
	d.ising(is)
	out.Ising = d.sum()

	ep := anneal.EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
	d = newDigest()
	d.embedded(ep)
	out.Embedded = d.sum()
	return out
}

// goldenTemplates digests template skeletons (EmbedIsing on a precomputed
// tile embedding) on both topologies for a few shapes.
func goldenTemplates(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	shapes := map[string][]int{
		"mixed": {3, 2, 1, 3, 3, 2},
		"three": {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
	}
	for _, name := range []string{"chimera", "pegasus"} {
		g, err := topo.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ts := embed.NewTemplateSet(g)
		for sname, shape := range shapes {
			b, err := anneal.NewTemplateBuilder(ts, shape)
			if err != nil {
				t.Fatal(err)
			}
			d := newDigest()
			d.embedded(b.BuildNew(unitIsingForShape(shape), 1.5))
			out[name+"-"+sname] = d.sum()
		}
	}
	return out
}

// unitIsingForShape is a deterministic non-trivial Ising over a shape's
// template nodes and edges.
func unitIsingForShape(shape []int) *qubo.Ising {
	_, n := qubo.LayoutForShape(shape)
	is := &qubo.Ising{H: map[int]float64{}, J: map[qubo.Edge]float64{}}
	for i := 0; i < n; i++ {
		is.H[i] = float64(i%5) - 2.25
	}
	for k, e := range qubo.EdgesForShape(shape) {
		is.J[e] = 0.125 * float64(k%7-3)
	}
	return is
}

// goldenSolves runs short HardwareOptions solves (templates on, Fast for
// every non-eligible queue) and records their exact counters.
func goldenSolves() map[string]solveCounts {
	out := map[string]solveCounts{}
	for _, inst := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"uf75-1", gen.SatisfiableRandom3SAT(75, 320, 1).Formula},
		{"uf75-2", gen.SatisfiableRandom3SAT(75, 320, 2).Formula},
		{"uuf50-1", gen.UnsatisfiableRandom3SAT(50, 218, 1).Formula},
	} {
		o := HardwareOptions()
		o.Seed = 11
		r := New(inst.f, o).Solve()
		st := r.Stats
		d := newDigest()
		for _, b := range r.Model {
			if b {
				d.int(1)
			} else {
				d.int(0)
			}
		}
		out[inst.name] = solveCounts{
			Status:       r.Status.String(),
			Conflicts:    st.SAT.Conflicts,
			Decisions:    st.SAT.Decisions,
			Propagations: st.SAT.Propagations,
			QACalls:      st.QACalls,
			Warmup:       st.WarmupIterations,
			FastRuns:     st.EmbedFastRuns,
			TemplateHits: st.EmbedTemplateHits,
			Embedded:     st.EmbeddedClauses,
			BrokenChains: st.BrokenChains,
			StrategyHits: [4]int{st.Strategy1Hits, st.Strategy2Hits, st.Strategy3Hits, st.Strategy4Hits},
			ModelDigest:  d.sum(),
			CacheMisses:  st.EmbedCacheMisses,
			CacheHits:    st.EmbedCacheHits,
		}
	}
	return out
}

// TestFrontendGolden pins the cold embedding frontend bit for bit: Encode
// (sub-clause objectives, summed objective, node numbering), Fast (embedded
// clause set and every chain in order), the restricted, adjusted Ising
// model, and EmbedIsing (active qubits, fields, CSR adjacency and coupler
// strengths), plus the exact counters of short hardware-mode solves. Any
// performance rewrite of these stages must reproduce the goldens exactly.
func TestFrontendGolden(t *testing.T) {
	g := chimera.DWave2000Q()
	names, queues := goldenQueues()
	got := frontendGolden{
		Queues:    map[string]stageDigests{},
		Templates: goldenTemplates(t),
		Solves:    goldenSolves(),
	}
	for _, name := range names {
		got.Queues[name] = goldenStages(t, queues[name], g)
	}

	path := filepath.FromSlash(frontendGoldenFile)
	if *updateGolden {
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
	var want frontendGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Queues) != len(got.Queues) || len(want.Templates) != len(got.Templates) ||
		len(want.Solves) != len(got.Solves) {
		t.Fatalf("corpus size changed: golden %d/%d/%d entries, got %d/%d/%d",
			len(want.Queues), len(want.Templates), len(want.Solves),
			len(got.Queues), len(got.Templates), len(got.Solves))
	}
	for _, name := range names {
		if w, g := want.Queues[name], got.Queues[name]; w != g {
			t.Errorf("queue %s: stage digests differ\n got  %+v\n want %+v", name, g, w)
		}
	}
	for name, w := range want.Templates {
		if g := got.Templates[name]; g != w {
			t.Errorf("template %s: digest %s, want %s", name, g, w)
		}
	}
	for name, w := range want.Solves {
		if g := got.Solves[name]; g != w {
			t.Errorf("solve %s: counts differ\n got  %+v\n want %+v", name, g, w)
		}
	}
}
