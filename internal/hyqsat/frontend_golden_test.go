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
	Queues map[string]stageDigests `json:"queues"`
	Solves map[string]solveCounts  `json:"solves"`
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

// objective hashes a quadratic objective in sorted key order: the constant,
// then the linear and quadratic terms. Map entries are hashed as present, so
// a stored zero coefficient would change the digest.
func (d *digest) objective(offset float64, lin map[int]float64, quad map[qubo.Edge]float64) {
	d.float(offset)
	d.linearMap(lin)
	d.quad(quad)
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
	// Each sub-clause objective, then the summed objective of Eq. 5: Σ α·H
	// added in sub-clause order, a term dropped whenever it cancels to zero.
	d.int(len(e.Sub))
	offset, lin, quad := 0.0, map[int]float64{}, map[qubo.Edge]float64{}
	for _, sc := range e.Sub {
		d.int(sc.Clause)
		d.float(sc.Alpha)
		subLin, subQuad := map[int]float64{}, map[qubo.Edge]float64{}
		offset += sc.Alpha * sc.Offset
		for _, t := range sc.Linear() {
			subLin[t.Node] = t.C
			if lin[t.Node] += sc.Alpha * t.C; lin[t.Node] == 0 {
				delete(lin, t.Node)
			}
		}
		for _, t := range sc.Quad() {
			subQuad[t.Edge] = t.C
			if quad[t.Edge] += sc.Alpha * t.C; quad[t.Edge] == 0 {
				delete(quad, t.Edge)
			}
		}
		d.objective(sc.Offset, subLin, subQuad)
	}
	d.objective(offset, lin, quad)
}

func (d *digest) fastResult(r *embed.FastResult) {
	d.int(r.EmbeddedClauses)
	d.ints(r.EmbeddedSet)
	d.ints(r.EmbeddedNodes)
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

// ising hashes a model as objective hashes one: the non-zero fields, then
// the couplings, each in ascending key order.
func (d *digest) ising(is *qubo.Ising) {
	d.float(is.Offset)
	fields := 0
	for _, h := range is.H {
		if h != 0 {
			fields++
		}
	}
	d.int(fields)
	for i, h := range is.H {
		if h != 0 {
			d.int(i)
			d.float(h)
		}
	}
	d.int(len(is.J))
	for _, t := range is.J {
		d.int(t.Edge.U)
		d.int(t.Edge.V)
		d.float(t.C)
	}
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

// goldenQueues is the fixed corpus: BFS activity queues from queueGen
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
				idx := new(queueGen).generate(f, adj, scores, cands, 30, 300, rng)
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

// goldenTarget is hardware the corpus runs on: Fast embeds onto fabric and
// EmbedIsing programs hw, as Solver.encodeAndEmbed does.
type goldenTarget struct {
	suffix string // appended to each queue's name; empty for the healthy 2000Q
	hw     topo.Topology
	fabric *topo.Chimera
}

// goldenTargets are a healthy 2000Q, 2000Qs with 60 and 300 broken qubits
// (Fast's fault paths: spans kept clear of broken vertical qubits, segments
// of broken horizontal ones) and Pegasus(16), programmed through its fabric.
func goldenTargets() []goldenTarget {
	broken := func(n int, seed int64) *topo.Chimera {
		return topo.NewChimera(16, 16, 4, rand.New(rand.NewSource(seed)).Perm(topo.DWave2000Q().NumQubits())[:n]...)
	}
	healthy, b60, b300 := topo.DWave2000Q(), broken(60, 60), broken(300, 300)
	peg := topo.NewPegasus(16)
	return []goldenTarget{
		{"", healthy, healthy},
		{"@2000q-broken60", b60, b60},
		{"@2000q-broken300", b300, b300},
		{"@pegasus16", peg, embed.FastFabric(peg)},
	}
}

// goldenStages digests the full Encode of one queue, then runs the queue
// through the cold pipeline exactly as Solver.encodeAndEmbed does
// (coefficient adjustment on), on scratch shared across the corpus as a
// solver shares it across iterations, and digests each stage.
func goldenStages(t *testing.T, q []cnf.Clause, tg goldenTarget, fs *frontendScratch) stageDigests {
	t.Helper()
	enc, err := qubo.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	var out stageDigests
	d := newDigest()
	d.encoding(enc)
	out.Encode = d.sum()

	if err := fs.enc.Reset(q); err != nil {
		t.Fatal(err)
	}
	res := fs.fast.Fast(&fs.enc, tg.fabric)
	d = newDigest()
	d.fastResult(res)
	out.Fast = d.sum()
	if res.EmbeddedClauses == 0 {
		return out
	}

	embEnc := fs.enc.Restrict(res.EmbeddedSet)
	is := embEnc.Program(&fs.sums, true)
	d = newDigest()
	d.encoding(embEnc)
	d.ising(is)
	out.Ising = d.sum()

	ep := new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, tg.hw, anneal.ChainStrengthFor(is))
	d = newDigest()
	d.embedded(ep)
	out.Embedded = d.sum()
	return out
}

// goldenSolves runs short HardwareOptions solves and records their exact
// counters. TemplateHits reads Stats.EmbedTemplateHits, which is always 0
// now that every miss is a Fast run; it stays so the pinned counts stay
// byte-identical.
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
// strengths) on every golden target, plus the exact counters of short
// hardware-mode solves. Any performance rewrite of these stages must
// reproduce the goldens exactly.
func TestFrontendGolden(t *testing.T) {
	corpus, queues := goldenQueues()
	got := frontendGolden{
		Queues: map[string]stageDigests{},
		Solves: goldenSolves(),
	}
	var names []string
	for _, tg := range goldenTargets() {
		var fs frontendScratch
		for _, name := range corpus {
			got.Queues[name+tg.suffix] = goldenStages(t, queues[name], tg, &fs)
			names = append(names, name+tg.suffix)
		}
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
	if len(want.Queues) != len(got.Queues) || len(want.Solves) != len(got.Solves) {
		t.Fatalf("corpus size changed: golden %d/%d entries, got %d/%d",
			len(want.Queues), len(want.Solves), len(got.Queues), len(got.Solves))
	}
	for _, name := range names {
		if w, g := want.Queues[name], got.Queues[name]; w != g {
			t.Errorf("queue %s: stage digests differ\n got  %+v\n want %+v", name, g, w)
		}
	}
	for name, w := range want.Solves {
		if g := got.Solves[name]; g != w {
			t.Errorf("solve %s: counts differ\n got  %+v\n want %+v", name, g, w)
		}
	}
}
