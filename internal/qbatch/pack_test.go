package qbatch

import (
	"errors"
	"math/rand"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// memberProblem embeds numClauses random 3-SAT clauses over numVars
// variables onto g. Clauses sharing variables produce inter-tile chains, so
// numVars ≈ 3·numClauses gives (mostly) members whose clauses share no
// chain, while small numVars chains clauses across cells.
func memberProblem(t testing.TB, g *topo.Chimera, seed int64, numClauses, numVars int) *anneal.EmbeddedProblem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var clauses []cnf.Clause
	for i := 0; i < numClauses; i++ {
		perm := rng.Perm(numVars)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		clauses = append(clauses, c)
	}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses != numClauses {
		t.Fatalf("embedded %d/%d clauses", res.EmbeddedClauses, numClauses)
	}
	is := enc.Program(&qubo.Sums{}, false)
	return new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
}

// relocatedQubits rebuilds a packed member's physical qubit ids, one per
// active qubit, from the tile translation Add returned for it.
func relocatedQubits(k *Packing, ep *anneal.EmbeddedProblem, delta int32) []int {
	qs := make([]int, len(ep.Qubits))
	for i, q := range ep.Qubits {
		qs[i] = k.relocated(q, delta)
	}
	return qs
}

// occupiedTiles counts the tiles the packing's committed members hold.
func occupiedTiles(k *Packing) int {
	n := 0
	for _, stamp := range k.occStamp {
		if stamp == k.epoch {
			n++
		}
	}
	return n
}

// TestPackDisjointPlacement is the packer's core invariant: committed
// members occupy pairwise-disjoint tiles and pairwise-disjoint physical
// qubits, none of them broken, even though every member was embedded
// starting from cell 0 of the same topology, and every member's couplers
// survive its translation — for single-clause members as well as for
// chained ones.
func TestPackDisjointPlacement(t *testing.T) {
	g := topo.DWave2000Q()
	p, err := NewPacker(g)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	members := []*anneal.EmbeddedProblem{
		memberProblem(t, g, 1, 1, 3), // single clause, one cell
		memberProblem(t, g, 2, 4, 5), // shared variables → inter-tile chains
		memberProblem(t, g, 3, 2, 6), // variable-disjoint pair
		memberProblem(t, g, 4, 6, 7), // larger, chained
		memberProblem(t, g, 5, 1, 3),
	}
	seenTile := map[int32]int{}
	seenQubit := map[int]int{}
	for i, ep := range members {
		delta, err := k.Add(ep)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		qubits := relocatedQubits(k, ep, delta)
		tiles := map[int32]bool{}
		for _, q := range qubits {
			tiles[p.qubitTile[q]] = true
			if g.IsBroken(q) {
				t.Fatalf("member %d relocated onto broken qubit %d", i, q)
			}
			if prev, dup := seenQubit[q]; dup {
				t.Fatalf("qubit %d assigned to members %d and %d", q, prev, i)
			}
			seenQubit[q] = i
		}
		for tile := range tiles {
			if prev, dup := seenTile[tile]; dup {
				t.Fatalf("tile %d assigned to members %d and %d", tile, prev, i)
			}
			seenTile[tile] = i
		}
		w := ep.WireView()
		for a := range w.Qubits {
			for e := w.AdjStart[a]; e < w.AdjStart[a+1]; e++ {
				b := w.AdjOther[e]
				if !g.Coupled(qubits[a], qubits[b]) {
					t.Fatalf("member %d: relocated coupler %d–%d does not exist on the device",
						i, qubits[a], qubits[b])
				}
			}
		}
	}
	if n := occupiedTiles(k); n != len(seenTile) {
		t.Fatalf("packing holds %d tiles, members use %d", n, len(seenTile))
	}
}

// TestPackRefusesForeignTopology is the co-tiling refusal contract: a
// problem embedded for a different hardware graph is rejected with a typed
// *PackError (ReasonTopology), never a panic, and the packing is unchanged.
func TestPackRefusesForeignTopology(t *testing.T) {
	chimeraG := topo.DWave2000Q()
	p, err := NewPacker(chimeraG)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	// A problem whose provenance names a different hardware graph: embed on
	// Chimera, then claim Pegasus — exactly what a client mixing device
	// targets would submit.
	foreign := memberProblem(t, topo.DWave2000Q(), 21, 1, 3)
	foreign.Graph = topo.AdvantagePegasus()
	_, err = k.Add(foreign)
	var pe *PackError
	if !errors.As(err, &pe) || pe.Reason != ReasonTopology {
		t.Fatalf("Add(pegasus problem) on chimera packer = %v, want *PackError{ReasonTopology}", err)
	}
	if n := occupiedTiles(k); n != 0 {
		t.Fatalf("failed Add left %d tiles occupied", n)
	}
	// Same family and size → compatible, regardless of instance identity.
	if _, err := k.Add(memberProblem(t, topo.DWave2000Q(), 22, 1, 3)); err != nil {
		t.Fatalf("Add(problem from an equal chimera instance): %v", err)
	}
}

// TestPackCapacityAndReset fills the chip until Add reports ReasonCapacity,
// then checks Reset makes the same member fit again — the flush-and-retry
// cycle the scheduler relies on.
func TestPackCapacityAndReset(t *testing.T) {
	g := topo.DWave2000Q()
	p, err := NewPacker(g)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	ep := memberProblem(t, g, 31, 1, 3)
	numTiles := len(g.Tiles())
	added := 0
	var capErr *PackError
	for added <= numTiles {
		if _, err := k.Add(ep); err != nil {
			if !errors.As(err, &capErr) || capErr.Reason != ReasonCapacity {
				t.Fatalf("after %d members: %v, want ReasonCapacity", added, err)
			}
			break
		}
		added++
	}
	if capErr == nil {
		t.Fatalf("chip never filled after %d members", added)
	}
	if added == 0 || added > numTiles {
		t.Fatalf("placed %d single-tile members on a %d-tile chip", added, numTiles)
	}
	k.Reset()
	if _, err := k.Add(ep); err != nil {
		t.Fatalf("Add after Reset: %v", err)
	}
}

// TestPackAvoidsBrokenQubits checks that first-fit skips cells whose working
// mask cannot host the member's used positions.
func TestPackAvoidsBrokenQubits(t *testing.T) {
	clean := topo.DWave2000Q()
	ep := memberProblem(t, clean, 41, 1, 3)

	// Break one qubit in each of the first three cells.
	var broken []int
	for _, tile := range clean.Tiles()[:3] {
		broken = append(broken, tile.A[0])
	}
	faulty := topo.NewChimera(16, 16, 4, broken...)
	p, err := NewPacker(faulty)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	delta, err := k.Add(ep)
	if err != nil {
		t.Fatalf("Add on faulted chip: %v", err)
	}
	for _, q := range relocatedQubits(k, ep, delta) {
		if faulty.IsBroken(q) {
			t.Fatalf("member placed onto broken qubit %d", q)
		}
	}
}

// TestPackTranslationPreservesCouplers verifies the tile translation on a
// member with inter-tile chains: moved off its occupied original cells,
// every relocated coupler must exist on the hardware graph.
func TestPackTranslationPreservesCouplers(t *testing.T) {
	g := topo.DWave2000Q()
	p, err := NewPacker(g)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	// Occupy the low tiles with small members so the chained member cannot
	// use its original placement.
	for i := int64(0); i < 6; i++ {
		if _, err := k.Add(memberProblem(t, g, 50+i, 1, 3)); err != nil {
			t.Fatal(err)
		}
	}
	chained := memberProblem(t, g, 60, 5, 5)
	delta, err := k.Add(chained)
	if err != nil {
		t.Fatalf("Add(chained member): %v", err)
	}
	qubits := relocatedQubits(k, chained, delta)
	w := chained.WireView()
	moved := false
	for i, q := range w.Qubits {
		if qubits[i] != q {
			moved = true
		}
		for e := w.AdjStart[i]; e < w.AdjStart[i+1]; e++ {
			other := w.AdjOther[e]
			if !g.Coupled(qubits[i], qubits[other]) {
				t.Fatalf("relocated coupler %d–%d does not exist on the device",
					qubits[i], qubits[other])
			}
		}
	}
	if !moved {
		t.Fatal("chained member kept its original placement despite occupied cells")
	}
}

// TestPackSteadyStateAllocs is the hot-path gate: after warm-up, a full
// Reset + Add cycle at a fixed batch shape allocates nothing.
func TestPackSteadyStateAllocs(t *testing.T) {
	g := topo.DWave2000Q()
	p, err := NewPacker(g)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	members := []*anneal.EmbeddedProblem{
		memberProblem(t, g, 71, 1, 3),
		memberProblem(t, g, 72, 4, 5),
		memberProblem(t, g, 73, 2, 6),
	}
	cycle := func() {
		k.Reset()
		for _, ep := range members {
			if _, err := k.Add(ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm buffer capacities
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state pack cycle allocates %.1f objects per run, want 0", allocs)
	}
}
