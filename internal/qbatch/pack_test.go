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
// numVars ≈ 3·numClauses gives (mostly) tile-local members while small
// numVars forces the translation path.
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
	return anneal.EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
}

// TestPackDisjointPlacement is the packer's core invariant: committed
// members occupy pairwise-disjoint tiles and pairwise-disjoint physical
// qubits, even though every member was embedded starting from cell 0 of the
// same topology, and every member's couplers survive its relocation —
// through per-tile renaming for tile-local members as well as through
// translation for chained ones.
func TestPackDisjointPlacement(t *testing.T) {
	g := topo.DWave2000Q()
	p, err := NewPacker(g)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	members := []*anneal.EmbeddedProblem{
		memberProblem(t, g, 1, 1, 3), // single clause, tile-local
		memberProblem(t, g, 2, 4, 5), // shared variables → inter-tile chains
		memberProblem(t, g, 3, 2, 6), // variable-disjoint pair
		memberProblem(t, g, 4, 6, 7), // larger, chained
		memberProblem(t, g, 5, 1, 3),
	}
	for i, ep := range members {
		if _, err := k.Add(ep); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if k.Len() != len(members) {
		t.Fatalf("packing has %d members, want %d", k.Len(), len(members))
	}
	seenTile := map[int32]int{}
	seenQubit := map[int]int{}
	for i := range members {
		pl := k.Placement(i)
		if len(pl.QubitMap) != len(members[i].Qubits) {
			t.Fatalf("member %d: qubit map has %d entries for %d qubits", i, len(pl.QubitMap), len(members[i].Qubits))
		}
		for _, tile := range pl.Tiles {
			if prev, dup := seenTile[tile]; dup {
				t.Fatalf("tile %d assigned to members %d and %d", tile, prev, i)
			}
			seenTile[tile] = i
		}
		for _, q := range pl.QubitMap {
			if g.IsBroken(q) {
				t.Fatalf("member %d relocated onto broken qubit %d", i, q)
			}
			if prev, dup := seenQubit[q]; dup {
				t.Fatalf("qubit %d assigned to members %d and %d", q, prev, i)
			}
			seenQubit[q] = i
		}
		w := members[i].WireView()
		for a := range w.Qubits {
			for e := w.AdjStart[a]; e < w.AdjStart[a+1]; e++ {
				b := w.AdjOther[e]
				if !g.Coupled(pl.QubitMap[a], pl.QubitMap[b]) {
					t.Fatalf("member %d: relocated coupler %d–%d does not exist on the device",
						i, pl.QubitMap[a], pl.QubitMap[b])
				}
			}
		}
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
	if k.Len() != 0 {
		t.Fatalf("failed Add left %d members in the packing", k.Len())
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

	faulty := topo.DWave2000Q()
	// Break one qubit in each of the first three cells.
	for _, tile := range faulty.Tiles()[:3] {
		faulty.MarkBroken(tile.A[0])
	}
	p, err := NewPacker(faulty)
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewPacking()
	if _, err := k.Add(ep); err != nil {
		t.Fatalf("Add on faulted chip: %v", err)
	}
	for _, q := range k.Placement(0).QubitMap {
		if faulty.IsBroken(q) {
			t.Fatalf("member placed onto broken qubit %d", q)
		}
	}
}

// TestPackTranslationPreservesCouplers verifies the multi-tile relocation
// mode directly: for a member with inter-tile chains, every relocated
// coupler must exist on the hardware graph.
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
	idx, err := k.Add(chained)
	if err != nil {
		t.Fatalf("Add(chained member): %v", err)
	}
	pl := k.Placement(idx)
	w := chained.WireView()
	moved := false
	for i, q := range w.Qubits {
		if pl.QubitMap[i] != q {
			moved = true
		}
		for e := w.AdjStart[i]; e < w.AdjStart[i+1]; e++ {
			other := w.AdjOther[e]
			if !g.Coupled(pl.QubitMap[i], pl.QubitMap[other]) {
				t.Fatalf("relocated coupler %d–%d does not exist on the device",
					pl.QubitMap[i], pl.QubitMap[other])
			}
		}
	}
	if !moved {
		t.Fatal("chained member kept its original placement despite occupied cells")
	}
}

// TestPackSteadyStateAllocs is the hot-path gate: after warm-up, a full
// Reset + Add + Placement cycle at a fixed batch shape allocates nothing.
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
		for i := range members {
			_ = k.Placement(i)
		}
	}
	cycle() // warm buffer capacities
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state pack cycle allocates %.1f objects per run, want 0", allocs)
	}
}
