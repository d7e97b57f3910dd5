package hyqsat

import (
	"math/rand"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/chimera"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/qubo"
)

// coldActivityQueue returns a uf150-sized formula and a 300-clause BFS
// activity queue over it, the shape of queue every hybrid-mode warm-up
// iteration embeds (activity queues share variables, so they are never
// template-eligible and always take the cold Fast path).
func coldActivityQueue() (*cnf.Formula, []int) {
	f := gen.Random3SAT(150, 645, 3).Formula
	rng := rand.New(rand.NewSource(5))
	scores := make([]float64, len(f.Clauses))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	cands := make([]int, len(f.Clauses))
	for i := range cands {
		cands[i] = i
	}
	return f, GenerateQueue(f, cnf.VarAdjacency(f), scores, cands, 30, 300, rng)
}

// frontendSink keeps benchmarked results live.
var frontendSink any

// BenchmarkColdFrontend times one cold pass of the frontend pipeline
// (encode → Fast → restrict → coefficient adjustment → Ising → EmbedIsing)
// on a uf150 activity queue through the solver's own encodeAndEmbed, then
// each stage on its own: encode, Fast, program (restrict, adjust,
// normalise, Ising conversion) and EmbedIsing.
func BenchmarkColdFrontend(b *testing.B) {
	f, idx := coldActivityQueue()
	s := New(f, HardwareOptions())
	if ent := s.encodeAndEmbed(idx); ent.embedded == 0 || ent.viaTemplate {
		b.Fatalf("fixture queue did not take the cold Fast path (embedded %d)", ent.embedded)
	}
	queue := make([]cnf.Clause, len(idx))
	for i, ci := range idx {
		queue[i] = f.Clauses[ci]
	}
	g := chimera.DWave2000Q()
	enc, err := qubo.EncodeSubClauses(queue)
	if err != nil {
		b.Fatal(err)
	}
	res := embed.Fast(enc, g)
	program := func() *qubo.Ising {
		embEnc := enc.Restrict(res.EmbeddedSet)
		embEnc.AdjustCoefficients()
		norm, _ := embEnc.Poly.Normalized()
		return norm.ToIsing()
	}
	is := program()
	cs := anneal.ChainStrengthFor(is)

	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink = s.encodeAndEmbed(idx)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink, _ = qubo.EncodeSubClauses(queue)
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink = embed.Fast(enc, g)
		}
	})
	b.Run("program", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink = program()
		}
	})
	b.Run("embedising", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink = anneal.EmbedIsing(is, res.Embedding, g, cs)
		}
	})
}

// TestColdFastEmbedIsingAllocs gates the allocations of one cold Fast
// embedding plus EmbedIsing on a 300-clause activity queue. The map-based
// Fast and EmbedIsing that the dense-state rewrite replaced took 12981
// allocs/run on this fixture; the bound is half of that.
func TestColdFastEmbedIsingAllocs(t *testing.T) {
	f, idx := coldActivityQueue()
	queue := make([]cnf.Clause, len(idx))
	for i, ci := range idx {
		queue[i] = f.Clauses[ci]
	}
	enc, err := qubo.Encode(queue)
	if err != nil {
		t.Fatal(err)
	}
	g := chimera.DWave2000Q()
	res := embed.Fast(enc, g)
	embEnc := enc.Restrict(res.EmbeddedSet)
	embEnc.AdjustCoefficients()
	norm, _ := embEnc.Poly.Normalized()
	is := norm.ToIsing()
	cs := anneal.ChainStrengthFor(is)
	allocs := testing.AllocsPerRun(5, func() {
		r := embed.Fast(enc, g)
		anneal.EmbedIsing(is, r.Embedding, g, cs)
	})
	t.Logf("cold Fast + EmbedIsing: %.0f allocs/run", allocs)
	if allocs > 12981/2 {
		t.Fatalf("cold Fast + EmbedIsing allocated %.0f times per run, want <= %d", allocs, 12981/2)
	}
}
