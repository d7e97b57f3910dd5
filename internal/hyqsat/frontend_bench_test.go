package hyqsat

import (
	"slices"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// frontendSink and queueSink keep benchmarked results live.
var (
	frontendSink any
	queueSink    []int
)

// BenchmarkColdFrontend times one cold pass of the frontend pipeline
// (encode → Fast → restrict → coefficient adjustment → Ising → EmbedIsing)
// on a uf150 activity queue (the EmbedBench fixture) through the solver's
// own encodeAndEmbed, then each stage on its own, on reused scratch as the
// solver runs them: encode (structure only), Fast, program (restrict,
// adjust, normalise, Ising conversion) and EmbedIsing. The queue
// sub-benchmark times the part of the frontend every iteration runs before
// any embedding: the unsat-set scan and queue generation.
func BenchmarkColdFrontend(b *testing.B) {
	eb, err := NewEmbedBench("chimera")
	if err != nil {
		b.Fatal(err)
	}
	s, idx := eb.s, eb.queue
	if fe := s.encodeAndEmbed(idx); fe.embedded == 0 {
		b.Fatal("fixture queue embedded nothing")
	}
	queue := make([]cnf.Clause, len(idx))
	for i, ci := range idx {
		queue[i] = s.formula.Clauses[ci]
	}
	g := topo.DWave2000Q()
	var fs frontendScratch
	if err := fs.enc.Reset(queue); err != nil {
		b.Fatal(err)
	}
	res := fs.fast.Fast(&fs.enc, g)
	program := func() *qubo.Ising {
		return fs.enc.Restrict(res.EmbeddedSet).Program(&fs.sums, true)
	}
	is := program()
	cs := anneal.ChainStrengthFor(is)
	var enc qubo.Encoding

	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink = s.encodeAndEmbed(idx)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink = enc.Reset(queue)
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frontendSink = fs.fast.Fast(&fs.enc, g)
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
			frontendSink = fs.ising.EmbedIsing(is, res.Embedding, g, cs)
		}
	})
	b.Run("queue", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			queueSink = s.clauseQueue()
		}
	})
}

// TestColdMissAllocs gates the allocations of one whole frontend embedding
// pass, encodeAndEmbed on the 300-clause activity queue, on a solver whose
// run-scoped scratch is warm: only the embedding the pass returns may be
// allocated. The map-backed encoder the dense encoding replaced took 3687
// allocs/run here; the pass now takes 35, under the race detector too (all
// its scratch is solver-held, none pooled), and the bound leaves room for
// toolchain drift.
func TestColdMissAllocs(t *testing.T) {
	f, idx := coldActivityQueue()
	s := New(f, HardwareOptions())
	allocs := testing.AllocsPerRun(5, func() {
		if fe := s.encodeAndEmbed(idx); fe.embedded == 0 {
			t.Fatal("fixture queue embedded nothing")
		}
	})
	t.Logf("embedding pass: %.0f allocs/run", allocs)
	if allocs > 48 {
		t.Fatalf("embedding pass allocated %.0f times per run, want <= 48", allocs)
	}
}

// TestIterationScratchAllocs gates the part of a hybrid iteration that
// builds no embedding at zero allocations in steady state: the unsat-set
// scan and queue generation every iteration runs before embedding, then
// unembedding a read and collecting the embedded variables for the
// feedback strategies.
func TestIterationScratchAllocs(t *testing.T) {
	f, _ := coldActivityQueue()
	s := New(f, HardwareOptions())
	const seed = 7
	s.rng.Seed(seed)
	fe := s.encodeAndEmbed(s.clauseQueue())
	if fe.embedded == 0 {
		t.Fatal("fixture queue embedded nothing")
	}
	sample := anneal.Sample{NodeValues: map[int]bool{}}
	for n := 0; n < fe.embEnc.NumNodes(); n++ {
		sample.NodeValues[n] = n%3 == 0
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.rng.Seed(seed)
		if s.clauseQueue() == nil {
			t.Fatal("fixture formula has no unsatisfied clause")
		}
		s.reader.interpret(fe.embEnc, sample, f.NumVars)
		s.vars = embeddedVars(s.vars[:0], fe.embEnc)
		slices.Sort(s.vars)
	})
	if allocs != 0 {
		t.Fatalf("iteration scratch allocated %.0f times per run, want 0", allocs)
	}
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
	g := topo.DWave2000Q()
	res := embed.Fast(enc, g)
	embEnc := enc.Restrict(res.EmbeddedSet)
	is := embEnc.Program(&qubo.Sums{}, true)
	cs := anneal.ChainStrengthFor(is)
	allocs := testing.AllocsPerRun(5, func() {
		r := embed.Fast(enc, g)
		new(anneal.EmbedScratch).EmbedIsing(is, r.Embedding, g, cs)
	})
	t.Logf("cold Fast + EmbedIsing: %.0f allocs/run", allocs)
	if allocs > 12981/2 {
		t.Fatalf("cold Fast + EmbedIsing allocated %.0f times per run, want <= %d", allocs, 12981/2)
	}
}
