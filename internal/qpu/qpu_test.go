package qpu

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// testEmbeddedProblem builds a small real embedding so read sets drawn by
// scripted backends pass boundary validation.
func testEmbeddedProblem(t testing.TB) *anneal.EmbeddedProblem {
	rng := rand.New(rand.NewSource(9))
	g := topo.DWave2000Q()
	var clauses []cnf.Clause
	for i := 0; i < 8; i++ {
		perm := rng.Perm(8)[:3]
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
	if res.EmbeddedClauses == 0 {
		t.Fatal("nothing embedded")
	}
	embEnc := enc.Restrict(res.EmbeddedSet)
	is := embEnc.Program(&qubo.Sums{}, false)
	return new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
}

func testSampler() *anneal.Sampler {
	return anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 5)
}

// scripted is a Backend whose call outcomes follow a script: errs[i] fails
// call i (nil succeeds through the real sampler), panicAt[i] panics instead.
// Calls past the script's end succeed.
type scripted struct {
	sampler *anneal.Sampler
	errs    []error
	panicAt map[int]bool

	mu    sync.Mutex
	calls int
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scripted) Submit(_ context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	s.mu.Lock()
	i := s.calls
	s.calls++
	s.mu.Unlock()
	if s.panicAt[i] {
		panic("sweep kernel exploded")
	}
	if i < len(s.errs) && s.errs[i] != nil {
		return anneal.ReadSet{}, s.errs[i]
	}
	return s.sampler.Sample(ep, reads), nil
}

// fakeClock is an advanceable clock for deterministic cooldown tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// instantSleep is a Sleep that never waits (it still honours cancellation).
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }
