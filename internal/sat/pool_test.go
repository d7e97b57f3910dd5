package sat

import (
	"math/rand"
	"sync"
	"testing"

	"hyqsat/internal/cnf"
)

func sameResult(t *testing.T, label string, fresh, pooled Result) {
	t.Helper()
	if fresh.Status != pooled.Status {
		t.Fatalf("%s: status fresh=%v pooled=%v", label, fresh.Status, pooled.Status)
	}
	if fresh.Stats != pooled.Stats {
		t.Fatalf("%s: stats diverge\nfresh:  %+v\npooled: %+v", label, fresh.Stats, pooled.Stats)
	}
	if len(fresh.Model) != len(pooled.Model) {
		t.Fatalf("%s: model lengths %d vs %d", label, len(fresh.Model), len(pooled.Model))
	}
	for i := range fresh.Model {
		if fresh.Model[i] != pooled.Model[i] {
			t.Fatalf("%s: model diverges at var %d", label, i)
		}
	}
}

// TestPoolBitIdentical: a recycled solver must behave exactly like a fresh
// one — same status, same model, same search statistics — over a corpus that
// deliberately pollutes the recycled state: formula sizes shrink and grow
// (stale watch rows, undersized scratch), configurations alternate between
// the MiniSAT and KisSAT presets, and TrackVisits toggles on and off.
func TestPoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := NewPool()

	type job struct {
		f    *cnf.Formula
		opts Options
	}
	var jobs []job
	for i := 0; i < 40; i++ {
		nv := []int{6, 18, 4, 12, 9}[i%5] // shrink/grow cycles
		nc := nv*4 + rng.Intn(10)
		var f *cnf.Formula
		if i%3 == 0 {
			f = randomFormula(rng, nv, nc, 3) // includes units, duplicates
		} else {
			f = random3SAT(rng, nv, nc)
		}
		opts := MiniSATOptions()
		if i%2 == 1 {
			opts = KissatOptions()
		}
		opts.TrackVisits = i%4 == 2
		jobs = append(jobs, job{f, opts})
	}
	// An immediately-unsat formula (empty clause) exercises the ingestion
	// failure path on recycled state too.
	fu := cnf.New(3)
	fu.AddClause(cnf.Clause{cnf.MkLit(0, true)})
	fu.AddClause(cnf.Clause{cnf.MkLit(0, false)})
	fu.AddClause(cnf.Clause{cnf.MkLit(1, true), cnf.MkLit(2, true)})
	jobs = append(jobs, job{fu, MiniSATOptions()})

	for i, j := range jobs {
		fresh := New(j.f, j.opts).Solve()
		s := pool.Get(j.f, j.opts)
		pooled := s.Solve()
		sameResult(t, "job", fresh, pooled)
		pool.Put(s)
		_ = i
	}
}

// TestPoolConcurrent runs many goroutines through one pool, each comparing
// its pooled result against a fresh solver. Meaningful under -race: it pins
// that Get/Put hand-offs publish solver state correctly.
func TestPoolConcurrent(t *testing.T) {
	pool := NewPool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < 10; i++ {
				f := random3SAT(rng, 8+w%3, 30+rng.Intn(12))
				opts := MiniSATOptions()
				fresh := New(f, opts).Solve()
				s := pool.Get(f, opts)
				pooled := s.Solve()
				if fresh.Status != pooled.Status || fresh.Stats != pooled.Stats {
					t.Errorf("worker %d job %d: pooled solve diverged from fresh", w, i)
				}
				pool.Put(s)
			}
		}(w)
	}
	wg.Wait()
}

// TestPoolModelSurvivesRecycle: a model returned before Put must stay valid
// after the solver is recycled for another job.
func TestPoolModelSurvivesRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := NewPool()
	var f *cnf.Formula
	for {
		f = random3SAT(rng, 8, 20)
		if New(f, MiniSATOptions()).Solve().Status == Sat {
			break
		}
	}
	s := pool.Get(f, MiniSATOptions())
	res := s.Solve()
	if res.Status != Sat {
		t.Fatal("expected Sat")
	}
	saved := make([]bool, len(res.Model))
	copy(saved, res.Model)
	pool.Put(s)
	// Churn the pool through other jobs, including Sat ones that set models.
	for i := 0; i < 5; i++ {
		g := random3SAT(rng, 10, 25)
		s2 := pool.Get(g, KissatOptions())
		s2.Solve()
		pool.Put(s2)
	}
	for i := range saved {
		if res.Model[i] != saved[i] {
			t.Fatalf("recycling clobbered a returned model at var %d", i)
		}
	}
}
