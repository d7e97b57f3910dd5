package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/sat"
)

func TestPortfolioSatisfiable(t *testing.T) {
	inst := gen.SatisfiableRandom3SAT(40, 168, 5)
	out, err := SolveWith(context.Background(), inst.Formula, DefaultEntrants(1, nil), RaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Sat {
		t.Fatalf("status %v", out.Result.Status)
	}
	if !cnf.FromBools(out.Result.Model[:inst.Formula.NumVars]).Satisfies(inst.Formula) {
		t.Fatal("winning model invalid")
	}
	if out.Winner == "" || out.Elapsed <= 0 {
		t.Fatalf("outcome metadata missing: %+v", out)
	}
}

func TestPortfolioUnsatisfiable(t *testing.T) {
	inst := gen.CmpAdd(6, 3)
	out, err := SolveWith(context.Background(), inst.Formula, DefaultEntrants(2, nil), RaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Unsat {
		t.Fatalf("status %v", out.Result.Status)
	}
}

func TestPortfolioContextCancel(t *testing.T) {
	// A hard instance with a pre-cancelled deadline must return promptly.
	rng := rand.New(rand.NewSource(7))
	f := cnf.New(200)
	for i := 0; i < 900; i++ {
		perm := rng.Perm(200)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		f.AddClause(c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveWith(ctx, f, []Entrant{MiniSATEntrant()}, RaceOptions{})
	if err == nil {
		// The instance may legitimately be solved within 50ms; accept both.
		return
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

func TestPortfolioNoEntrants(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	if _, err := SolveWith(context.Background(), f, nil, RaceOptions{}); err == nil {
		t.Fatal("expected error with no entrants")
	}
}

func TestPortfolioRejectsInvalidModels(t *testing.T) {
	f := cnf.New(2)
	f.Add(1)
	f.Add(2)
	liar := Entrant{
		Name: "liar",
		Run: func(_ context.Context, _ RunInput) RunOutput {
			return RunOutput{Result: sat.Result{Status: sat.Sat, Model: []bool{false, false}}}
		},
	}
	if _, err := SolveWith(context.Background(), f, []Entrant{liar}, RaceOptions{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestPortfolioCertifiedSat(t *testing.T) {
	inst := gen.SatisfiableRandom3SAT(40, 168, 11)
	out, err := SolveWith(context.Background(), inst.Formula, DefaultEntrants(3, nil), RaceOptions{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Sat || !out.Certified {
		t.Fatalf("status=%v certified=%v", out.Result.Status, out.Certified)
	}
}

func TestPortfolioCertifiedUnsat(t *testing.T) {
	inst := gen.CmpAdd(6, 4)
	if inst.Expected != sat.Unsat {
		t.Fatalf("expected UNSAT fixture, got %v", inst.Expected)
	}
	out, err := SolveWith(context.Background(), inst.Formula, DefaultEntrants(4, nil), RaceOptions{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Unsat || !out.Certified {
		t.Fatalf("status=%v certified=%v", out.Result.Status, out.Certified)
	}
}

func TestPortfolioCertifiedRejectsLyingUnsat(t *testing.T) {
	// An entrant claiming UNSAT on a satisfiable formula without a usable
	// proof must lose the certified race.
	f := cnf.New(2)
	f.Add(1, 2)
	liar := Entrant{
		Name: "unsat-liar",
		Run: func(_ context.Context, _ RunInput) RunOutput {
			return RunOutput{Result: sat.Result{Status: sat.Unsat}}
		},
	}
	if _, err := SolveWith(context.Background(), f, []Entrant{liar}, RaceOptions{Certify: true}); err == nil {
		t.Fatal("uncertified UNSAT verdict accepted")
	}
}

func TestPortfolioFirstWinnerCancellation(t *testing.T) {
	// Dedicated concurrent-cancellation stress: one instant winner racing
	// slow losers that only stop when the race is decided. The losers must
	// observe cancellation and exit instead of racing the returned Outcome.
	// Run with -race; the test fails under the race detector if the fan-out
	// shares state unsafely.
	inst := gen.SatisfiableRandom3SAT(30, 126, 21)
	slow := func(name string) Entrant {
		return Entrant{
			Name: name,
			Run: func(ctx context.Context, _ RunInput) RunOutput {
				<-ctx.Done()
				return RunOutput{Result: sat.Result{Status: sat.Unknown}} // never concludes
			},
		}
	}
	for trial := 0; trial < 25; trial++ {
		entrants := []Entrant{slow("slow1"), MiniSATEntrant(), slow("slow2")}
		out, err := SolveWith(context.Background(), inst.Formula, entrants, RaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Status != sat.Sat {
			t.Fatalf("trial %d: status %v", trial, out.Result.Status)
		}
	}
}

func TestPortfolioCancelWhileRacing(t *testing.T) {
	// Cancellation arriving mid-race (not pre-expired) must unwind promptly
	// even though no entrant ever concludes.
	f := cnf.New(3)
	f.Add(1, 2, 3)
	stuck := Entrant{
		Name: "stuck",
		Run: func(ctx context.Context, _ RunInput) RunOutput {
			<-ctx.Done()
			return RunOutput{Result: sat.Result{Status: sat.Unknown}}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := SolveWith(ctx, f, []Entrant{stuck, stuck}, RaceOptions{}); err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

func TestPortfolioAggregatesLoserStats(t *testing.T) {
	// Regression: outcomes used to report only the winner's result,
	// silently dropping the conflicts/QA reads burnt by cancelled losers.
	// A race between a loser that runs until it is interrupted and then
	// reports known work, and a winner, must still show the loser's work in
	// the aggregate.
	f := cnf.New(2)
	f.Add(1, 2)
	started := make(chan struct{})
	loser := Entrant{
		Name: "loser",
		Run: func(ctx context.Context, _ RunInput) RunOutput {
			close(started)
			<-ctx.Done()
			return RunOutput{
				Result:  sat.Result{Status: sat.Unknown, Stats: sat.Stats{Conflicts: 123, Propagations: 456}},
				QAReads: 7,
				QACalls: 3,
			}
		},
	}
	winner := Entrant{
		Name: "winner",
		Run: func(ctx context.Context, in RunInput) RunOutput {
			<-started // the loser is running before the race is decided
			s := sat.New(in.Formula, sat.MiniSATOptions())
			return RunOutput{Result: s.Solve()}
		},
	}
	out, err := SolveWith(context.Background(), f, []Entrant{loser, winner}, RaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != "winner" {
		t.Fatalf("winner %q", out.Winner)
	}
	if out.Aggregate.SAT.Conflicts < 123 || out.Aggregate.SAT.Propagations < 456 {
		t.Fatalf("loser stats missing from aggregate: %+v", out.Aggregate.SAT)
	}
	if out.Aggregate.QAReads < 7 || out.Aggregate.QACalls < 3 {
		t.Fatalf("QA work missing from aggregate: reads=%d calls=%d",
			out.Aggregate.QAReads, out.Aggregate.QACalls)
	}
}

func TestPortfolioHybridQAWorkAggregated(t *testing.T) {
	// The hybrid entrant's QA effort must surface in the aggregate even when
	// a classical entrant wins the race.
	inst := gen.SatisfiableRandom3SAT(40, 168, 13)
	out, err := SolveWith(context.Background(), inst.Formula, []Entrant{HyQSATEntrant(5, nil)}, RaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Status != sat.Sat {
		t.Fatalf("status %v", out.Result.Status)
	}
	if out.Aggregate.QACalls == 0 {
		t.Fatal("hybrid ran but aggregate shows no QA calls")
	}
}

func TestPortfolioAgreesWithDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		inst := gen.Random3SAT(30, 126, rng.Int63())
		want := sat.New(inst.Formula.Copy(), sat.MiniSATOptions()).Solve().Status
		out, err := SolveWith(context.Background(), inst.Formula, DefaultEntrants(int64(trial), nil), RaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Status != want {
			t.Fatalf("trial %d: portfolio %v, direct %v", trial, out.Result.Status, want)
		}
	}
}

// TestPortfolioRunsEachEntrantOnce: the race calls every entrant's Run
// exactly once. An entrant that returns Unknown while the race is still
// undecided has given up; it is reported as a failed entrant naming it, and
// it is not run again.
func TestPortfolioRunsEachEntrantOnce(t *testing.T) {
	f := cnf.New(3)
	f.Add(1, 2, 3)
	var quits atomic.Int32
	quitted := make(chan struct{})
	quitter := Entrant{
		Name: "quitter",
		Run: func(context.Context, RunInput) RunOutput {
			if quits.Add(1) == 1 {
				close(quitted)
			}
			return RunOutput{Result: sat.Result{Status: sat.Unknown}}
		},
	}
	var wins atomic.Int32
	winner := Entrant{
		Name: "winner",
		Run: func(_ context.Context, in RunInput) RunOutput {
			wins.Add(1)
			<-quitted
			// Give a re-run of the quitter time to happen.
			time.Sleep(20 * time.Millisecond)
			return RunOutput{Result: sat.New(in.Formula, sat.MiniSATOptions()).Solve()}
		},
	}
	ring := obs.NewRing(64)
	out, err := SolveWith(context.Background(), f, []Entrant{quitter, winner}, RaceOptions{Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != "winner" || out.Result.Status != sat.Sat {
		t.Fatalf("winner=%q status=%v", out.Winner, out.Result.Status)
	}
	if q, w := quits.Load(), wins.Load(); q != 1 || w != 1 {
		t.Fatalf("Run calls: quitter=%d winner=%d, want 1 each", q, w)
	}
	var gaveUp bool
	for _, ev := range ring.Events() {
		if pe, ok := ev.E.(obs.PortfolioEvent); ok && pe.Entrant == "quitter" && pe.Status == "error" {
			gaveUp = strings.Contains(pe.Err, "quitter")
		}
	}
	if !gaveUp {
		t.Fatal("quitter's give-up not reported as an error event naming it")
	}
}

// TestPortfolioAllEntrantsGiveUp: when every entrant returns Unknown with
// the race still undecided, the race fails at once with an entrant error
// instead of waiting for the caller's context.
func TestPortfolioAllEntrantsGiveUp(t *testing.T) {
	f := cnf.New(3)
	f.Add(1, 2, 3)
	quitter := func(name string) Entrant {
		return Entrant{Name: name, Run: func(context.Context, RunInput) RunOutput {
			return RunOutput{Result: sat.Result{Status: sat.Unknown}}
		}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := SolveWith(ctx, f, []Entrant{quitter("q1"), quitter("q2")}, RaceOptions{})
	if err == nil || ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v, want an entrant error before the deadline", err, time.Since(start))
	}
	if !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("err = %v, want a give-up error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("race took %v to fail", d)
	}
}
