package portfolio

import (
	"context"
	"strings"
	"testing"

	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/sat"
)

// TestRaceEventAttribution pins the attribution contract of a portfolio
// race: every emitted event carries the race's solve id, race-level events
// (winner, share) come from "race", and each entrant's starts, verdicts and
// solver events come from that entrant's name — even though the hybrid
// solver scopes itself as "hyqsat" internally, the outer entrant scope wins.
func TestRaceEventAttribution(t *testing.T) {
	ring := obs.NewRing(4096)
	inst := gen.SatisfiableRandom3SAT(30, 120, 11)
	out, err := SolveWith(context.Background(), inst.Formula,
		[]Entrant{MiniSATEntrant(), HyQSATEntrant(3, nil)},
		RaceOptions{Trace: ring, Share: true})
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	if out.Result.Status != sat.Sat {
		t.Fatalf("status = %v, want Sat", out.Result.Status)
	}

	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var solveID string
	bySrc := map[string]int{}
	for _, ev := range events {
		if solveID == "" {
			solveID = ev.Solve
		}
		if ev.Solve == "" || ev.Solve != solveID {
			t.Fatalf("event %s has solve id %q, want every event under %q",
				ev.T, ev.Solve, solveID)
		}
		if ev.Src == "" {
			t.Fatalf("unattributed %s event", ev.T)
		}
		bySrc[ev.Src]++
		switch pe := ev.E.(type) {
		case obs.PortfolioEvent:
			// Starts and verdicts come from the entrant that ran them; the
			// winner announcement comes from the race itself.
			want := pe.Entrant
			if pe.Status == "winner" {
				want = "race"
			}
			if ev.Src != want {
				t.Fatalf("portfolio %q event from %q, want %q", pe.Status, ev.Src, want)
			}
		case obs.ShareEvent:
			if ev.Src != "race" {
				t.Fatalf("share event from %q, want race", ev.Src)
			}
		case obs.ConflictEvent, obs.RestartEvent, obs.PhaseSpan:
			if ev.Src == "race" {
				t.Fatalf("solver-level %s event attributed to the race", ev.T)
			}
		}
	}
	for _, want := range []string{"race", "minisat", "hyqsat/s3"} {
		if bySrc[want] == 0 {
			t.Errorf("no events from source %q; sources seen: %v", want, bySrc)
		}
	}
}

// TestCubeEventAttribution: cube runs attribute run-level events (share) to
// "cube", per-cube verdicts to their worker "cube/w<i>", and all of it under
// one solve id.
func TestCubeEventAttribution(t *testing.T) {
	ring := obs.NewRing(4096)
	inst := gen.SatisfiableRandom3SAT(40, 168, 7)
	out, err := SolveCubes(context.Background(), inst.Formula, CubeOptions{
		Depth:          2,
		Workers:        2,
		ProbeConflicts: 1, // keep the probe inconclusive so cubes actually run
		Trace:          ring,
		Share:          true,
	})
	if err != nil {
		t.Fatalf("cubes: %v", err)
	}
	if out.Result.Status != sat.Sat {
		t.Fatalf("status = %v, want Sat", out.Result.Status)
	}

	var solveID string
	var cubeEvents, workerSrcs int
	for _, ev := range ring.Events() {
		if solveID == "" {
			solveID = ev.Solve
		}
		if ev.Solve != solveID {
			t.Fatalf("event %s under solve %q, want %q", ev.T, ev.Solve, solveID)
		}
		switch ev.E.(type) {
		case obs.CubeEvent:
			cubeEvents++
			if !strings.HasPrefix(ev.Src, "cube/w") {
				t.Fatalf("cube verdict from %q, want cube/w<i>", ev.Src)
			}
		case obs.ShareEvent:
			if ev.Src != "cube" {
				t.Fatalf("share event from %q, want cube", ev.Src)
			}
		}
		if strings.HasPrefix(ev.Src, "cube/w") {
			workerSrcs++
		}
	}
	if solveID == "" {
		t.Fatal("events carry no solve id")
	}
	if cubeEvents == 0 {
		t.Fatal("no cube verdict events recorded")
	}
	if workerSrcs == 0 {
		t.Fatal("no worker-attributed events recorded")
	}
}
