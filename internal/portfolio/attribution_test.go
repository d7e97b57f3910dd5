package portfolio

import (
	"context"
	"strings"
	"testing"

	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/sat"
)

// TestCubeEventAttribution: cube runs attribute per-cube verdicts to their
// worker "cube/w<i>", and all of it to one solve id. A run the probe decides
// outright traces the probe's search under "cube/probe".
func TestCubeEventAttribution(t *testing.T) {
	ring := obs.NewRing(4096)
	inst := gen.SatisfiableRandom3SAT(40, 168, 7)
	out, err := SolveCubes(context.Background(), inst.Formula, CubeOptions{
		Depth:          2,
		Workers:        2,
		ProbeConflicts: 1, // keep the probe inconclusive so cubes actually run
		Trace:          ring,
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
		if _, ok := ev.E.(obs.CubeEvent); ok {
			cubeEvents++
			if !strings.HasPrefix(ev.Src, "cube/w") {
				t.Fatalf("cube verdict from %q, want cube/w<i>", ev.Src)
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

	ring = obs.NewRing(4096)
	unsat := gen.UnsatisfiableRandom3SAT(30, 150, 3)
	out, err = SolveCubes(context.Background(), unsat.Formula, CubeOptions{
		Depth:   2,
		Workers: 2,
		Trace:   ring,
	})
	if err != nil {
		t.Fatalf("probe-decided cubes: %v", err)
	}
	if out.Result.Status != sat.Unsat || out.Cubes != 0 {
		t.Fatalf("status = %v with %d cubes, want Unsat decided by the probe", out.Result.Status, out.Cubes)
	}
	evs := ring.Events()
	if len(evs) == 0 {
		t.Fatal("probe-decided run recorded no events")
	}
	for _, ev := range evs {
		if ev.Src != "cube/probe" || ev.Solve == "" || ev.Solve != evs[0].Solve {
			t.Fatalf("event %s from %q under solve %q, want cube/probe under one solve id", ev.T, ev.Src, ev.Solve)
		}
	}
}
