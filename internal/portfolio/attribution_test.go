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
// worker "cube/w<i>", and all of it to one solve id.
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
}
