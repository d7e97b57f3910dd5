package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/portfolio"
	"hyqsat/internal/sat"
)

// recordCubeTrace runs a two-worker cube-and-conquer solve with a QA warm-up
// before each cube, so the workers' streams carry hybrid frontend, device
// and quality events, and records it to a JSONL trace file, returning the
// path.
func recordCubeTrace(t *testing.T) string {
	t.Helper()
	path, out := solveCubesTraced(t, gen.SatisfiableRandom3SAT(40, 168, 7).Formula,
		portfolio.CubeOptions{Depth: 2, Workers: 2, ProbeConflicts: 1, Seed: 3, QAWarmup: 1})
	if out.Result.Status != sat.Sat {
		t.Fatalf("cube status = %v, want Sat", out.Result.Status)
	}
	return path
}

// solveCubesTraced runs SolveCubes on f with o, tracing to a JSONL file, and
// returns the file's path and the run's outcome.
func solveCubesTraced(t *testing.T, f *cnf.Formula, o portfolio.CubeOptions) (string, portfolio.CubeOutcome) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cubes.jsonl")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(file)
	o.Trace = sink
	out, err := portfolio.SolveCubes(context.Background(), f, o)
	if err != nil {
		t.Fatalf("cubes: %v", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	return path, out
}

// TestReportFromCubeTrace is the acceptance path: a cube-and-conquer trace
// must reconstruct a per-worker phase breakdown and the QA-quality report.
func TestReportFromCubeTrace(t *testing.T) {
	path := recordCubeTrace(t)
	var out, errb bytes.Buffer
	if rc := run([]string{path}, nil, &out, &errb); rc != 0 {
		t.Fatalf("run = %d, stderr: %s", rc, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		fmt.Sprintf("schema %d", obs.TraceSchemaVersion), // header parsed
		"source cube/w",         // worker attribution survived the trace
		"frontend", "qa_device", // per-worker phase breakdown
		"quality:", "energy gap:", "chain-break by max len:", // quality report
		"cubes: ", // cube stats
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q\nreport:\n%s", want, text)
		}
	}

	// Offline equals live: the solve-level conflict count read back from the
	// trace of an unsatisfiable cube run is the aggregate the CLI prints
	// with -stats, refuted cubes included.
	unsatPath, cubes := solveCubesTraced(t, gen.UnsatisfiableRandom3SAT(100, 426, 5).Formula,
		portfolio.CubeOptions{Depth: 3, Workers: 2, ProbeConflicts: 200})
	if cubes.Result.Status != sat.Unsat || cubes.Refuted == 0 {
		t.Fatalf("cube run ended %v with %d refuted cubes, want Unsat by refutation",
			cubes.Result.Status, cubes.Refuted)
	}
	var rep bytes.Buffer
	if rc := run([]string{unsatPath}, nil, &rep, &errb); rc != 0 {
		t.Fatalf("run = %d, stderr: %s", rc, errb.String())
	}
	// The first quality line after the "solve" header is the solve level's.
	_, solve, _ := strings.Cut(rep.String(), "\nsolve ")
	_, quality, _ := strings.Cut(solve, "quality: ")
	quality, _, _ = strings.Cut(quality, "\n")
	want := fmt.Sprintf(" conflicts=%d ", cubes.Aggregate.SAT.Conflicts)
	if !strings.Contains(quality, want) {
		t.Errorf("solve-level quality %q, want%s(the -stats aggregate)\nreport:\n%s",
			quality, want, rep.String())
	}
}

func TestReportJSON(t *testing.T) {
	path := recordCubeTrace(t)
	var out, errb bytes.Buffer
	if rc := run([]string{"-json", "-calls", path}, nil, &out, &errb); rc != 0 {
		t.Fatalf("run = %d, stderr: %s", rc, errb.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Header.Schema != obs.TraceSchemaVersion {
		t.Fatalf("header schema = %d, want %d", rep.Header.Schema, obs.TraceSchemaVersion)
	}
	if len(rep.Solves) != 1 {
		t.Fatalf("got %d solves, want 1 (one cube run id)", len(rep.Solves))
	}
	sr := rep.Solves[0]
	if sr.Cubes == nil || sr.Cubes.Cubes == 0 {
		t.Fatalf("cube stats missing: %+v", sr.Cubes)
	}
	// Which worker's warm-up reaches the annealer first is scheduling; take
	// the first worker source that ran one.
	var worker *SourceReport
	for i := range sr.Sources {
		if strings.HasPrefix(sr.Sources[i].Name, "cube/w") && len(sr.Sources[i].QACalls) > 0 {
			worker = &sr.Sources[i]
			break
		}
	}
	if worker == nil {
		t.Fatalf("no cube/w<i> source with QA calls in %+v", sr.Sources)
	}
	if len(worker.Aggregate.Phases) == 0 {
		t.Fatal("worker has no phase breakdown")
	}
	if worker.Aggregate.Quality.QACalls == 0 {
		t.Fatal("worker quality has no QA calls")
	}
	if worker.QACalls[0].Chains == 0 {
		t.Fatal("QA call row lost the chain count")
	}
}

func TestCompare(t *testing.T) {
	path := recordCubeTrace(t)
	var out, errb bytes.Buffer
	if rc := run([]string{"-compare", path, path}, nil, &out, &errb); rc != 0 {
		t.Fatalf("run = %d, stderr: %s", rc, errb.String())
	}
	text := out.String()
	for _, want := range []string{"compare", "phase", "quality", "chain_break_rate"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q\noutput:\n%s", want, text)
		}
	}
	// Self-compare: every delta must be 0%.
	if strings.Contains(text, "new") || strings.Contains(strings.ReplaceAll(text, "+0.0%", ""), "+") {
		t.Errorf("self-compare shows nonzero deltas:\n%s", text)
	}
}

// TestLegacyHeaderlessTrace keeps ReadTrace/tracereport tolerant of traces
// recorded before the header record existed (e.g. flight-recorder dumps).
func TestLegacyHeaderlessTrace(t *testing.T) {
	ring := obs.NewRing(16)
	ring.Emit(obs.PhaseSpan{Phase: "cdcl", StartNs: 0, EndNs: 1000})
	ring.Emit(obs.StrategyHitEvent{Iteration: 1, Class: "satisfiable", Strategy: 1})
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Dump(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if rc := run([]string{path}, nil, &out, &errb); rc != 0 {
		t.Fatalf("run = %d, stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "no header (legacy trace)") {
		t.Errorf("legacy trace not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cdcl") {
		t.Errorf("legacy trace lost its phase span:\n%s", out.String())
	}
}

func TestBadInputExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"/nonexistent/trace.jsonl"}, nil, &out, &errb); rc != 1 {
		t.Fatalf("missing file: run = %d, want 1", rc)
	}
	errb.Reset()
	if rc := run([]string{"a", "b"}, nil, &out, &errb); rc != 2 {
		t.Fatalf("two positional args: run = %d, want 2", rc)
	}
	errb.Reset()
	if rc := run([]string{}, strings.NewReader("{not json}\n"), &out, &errb); rc != 1 {
		t.Fatalf("malformed stdin: run = %d, want 1", rc)
	}
}
