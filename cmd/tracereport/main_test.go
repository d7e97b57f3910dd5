package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/portfolio"
	"hyqsat/internal/sat"
)

// recordPortfolioTrace runs a sharing portfolio race with a single HyQSAT
// entrant (deterministic: no cross-entrant race for the win) and records it
// to a JSONL trace file, returning the path.
func recordPortfolioTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "race.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(f)
	inst := gen.SatisfiableRandom3SAT(30, 120, 9)
	out, err := portfolio.SolveWith(context.Background(), inst.Formula,
		[]portfolio.Entrant{portfolio.HyQSATEntrant(3)},
		portfolio.RaceOptions{Trace: sink, Share: true})
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	if out.Result.Status != sat.Sat {
		t.Fatalf("race status = %v, want Sat", out.Result.Status)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportFromPortfolioShareTrace is the acceptance path: a portfolio
// share trace must reconstruct a per-entrant phase breakdown and the
// QA-quality report.
func TestReportFromPortfolioShareTrace(t *testing.T) {
	path := recordPortfolioTrace(t)
	var out, errb bytes.Buffer
	if rc := run([]string{path}, nil, &out, &errb); rc != 0 {
		t.Fatalf("run = %d, stderr: %s", rc, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"schema 1",              // header parsed
		"source hyqsat/s3",      // entrant attribution survived the trace
		"frontend", "qa_device", // per-entrant phase breakdown
		"quality:", "energy gap:", "chain-break by max len:", // quality report
		"share: exported=", // bus stats
		"winner=hyqsat/s3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q\nreport:\n%s", want, text)
		}
	}
}

func TestReportJSON(t *testing.T) {
	path := recordPortfolioTrace(t)
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
		t.Fatalf("got %d solves, want 1 (one race id)", len(rep.Solves))
	}
	sr := rep.Solves[0]
	if sr.Portfolio == nil || sr.Portfolio.Winner != "hyqsat/s3" {
		t.Fatalf("portfolio stats missing or wrong winner: %+v", sr.Portfolio)
	}
	if sr.Share == nil {
		t.Fatal("share stats missing")
	}
	var entrant *SourceReport
	for i := range sr.Sources {
		if sr.Sources[i].Name == "hyqsat/s3" {
			entrant = &sr.Sources[i]
		}
	}
	if entrant == nil {
		t.Fatalf("no hyqsat/s3 source in %+v", sr.Sources)
	}
	if len(entrant.Aggregate.Phases) == 0 {
		t.Fatal("entrant has no phase breakdown")
	}
	if entrant.Aggregate.Quality.QACalls == 0 {
		t.Fatal("entrant quality has no QA calls")
	}
	if len(entrant.QACalls) == 0 {
		t.Fatal("-calls produced no QA call table")
	}
	if entrant.QACalls[0].Chains == 0 {
		t.Fatal("QA call row lost the chain count")
	}
}

func TestCompare(t *testing.T) {
	path := recordPortfolioTrace(t)
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
