package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/verify"
)

const satCNF = "p cnf 3 2\n1 2 3 0\n-1 2 0\n"

// xorSquare is the smallest UNSAT 3-CNF with no unit clauses; being 3-CNF
// already, the hybrid solver's proof premise equals the input formula.
const unsatCNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"

// runCLI drives the injected main with stdin input and captures the streams.
func runCLI(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCLIExitCodes(t *testing.T) {
	for _, solver := range []string{"minisat", "kissat", "hyqsat"} {
		args := []string{"-solver", solver, "-seed", "2"}
		if solver == "hyqsat" {
			args = append(args, "-mode", "sim")
		}
		code, out, errOut := runCLI(t, args, satCNF)
		if code != 10 || !strings.Contains(out, "s SATISFIABLE") {
			t.Fatalf("%s SAT: code=%d out=%q err=%q", solver, code, out, errOut)
		}
		if !strings.Contains(out, "\nv ") && !strings.HasPrefix(out, "v ") {
			t.Fatalf("%s SAT: missing v-line: %q", solver, out)
		}
		code, out, errOut = runCLI(t, args, unsatCNF)
		if code != 20 || !strings.Contains(out, "s UNSATISFIABLE") {
			t.Fatalf("%s UNSAT: code=%d out=%q err=%q", solver, code, out, errOut)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
	}{
		{"unknown solver", []string{"-solver", "cryptominisat"}, satCNF},
		{"unknown flag", []string{"-frobnicate"}, satCNF},
		{"missing file", []string{"/nonexistent/input.cnf"}, ""},
		{"malformed input", nil, "p cnf 2 9\n1 2 0\n"},
		{"empty input", nil, ""},
		{"portfolio is no solver", []string{"-solver", "portfolio"}, satCNF},
		{"portfolio is no solver with -cube", []string{"-cube", "-solver", "portfolio"}, satCNF},
		{"share is no flag", []string{"-cube", "-share"}, satCNF},
		{"negative reads", []string{"-reads", "-3"}, satCNF},
		{"reads over bound", []string{"-reads", "4097"}, satCNF},
	}
	for _, tc := range cases {
		if code, out, errOut := runCLI(t, tc.args, tc.stdin); code != 1 {
			t.Fatalf("%s: code=%d out=%q err=%q", tc.name, code, out, errOut)
		} else if errOut == "" {
			t.Fatalf("%s: exit 1 with empty stderr", tc.name)
		}
	}
}

func TestCLIFileInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.cnf")
	if err := os.WriteFile(path, []byte(unsatCNF), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, []string{"-solver", "minisat", path}, "ignored stdin")
	if code != 20 {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestCLIProofFlagEmitsCheckableDRAT(t *testing.T) {
	for _, solver := range []string{"minisat", "kissat", "hyqsat"} {
		path := filepath.Join(t.TempDir(), solver+".drat")
		code, _, errOut := runCLI(t,
			[]string{"-solver", solver, "-mode", "sim", "-proof", path}, unsatCNF)
		if code != 20 {
			t.Fatalf("%s: code=%d err=%q", solver, code, errOut)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: proof file: %v", solver, err)
		}
		proof, err := verify.ParseDRAT(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: proof does not parse: %v\n%s", solver, err, data)
		}
		premise, err := cnf.ParseDIMACSString(unsatCNF)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckUnsatProof(premise, proof); err != nil {
			t.Fatalf("%s: emitted proof rejected: %v\n%s", solver, err, data)
		}
	}
}

func TestCLIVerifyFlag(t *testing.T) {
	for _, solver := range []string{"minisat", "kissat", "hyqsat"} {
		args := []string{"-solver", solver, "-mode", "sim", "-verify", "-seed", "3"}
		code, out, errOut := runCLI(t, args, satCNF)
		if code != 10 {
			t.Fatalf("%s -verify SAT: code=%d err=%q", solver, code, errOut)
		}
		if !strings.Contains(out, "c verdict certified") {
			t.Fatalf("%s -verify SAT: missing certification line: %q", solver, out)
		}
		code, _, errOut = runCLI(t, args, unsatCNF)
		if code != 20 {
			t.Fatalf("%s -verify UNSAT: code=%d err=%q", solver, code, errOut)
		}
	}
}

func TestCLIVerifyAndProofCombined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "combined.drat")
	code, out, errOut := runCLI(t,
		[]string{"-solver", "minisat", "-verify", "-proof", path}, unsatCNF)
	if code != 20 || !strings.Contains(out, "c verdict certified") {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("proof file missing or empty: %v", err)
	}
}

func TestCLIReadsAndStats(t *testing.T) {
	code, out, errOut := runCLI(t,
		[]string{"-solver", "hyqsat", "-mode", "sim", "-reads", "3", "-stats"}, satCNF)
	if code != 10 {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(out, "reads=") || !strings.Contains(out, "c embed fast=") {
		t.Fatalf("stats output missing read/embed counters: %q", out)
	}
	if strings.Contains(out, "embedcache") {
		t.Fatalf("stats output still reports the removed embedding cache: %q", out)
	}
}

func TestCLIProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, out, errOut := runCLI(t,
		[]string{"-solver", "hyqsat", "-mode", "sim", "-cpuprofile", cpu, "-memprofile", mem}, satCNF)
	if code != 10 {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", p, err)
		}
	}
	if code, _, _ := runCLI(t, []string{"-cpuprofile", "/nonexistent/dir/x.pprof"}, satCNF); code != 1 {
		t.Fatalf("unwritable cpuprofile path: code=%d, want 1", code)
	}
}

// mediumCNF renders a satisfiable 30-var random 3-SAT instance to DIMACS —
// big enough that the hybrid warmup actually exercises the QA loop, so a
// trace of it carries qa_call/strategy/phase events.
func mediumCNF(t *testing.T) string {
	t.Helper()
	inst := gen.SatisfiableRandom3SAT(30, 120, 9)
	var sb strings.Builder
	if err := cnf.WriteDIMACS(&sb, inst.Formula); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCLITraceStreamReconstructsFigures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errOut := runCLI(t,
		[]string{"-solver", "hyqsat", "-mode", "sim", "-trace", path, "-stats"},
		mediumCNF(t))
	if code != 10 {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(out, "phase breakdown") {
		t.Fatalf("-stats summary missing phase breakdown: %q", out)
	}
	tf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	_, events, err := obs.ReadTrace(tf)
	if err != nil {
		t.Fatalf("trace unparseable: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	bd := obs.PhaseBreakdown(events)
	for _, phase := range []string{"frontend", "backend", "cdcl", "qa_device"} {
		if bd[phase] <= 0 {
			t.Errorf("phase %q missing from trace breakdown %v", phase, bd)
		}
	}
	oc := obs.OutcomeCounts(events)
	if len(oc) == 0 {
		t.Errorf("no outcome classes in trace")
	}
}

func TestCLIFlightRecorderDumpsOnBudgetExhaustion(t *testing.T) {
	// One conflict is forced immediately on the xor-square but cannot finish
	// the refutation, so the budget expires with the verdict still open.
	code, out, errOut := runCLI(t,
		[]string{"-solver", "minisat", "-max-conflicts", "1", "-flight-recorder", "16"},
		unsatCNF)
	if code != 0 || !strings.Contains(out, "s UNKNOWN") {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(errOut, "c flight recorder (unknown)") {
		t.Fatalf("stderr missing flight dump header: %q", errOut)
	}
	// The dump itself must be a parseable JSONL tail.
	_, rest, ok := strings.Cut(errOut, "events\n")
	if !ok {
		t.Fatalf("no dump after header: %q", errOut)
	}
	_, events, err := obs.ReadTrace(strings.NewReader(rest))
	if err != nil || len(events) == 0 {
		t.Fatalf("flight dump unparseable: events=%d err=%v", len(events), err)
	}
}

func TestCLIFlightRecorderDumpsOnUnsat(t *testing.T) {
	_, _, errOut := runCLI(t,
		[]string{"-solver", "hyqsat", "-mode", "sim", "-flight-recorder", "8"}, unsatCNF)
	if !strings.Contains(errOut, "c flight recorder (unsat)") {
		t.Fatalf("stderr missing unsat flight dump: %q", errOut)
	}
}

func TestCLIMetricsAddrServesLiveEndpoints(t *testing.T) {
	// The CLI advertises the bound address on stderr before solving; a helper
	// goroutine watches for that line through a pipe and scrapes the endpoints
	// while the solve runs. The status provider is bound shortly after the
	// advertisement, so the status scrape retries briefly until it reports a
	// live solve.
	pr, pw := io.Pipe()
	type scrape struct {
		metrics string
		status  string
		err     error
	}
	got := make(chan scrape, 1)
	go func() {
		defer io.Copy(io.Discard, pr) // keep later stderr writes from blocking
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			addr, ok := strings.CutPrefix(sc.Text(), "c metrics listening on http://")
			if !ok {
				continue
			}
			// The solver registers its counters shortly after the server
			// starts listening, so both scrapes retry briefly: metrics until
			// the solver counters appear, status until the solve is live.
			var s scrape
			for i := 0; i < 100; i++ {
				s.metrics, s.err = httpGet(addr + "/metrics")
				if s.err != nil || strings.Contains(s.metrics, "hyqsat_qa_calls") {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			for i := 0; i < 100 && s.err == nil; i++ {
				s.status, s.err = httpGet(addr + "/solve/status")
				if strings.Contains(s.status, `"state":"solving"`) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			got <- s
			return
		}
		got <- scrape{err: fmt.Errorf("no listening line on stderr")}
	}()

	var out bytes.Buffer
	code := run([]string{"-solver", "hyqsat", "-mode", "sim", "-metrics-addr", "127.0.0.1:0"},
		strings.NewReader(mediumCNF(t)), &out, pw)
	pw.Close()
	if code != 10 {
		t.Fatalf("code=%d out=%q", code, out.String())
	}
	s := <-got
	if s.err != nil {
		t.Fatalf("scrape: %v", s.err)
	}
	if !strings.Contains(s.metrics, "hyqsat_qa_calls") {
		t.Fatalf("/metrics missing solver counters: %q", s.metrics)
	}
	if !strings.Contains(s.status, `"state":"solving"`) {
		t.Fatalf("/solve/status not live: %q", s.status)
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get("http://" + url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return string(body), nil
}

func TestCLIFaultProfileOutageStillCertifies(t *testing.T) {
	// A 100% dead QA backend must not change the verdict: the hybrid degrades
	// to pure CDCL and -verify still certifies both answers.
	args := []string{"-solver", "hyqsat", "-mode", "sim", "-fault-profile", "outage", "-verify", "-stats"}
	code, out, errOut := runCLI(t, args, satCNF)
	if code != 10 || !strings.Contains(out, "c verdict certified") {
		t.Fatalf("outage SAT: code=%d out=%q err=%q", code, out, errOut)
	}
	code, out, errOut = runCLI(t, args, unsatCNF)
	if code != 20 || !strings.Contains(out, "c verdict certified") {
		t.Fatalf("outage UNSAT: code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestCLIFaultProfileFlakySolves(t *testing.T) {
	code, out, errOut := runCLI(t,
		[]string{"-solver", "hyqsat", "-mode", "sim", "-seed", "4",
			"-fault-profile", "transient=0.4,latency=1ms", "-verify"},
		mediumCNF(t))
	if code != 10 || !strings.Contains(out, "c verdict certified") {
		t.Fatalf("flaky solve: code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestCLIFaultProfileRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"nonsense", "outage=0.7,transient=0.7", "latency=fast"} {
		code, _, errOut := runCLI(t,
			[]string{"-solver", "hyqsat", "-fault-profile", spec}, satCNF)
		if code != 1 || !strings.Contains(errOut, "fault profile") {
			t.Fatalf("spec %q: code=%d err=%q, want rejection", spec, code, errOut)
		}
	}
}

func TestCLITimeoutReportsUnknown(t *testing.T) {
	// A hard instance with an already-expired budget: the solver must stop at
	// its first context poll and report UNKNOWN (exit 0), not hang or error.
	inst := gen.Random3SAT(120, 510, 3) // near-threshold hard instance
	var sb strings.Builder
	if err := cnf.WriteDIMACS(&sb, inst.Formula); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"hyqsat", "minisat"} {
		args := []string{"-solver", solver, "-mode", "sim", "-timeout", "1ns", "-flight-recorder", "8"}
		code, out, errOut := runCLI(t, args, sb.String())
		if code != 0 || !strings.Contains(out, "s UNKNOWN") {
			t.Fatalf("%s with expired timeout: code=%d out=%q err=%q", solver, code, out, errOut)
		}
		if !strings.Contains(errOut, "c interrupted:") {
			t.Fatalf("%s: stderr missing interruption notice: %q", solver, errOut)
		}
	}
}

func TestCLIMaxConflictsRejectedForCube(t *testing.T) {
	// The cube workers have no conflict budget, so -max-conflicts there
	// would be silently ignored: it is a usage error that points at
	// -timeout.
	for _, args := range [][]string{
		{"-cube", "-max-conflicts", "5"},
		{"-cube", "-solver", "minisat", "-max-conflicts", "5"},
	} {
		code, out, errOut := runCLI(t, args, satCNF)
		if code != 1 || !strings.Contains(errOut, "-timeout") {
			t.Fatalf("%v: code=%d out=%q err=%q, want exit 1 naming -timeout", args, code, out, errOut)
		}
	}
	// A single solver keeps its budget.
	if code, out, errOut := runCLI(t, []string{"-solver", "minisat", "-max-conflicts", "5"}, satCNF); code != 10 {
		t.Fatalf("minisat with -max-conflicts: code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestCLICubeAndConquer(t *testing.T) {
	// -cube solves by splitting into assumption cubes. On UNSAT the stitched
	// proof written by -proof must replay through the DRAT checker against
	// the input formula.
	proofPath := filepath.Join(t.TempDir(), "stitched.drat")
	args := []string{"-cube", "-cube-depth", "2", "-workers", "2",
		"-verify", "-stats", "-proof", proofPath, "-seed", "5"}
	code, out, errOut := runCLI(t, args, unsatCNF)
	if code != 20 || !strings.Contains(out, "c verdict certified") {
		t.Fatalf("cube UNSAT: code=%d out=%q err=%q", code, out, errOut)
	}
	if !strings.Contains(out, "c cubes=") || !strings.Contains(out, "c aggregate conflicts=") {
		t.Fatalf("missing cube stats lines: %q", out)
	}
	data, err := os.ReadFile(proofPath)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := verify.ParseDRAT(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	f, err := cnf.ParseDIMACS(strings.NewReader(unsatCNF))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckUnsatProof(f, proof); err != nil {
		t.Fatalf("written stitched proof rejected: %v", err)
	}

	code, out, errOut = runCLI(t,
		[]string{"-cube", "-cube-depth", "2", "-verify", "-seed", "5"}, satCNF)
	if code != 10 || !strings.Contains(out, "s SATISFIABLE") {
		t.Fatalf("cube SAT: code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestCLICubeNontrivialInstance(t *testing.T) {
	// An instance the probe cannot finish, so the conquer phase actually
	// fans out over cubes (probe budget is fixed at 3000 conflicts; this
	// near-threshold instance needs far more).
	code, out, errOut := runCLI(t,
		[]string{"-cube", "-cube-depth", "3", "-workers", "2", "-verify", "-stats", "-seed", "7"},
		mediumCNF(t))
	if code != 10 && code != 20 {
		t.Fatalf("cube nontrivial: code=%d out=%q err=%q", code, out, errOut)
	}
	if code == 20 && !strings.Contains(out, "c verdict certified") {
		t.Fatalf("cube UNSAT not certified: %q", out)
	}
}

// TestCLIProofWriteErrorFails: a -proof file that cannot be written in full
// is an error (exit 1) on every path, never a silently truncated
// certificate behind an UNSAT verdict. /dev/full fails every write.
func TestCLIProofWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, args := range [][]string{
		{"-solver", "minisat"},
		{"-solver", "kissat"},
		{"-solver", "hyqsat", "-mode", "sim"},
		{"-cube", "-workers", "2"},
	} {
		code, out, errOut := runCLI(t, append(args, "-proof", "/dev/full"), unsatCNF)
		if code != 1 || !strings.Contains(errOut, "no space left on device") {
			t.Fatalf("%v: code=%d stdout=%q stderr=%q, want exit 1 with the write error", args, code, out, errOut)
		}
	}
}
