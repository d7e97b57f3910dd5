package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/serve"
)

// startDaemon runs the daemon in-process on a free port and returns its base
// URL plus a channel carrying the exit code.
func startDaemon(t *testing.T, extra ...string) (string, *bytes.Buffer, *bytes.Buffer, chan int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-drain-grace", "500ms"}, extra...)
	go func() { exit <- run(args, &stdout, &stderr, ready) }()
	select {
	case base := <-ready:
		return base, &stdout, &stderr, exit
	case code := <-exit:
		t.Fatalf("daemon exited immediately with %d\nstderr: %s", code, stderr.String())
		return "", nil, nil, nil
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
		return "", nil, nil, nil
	}
}

// TestDaemonSolvesAndDrainsOnSIGTERM is the end-to-end contract: a real
// daemon accepts a job over HTTP, returns a certified verdict, and a SIGTERM
// drains it cleanly — admission off, trace flushed, exit 0.
func TestDaemonSolvesAndDrainsOnSIGTERM(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	base, stdout, stderr, exit := startDaemon(t, "-trace", trace)

	inst := gen.SatisfiableRandom3SAT(12, 40, 5)
	body, _ := json.Marshal(serve.SubmitRequest{CNF: cnf.DIMACSString(inst.Formula), Seed: 3})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, blob)
	}
	var view serve.JobView
	if err := json.Unmarshal(blob, &view); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(r.Body).Decode(&view)
		r.Body.Close()
		if view.State == serve.StateDone {
			break
		}
		if view.State == serve.StateFailed || !time.Now().Before(deadline) {
			t.Fatalf("job never finished: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.Verdict != "sat" || !view.Certified {
		t.Fatalf("verdict %q certified=%v, want certified sat", view.Verdict, view.Certified)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM\nstderr: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "drained cleanly") {
		t.Fatalf("stdout: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Fatalf("stderr: %q", stderr.String())
	}
	// The port must actually be released.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("API still serving after drain")
	}
	// The flushed trace must carry the job's lifecycle.
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, events, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("trace not parseable: %v", err)
	}
	var accepted, done bool
	for _, te := range events {
		if je, ok := te.E.(obs.JobEvent); ok {
			accepted = accepted || je.State == "accepted"
			done = done || je.State == serve.StateDone
		}
	}
	if !accepted || !done {
		t.Fatalf("trace missing job lifecycle (accepted=%v done=%v, %d events)",
			accepted, done, len(events))
	}
}
