package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// nativeProblem builds a small embedded problem on the service's own 2000Q
// topology, so its wire form is co-tileable by the batching scheduler.
func nativeProblem(t testing.TB, v1, v2, v3 int) *anneal.EmbeddedProblem {
	t.Helper()
	g := topo.DWave2000Q()
	clauses := []cnf.Clause{cnf.NewClause(v1, v2, v3)}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	is := enc.Program(&qubo.Sums{}, false)
	return new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
}

// newSampleRequest builds a /v1/qpu/sample request for tenant, bound to ctx.
func newSampleRequest(ctx context.Context, t testing.TB, url, tenant string, ep *anneal.EmbeddedProblem, reads int) *http.Request {
	t.Helper()
	blob, err := json.Marshal(qpu.SampleRequest{Problem: ep.Wire(), Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", url+qpu.SamplePath, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(qpu.HeaderTenant, tenant)
	return req
}

func postSample(t testing.TB, url, tenant string, ep *anneal.EmbeddedProblem, reads int) (int, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(newSampleRequest(context.Background(), t, url, tenant, ep, reads))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// TestSampleBatchingRefundsProRata is the end-to-end quota contract of the
// batching path: two concurrent sample requests share one device program and
// are charged pro-rata, so a hard budget of exactly two solo accesses still
// admits a third request — and refuses a fourth once genuinely spent.
func TestSampleBatchingRefundsProRata(t *testing.T) {
	tm := anneal.DWave2000QTiming()
	const reads = 4
	reg := obs.NewRegistry()
	svc := New(Config{
		Workers:         1,
		BatchWindow:     500 * time.Millisecond,
		BatchMaxMembers: 2,
		DefaultQuota: TenantQuota{
			MaxConcurrent: 4,
			DeviceBudget:  2 * tm.AccessTime(reads),
			// No refill: a hard budget, so admission arithmetic is exact.
		},
		Metrics: reg,
	})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	eps := []*anneal.EmbeddedProblem{
		nativeProblem(t, 1, 2, 3),
		nativeProblem(t, 4, 5, 6),
	}
	var wg sync.WaitGroup
	codes := make([]int, 2)
	bodies := make([][]byte, 2)
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = postSample(t, srv.URL, "pro-rata", eps[i], reads)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("batched request %d: %d %s", i, code, bodies[i])
		}
	}
	if got := reg.Counter("batch_programs").Value(); got != 1 {
		t.Fatalf("two concurrent samples ran %d programs, want 1 (window missed?)", got)
	}
	if got := reg.Counter("batch_members").Value(); got != 2 {
		t.Fatalf("batch_members = %d, want 2", got)
	}
	// The members' pro-rata shares sum to exactly one program's access time.
	if got := reg.Counter("serve_qpu_device_ns").Value(); got != tm.AccessTime(reads).Nanoseconds() {
		t.Fatalf("device busy %dns, want one program's %dns", got, tm.AccessTime(reads).Nanoseconds())
	}

	// The refunds left exactly one solo access in the bucket.
	if code, body := postSample(t, srv.URL, "pro-rata", eps[0], reads); code != http.StatusOK {
		t.Fatalf("third request after refunds: %d %s", code, body)
	}
	if code, _ := postSample(t, srv.URL, "pro-rata", eps[0], reads); code != http.StatusForbidden {
		t.Fatalf("fourth request on a spent hard budget: %d, want 403", code)
	}
}

// TestSampleBatchingOffChargesFull: with batching disabled every request is
// its own program at full access time — the same budget admits exactly two.
func TestSampleBatchingOffChargesFull(t *testing.T) {
	tm := anneal.DWave2000QTiming()
	const reads = 4
	reg := obs.NewRegistry()
	svc := New(Config{
		Workers:     1,
		BatchWindow: -1,
		DefaultQuota: TenantQuota{
			MaxConcurrent: 4,
			DeviceBudget:  2 * tm.AccessTime(reads),
		},
		Metrics: reg,
	})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ep := nativeProblem(t, 1, 2, 3)
	for i := 0; i < 2; i++ {
		if code, body := postSample(t, srv.URL, "solo", ep, reads); code != http.StatusOK {
			t.Fatalf("solo request %d: %d %s", i, code, body)
		}
	}
	if code, _ := postSample(t, srv.URL, "solo", ep, reads); code != http.StatusForbidden {
		t.Fatalf("third solo request: %d, want 403", code)
	}
	if got := reg.Counter("serve_qpu_device_ns").Value(); got != 2*tm.AccessTime(reads).Nanoseconds() {
		t.Fatalf("device busy %dns, want two full programs", got)
	}
}

// TestRunThroughputBenchSmoke: the bench harness completes a small run and
// reports sane numbers with batching on.
func TestRunThroughputBenchSmoke(t *testing.T) {
	res, err := RunThroughputBench(ThroughputConfig{
		Clients: 2, Jobs: 4, Batching: true, Vars: 8, Clauses: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 4 || res.JobsPerSec <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible bench result: %+v", res)
	}
	if res.DeviceNs <= 0 || res.DevicePerVerdict <= 0 {
		t.Fatalf("no device time recorded: %+v", res)
	}
}
