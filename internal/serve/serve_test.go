package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
)

// testCNF is a small satisfiable instance in DIMACS text.
func testCNF(t testing.TB, seed int64) string {
	t.Helper()
	inst := gen.SatisfiableRandom3SAT(12, 40, seed)
	return cnf.DIMACSString(inst.Formula)
}

// blockingBackend parks every submission until released (or the context
// dies), so tests can hold workers busy deterministically.
type blockingBackend struct{ release chan struct{} }

func (b *blockingBackend) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	select {
	case <-b.release:
		return anneal.ReadSet{}, &qpu.FaultError{Fault: "released"}
	case <-ctx.Done():
		return anneal.ReadSet{}, ctx.Err()
	}
}
func (b *blockingBackend) Name() string { return "blocking" }

// blockingOptions is a solver config whose first hybrid iteration parks on
// the backend, keeping the worker occupied until the test releases it.
func blockingOptions(b *blockingBackend) hyqsat.Options {
	o := hyqsat.SimulatorOptions()
	o.SelfCertify = true
	o.WarmupIterations = 2
	o.Backend = b
	return o
}

func submitBody(t testing.TB, seed int64) []byte {
	t.Helper()
	blob, err := json.Marshal(SubmitRequest{CNF: testCNF(t, seed), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func postJob(t testing.TB, base string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, blob
}

func getJob(t testing.TB, base, id string) JobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls until the job reaches a terminal state.
func waitState(t testing.TB, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, base, id)
		switch v.State {
		case StateDone, StateFailed, StateCheckpointed:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestSubmitSolveRoundTrip: a job goes in as DIMACS text and comes out as a
// certified verdict with a model.
func TestSubmitSolveRoundTrip(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, blob := postJob(t, srv.URL, submitBody(t, 5), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, blob)
	}
	var v JobView
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, srv.URL, v.ID)
	if final.State != StateDone || final.Verdict != "sat" || !final.Certified {
		t.Fatalf("final: %+v", final)
	}
	if len(final.Model) == 0 || len(final.Model) > 12 {
		t.Fatalf("model has %d literals, want 1..12", len(final.Model))
	}
}

// TestAdmissionQueueFull: with one busy worker and a one-slot queue, the
// next submission is refused with 429 + Retry-After — never buffered.
func TestAdmissionQueueFull(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})}
	svc := New(Config{
		Workers: 1, QueueDepth: 1,
		Solve: blockingOptions(bk), HaveSolveDefaults: true,
		DefaultQuota: TenantQuota{MaxConcurrent: 10},
	})
	defer func() {
		close(bk.release)
		svc.Drain(context.Background())
	}()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Job 1 occupies the worker (poll until running), job 2 fills the queue.
	resp, blob := postJob(t, srv.URL, submitBody(t, 1), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job1: %d %s", resp.StatusCode, blob)
	}
	var j1 JobView
	_ = json.Unmarshal(blob, &j1)
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, srv.URL, j1.ID).State != StateRunning {
		if !time.Now().Before(deadline) {
			t.Fatal("job1 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp, blob = postJob(t, srv.URL, submitBody(t, 2), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job2: %d %s", resp.StatusCode, blob)
	}

	resp, blob = postJob(t, srv.URL, submitBody(t, 3), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job3: %d %s, want 429", resp.StatusCode, blob)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var we qpu.WireErrorBody
	if err := json.Unmarshal(blob, &we); err != nil || we.Error != "queue_full" {
		t.Fatalf("refusal body %s (err %v), want queue_full", blob, err)
	}
	if svc.m.rejected.Value() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestConcurrencyQuota: a tenant at its concurrent-jobs cap is refused with
// a typed 429 while another tenant still gets in.
func TestConcurrencyQuota(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})}
	svc := New(Config{
		Workers: 1, QueueDepth: 8,
		Solve: blockingOptions(bk), HaveSolveDefaults: true,
		DefaultQuota: TenantQuota{MaxConcurrent: 1},
	})
	defer func() {
		close(bk.release)
		svc.Drain(context.Background())
	}()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	teamA := map[string]string{qpu.HeaderTenant: "team-a"}
	if resp, blob := postJob(t, srv.URL, submitBody(t, 1), teamA); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d %s", resp.StatusCode, blob)
	}
	resp, blob := postJob(t, srv.URL, submitBody(t, 2), teamA)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second: %d %s, want 429", resp.StatusCode, blob)
	}
	var we qpu.WireErrorBody
	if json.Unmarshal(blob, &we) != nil || we.Error != "quota" {
		t.Fatalf("refusal body %s, want quota", blob)
	}
	if resp, blob := postJob(t, srv.URL, submitBody(t, 3),
		map[string]string{qpu.HeaderTenant: "team-b"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: %d %s", resp.StatusCode, blob)
	}
}

// TestIdempotentSubmit: resubmitting with the same Idempotency-Key returns
// the SAME job — retries never double-solve — and the key is per-tenant.
func TestIdempotentSubmit(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	hdr := map[string]string{qpu.HeaderIdempotency: "retry-1"}
	body := submitBody(t, 7)
	_, blob := postJob(t, srv.URL, body, hdr)
	var first JobView
	_ = json.Unmarshal(blob, &first)
	waitState(t, srv.URL, first.ID)

	resp, blob := postJob(t, srv.URL, body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s, want 200", resp.StatusCode, blob)
	}
	var second JobView
	_ = json.Unmarshal(blob, &second)
	if second.ID != first.ID {
		t.Fatalf("replayed submit made a new job: %s then %s", first.ID, second.ID)
	}
	if svc.m.accepted.Value() != 1 {
		t.Fatalf("accepted = %d, want 1", svc.m.accepted.Value())
	}

	// A different tenant with the same key is a different operation.
	resp, blob = postJob(t, srv.URL, body,
		map[string]string{qpu.HeaderIdempotency: "retry-1", qpu.HeaderTenant: "team-b"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant same key: %d %s, want 202", resp.StatusCode, blob)
	}
	var third JobView
	_ = json.Unmarshal(blob, &third)
	if third.ID == first.ID {
		t.Fatal("idempotency keys leaked across tenants")
	}
}

// TestIdempotentReplayOfQueuedJob: a replay is answered 200 and a fresh
// admission 202 whatever state the job is in — here the replayed job is
// still queued behind a parked one.
func TestIdempotentReplayOfQueuedJob(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})}
	defer close(bk.release)
	svc := New(Config{Workers: 1, Solve: blockingOptions(bk), HaveSolveDefaults: true,
		DrainGrace: 50 * time.Millisecond})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, key := range []string{"parked", "queued"} {
		resp, blob := postJob(t, srv.URL, submitBody(t, 7),
			map[string]string{qpu.HeaderIdempotency: key})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fresh submit %q: %d %s, want 202", key, resp.StatusCode, blob)
		}
	}
	resp, blob := postJob(t, srv.URL, submitBody(t, 7),
		map[string]string{qpu.HeaderIdempotency: "queued"})
	var v JobView
	_ = json.Unmarshal(blob, &v)
	if resp.StatusCode != http.StatusOK || v.State != StateQueued {
		t.Fatalf("replay of a queued job: %d %s, want 200 with state queued", resp.StatusCode, blob)
	}
}

// TestIdempotentSubmitConcurrent: submits racing on one idempotency key
// create exactly one job; every other one replays it and keeps no
// concurrency slot. Every racer is held after admission until all have
// passed the first idempotency check, so each must find the winner's job
// under the second lock.
func TestIdempotentSubmitConcurrent(t *testing.T) {
	const n = 16
	bk := &blockingBackend{release: make(chan struct{})}
	defer close(bk.release)
	svc := New(Config{Workers: 1, Solve: blockingOptions(bk), HaveSolveDefaults: true,
		DrainGrace: 50 * time.Millisecond, DefaultQuota: TenantQuota{MaxConcurrent: n}})
	defer svc.Drain(context.Background())
	var arrived sync.WaitGroup
	arrived.Add(n)
	svc.admitted = func() {
		arrived.Done()
		arrived.Wait()
	}

	req := SubmitRequest{CNF: testCNF(t, 7), Seed: 7}
	type result struct {
		view     JobView
		replayed bool
		err      error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[g]
			r.view, r.replayed, r.err = svc.Submit("team-a", "race-1", req, time.Time{})
		}()
	}
	wg.Wait()

	fresh := 0
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("submit %d: %v", g, r.err)
		}
		if r.view.ID != results[0].view.ID {
			t.Fatalf("submit %d got job %s, submit 0 got %s", g, r.view.ID, results[0].view.ID)
		}
		if !r.replayed {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d submits report a fresh job, want 1", fresh)
	}
	if got := svc.m.accepted.Value(); got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
	svc.mu.Lock()
	jobs := len(svc.jobs)
	svc.mu.Unlock()
	if jobs != 1 {
		t.Fatalf("%d jobs created, want 1", jobs)
	}
	svc.tenants.mu.Lock()
	inFlight := svc.tenants.byName["team-a"].inFlight
	svc.tenants.mu.Unlock()
	if inFlight != 1 {
		t.Fatalf("tenant holds %d concurrency slots, want 1", inFlight)
	}
}

// TestDeadlinePropagation: the client's X-Hyqsat-Deadline-Ms reaches the
// solve context — a parked solve is cut off and checkpointed.
func TestDeadlinePropagation(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})}
	defer close(bk.release)
	svc := New(Config{Workers: 1, Solve: blockingOptions(bk), HaveSolveDefaults: true})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, blob := postJob(t, srv.URL, submitBody(t, 9),
		map[string]string{qpu.HeaderDeadlineMs: "80"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, blob)
	}
	var v JobView
	_ = json.Unmarshal(blob, &v)
	start := time.Now()
	final := waitState(t, srv.URL, v.ID)
	if final.State != StateCheckpointed {
		t.Fatalf("state %q, want checkpointed (deadline should cut the parked solve)", final.State)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestDrain covers the shutdown contract: admission flips to 503
// "draining", in-flight work is checkpointed past the grace period, traces
// are flushed, and Drain returns.
func TestDrain(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})}
	defer close(bk.release)
	flushed := false
	ring := obs.NewRing(1024)
	svc := New(Config{
		Workers: 2, QueueDepth: 8,
		Solve: blockingOptions(bk), HaveSolveDefaults: true,
		DrainGrace: 50 * time.Millisecond,
		Trace:      ring,
		Flush:      func() error { flushed = true; return nil },
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Three jobs: two park on workers, one waits in the queue.
	ids := make([]string, 3)
	for i := range ids {
		resp, blob := postJob(t, srv.URL, submitBody(t, int64(i+20)), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: %d %s", i, resp.StatusCode, blob)
		}
		var v JobView
		_ = json.Unmarshal(blob, &v)
		ids[i] = v.ID
	}

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	// Admission must refuse while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, blob := postJob(t, srv.URL, submitBody(t, 99), nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			var we qpu.WireErrorBody
			if json.Unmarshal(blob, &we) != nil || we.Error != "draining" {
				t.Fatalf("drain refusal body %s", blob)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 draining without Retry-After")
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("admission never started refusing")
		}
		time.Sleep(2 * time.Millisecond)
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	if !flushed {
		t.Fatal("drain did not flush the trace sink")
	}
	for _, id := range ids {
		v, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s lost in drain", id)
		}
		if v.State != StateCheckpointed && v.State != StateDone {
			t.Fatalf("job %s state %q after drain", id, v.State)
		}
	}
	// The lifecycle must be visible in the trace: accepted and a terminal
	// state for every job.
	states := map[string]map[string]bool{}
	for _, te := range ring.Events() {
		if je, ok := te.E.(obs.JobEvent); ok && je.Job != "" {
			if states[je.Job] == nil {
				states[je.Job] = map[string]bool{}
			}
			states[je.Job][je.State] = true
		}
	}
	for _, id := range ids {
		if !states[id]["accepted"] {
			t.Fatalf("job %s has no accepted event", id)
		}
		if !states[id][StateCheckpointed] && !states[id][StateDone] {
			t.Fatalf("job %s has no terminal event: %v", id, states[id])
		}
	}
}

// TestSampleEndpointQuota: the device-time bucket refuses with 429 +
// Retry-After and a "quota" error body while refillable, and with 403 once a
// hard budget is spent.
func TestSampleEndpointQuota(t *testing.T) {
	access := anneal.DWave2000QTiming().AccessTime(1)
	ep := nativeProblem(t, 1, 2, 3)
	// twoAccesses sends two sample requests for one tenant to a service whose
	// default quota holds exactly one access, and returns the second
	// response with its body.
	twoAccesses := func(quota TenantQuota) (*http.Response, []byte) {
		t.Helper()
		svc := New(Config{Workers: 1, DefaultQuota: quota})
		defer svc.Drain(context.Background())
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		if code, body := postSample(t, srv.URL, "team", ep, 1); code != http.StatusOK {
			t.Fatalf("first access under %+v: %d %s", quota, code, body)
		}
		resp, err := http.DefaultClient.Do(newSampleRequest(context.Background(), t, srv.URL, "team", ep, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Throttled: a tiny refillable budget.
	resp, body := twoAccesses(TenantQuota{DeviceBudget: access, DeviceRefill: time.Microsecond})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled: %d %s, want 429", resp.StatusCode, body)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("throttled refusal carries Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	var eb qpu.WireErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error != "quota" {
		t.Fatalf("throttled body %s, want error \"quota\"", body)
	}

	// Capped: a hard budget that never refills.
	resp, body = twoAccesses(TenantQuota{DeviceBudget: access, DeviceRefill: 0})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("capped: %d %s, want 403", resp.StatusCode, body)
	}
}

// TestSampleCancelledClientsRefundAndLeaveNoGoroutines: sample requests whose
// clients hang up while the batch window holds them leave no charge behind
// beyond the device time their program ran — every pre-charged solo access
// time is reconciled to the actual share — and, once the service drains, no
// goroutine behind.
func TestSampleCancelledClientsRefundAndLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	const (
		tenant  = "hangup"
		members = 4
		reads   = 2
	)
	cost := anneal.DWave2000QTiming().AccessTime(reads)
	budget := 2 * members * cost
	svc := New(Config{
		Workers:         1,
		BatchWindow:     time.Second,
		BatchMaxMembers: 2 * members,
		DefaultQuota:    TenantQuota{MaxConcurrent: members, DeviceBudget: budget},
	})
	srv := httptest.NewServer(svc.Handler())
	client := &http.Client{Transport: &http.Transport{}}
	balance := func() time.Duration {
		svc.tenants.mu.Lock()
		defer svc.tenants.mu.Unlock()
		if ts := svc.tenants.byName[tenant]; ts != nil {
			return ts.device.balance
		}
		return budget
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, members)
	for i := 0; i < members; i++ {
		req := newSampleRequest(ctx, t, srv.URL, tenant, nativeProblem(t, 3*i+1, 3*i+2, 3*i+3), reads)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errs[i] = err
		}(i)
	}
	// Hang up once every request has been pre-charged, i.e. is waiting in
	// the batch window.
	deadline := time.Now().Add(10 * time.Second)
	for balance() != budget-members*cost {
		if time.Now().After(deadline) {
			t.Fatalf("requests never all reached the batcher: balance %v", balance())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("request %d: %v, want the client's cancellation", i, err)
		}
	}
	srv.Close() // waits for every handler to return

	// Every member's program ran and was charged, so each counts as a
	// sample although its client hung up.
	if got, want := svc.m.qpuSamples.Value(), int64(members); got != want {
		t.Fatalf("serve_qpu_samples = %d, want %d", got, want)
	}
	if got := svc.m.qpuRejected.Value(); got != 0 {
		t.Fatalf("serve_qpu_rejected = %d, want 0", got)
	}
	spent := time.Duration(svc.m.deviceBusyNs.Value())
	if want := anneal.DWave2000QTiming().BatchAccessTime([]int{reads, reads, reads, reads}); spent != want {
		t.Fatalf("device busy %v, want one %d-member program's %v", spent, members, want)
	}
	if got := balance(); got != budget-spent {
		t.Fatalf("balance %v after cancelled requests, want budget %v less the %v the program ran", got, budget, spent)
	}

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked through cancelled samples: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSampleIdempotencyNoDoubleCharge: transport replays with the same key
// replay the cached response — same bytes, one device charge.
func TestSampleIdempotencyNoDoubleCharge(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	blob, err := json.Marshal(qpu.SampleRequest{Problem: nativeProblem(t, 1, 2, 3).Wire(), Reads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest("POST", srv.URL+qpu.SamplePath, bytes.NewReader(blob))
		req.Header.Set(qpu.HeaderIdempotency, "same-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: %d %s", i, resp.StatusCode, b)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[1], bodies[2]) {
		t.Fatal("replayed responses differ")
	}
	if got := svc.m.qpuSamples.Value(); got != 1 {
		t.Fatalf("device sampled %d times for one idempotency key", got)
	}
	if got := svc.m.qpuReplays.Value(); got != 2 {
		t.Fatalf("replays = %d, want 2", got)
	}
}

// TestTenantRegistryBounded: the tenant map cannot be grown without bound by
// hostile tenant names — past the cap with all tenants busy, admission
// refuses instead of allocating.
func TestTenantRegistryBounded(t *testing.T) {
	reg := newTenants(4, TenantQuota{MaxConcurrent: 2, DeviceBudget: time.Second}, time.Now)
	for i := 0; i < 4; i++ {
		if err := reg.AdmitJob(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	err := reg.AdmitJob("one-too-many")
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "tenants" {
		t.Fatalf("over-cap admission: %v, want tenants QuotaError", err)
	}
	// Freeing a tenant makes it evictable; the newcomer then fits.
	reg.FinishJob("t0")
	reg.FinishJob("t0")
	if err := reg.AdmitJob("one-too-many"); err != nil {
		t.Fatalf("admission after eviction: %v", err)
	}
	if len(reg.Names()) != 4 {
		t.Fatalf("registry grew past its cap: %v", reg.Names())
	}
}

// TestHealthEndpoint reports serving state and flips to draining.
func TestHealthEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	get := func() map[string]any {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if st := get()["state"]; st != "serving" {
		t.Fatalf("state %v, want serving", st)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := get()["state"]; st != "draining" {
		t.Fatalf("state %v, want draining", st)
	}
}

// TestBucketMath pins the token-bucket arithmetic with a fake clock.
func TestBucketMath(t *testing.T) {
	now := time.Unix(0, 0)
	b := bucket{capacity: 100 * time.Millisecond, refill: 10 * time.Millisecond,
		balance: 20 * time.Millisecond, last: now}

	if _, ok := b.take(now, 20*time.Millisecond); !ok {
		t.Fatal("exact balance refused")
	}
	wait, ok := b.take(now, 10*time.Millisecond)
	if ok {
		t.Fatal("empty bucket granted")
	}
	if wait != time.Second {
		t.Fatalf("wait %v, want the 1s Retry-After floor", wait)
	}
	// 2s of refill at 10ms/s = 20ms of balance.
	now = now.Add(2 * time.Second)
	if _, ok := b.take(now, 15*time.Millisecond); !ok {
		t.Fatal("refilled bucket refused")
	}
	// A cost above capacity can never succeed.
	if wait, ok := b.take(now, 200*time.Millisecond); ok || wait != 0 {
		t.Fatalf("impossible cost: ok=%v wait=%v, want permanent refusal", ok, wait)
	}
	// Refill must clamp at capacity.
	now = now.Add(time.Hour)
	b.advance(now)
	if b.balance != b.capacity {
		t.Fatalf("balance %v after an hour, want clamped to %v", b.balance, b.capacity)
	}
}

// TestRetryAfterSeconds pins the whole-second rounding.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {time.Millisecond, "1"}, {time.Second, "1"},
		{1100 * time.Millisecond, "2"}, {3 * time.Second, "3"},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Fatalf("retryAfterSeconds(%v) = %s, want %s", tc.d, got, tc.want)
		}
	}
}
