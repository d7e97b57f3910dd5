package qpu

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// remoteTestProblem builds a small embedded problem for wire tests.
func remoteTestProblem(t testing.TB) *anneal.EmbeddedProblem {
	t.Helper()
	g := topo.NewChimera(4, 4, 4)
	clauses := []cnf.Clause{cnf.NewClause(1, 2, 3), cnf.NewClause(-1, 4, 5)}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses != len(clauses) {
		t.Fatalf("embedded %d/%d clauses", res.EmbeddedClauses, len(clauses))
	}
	is := enc.Program(&qubo.Sums{}, false)
	return new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
}

// sampleHandler is a minimal wire-correct server: decode, sample with its own
// sampler, encode. The seed is fixed so clients can predict the read set.
func sampleHandler(t testing.TB, seed int64) http.HandlerFunc {
	t.Helper()
	var mu sync.Mutex
	sampler := anneal.NewSampler(anneal.DefaultSchedule(), anneal.NoNoise, seed)
	return func(w http.ResponseWriter, req *http.Request) {
		var sr SampleRequest
		blob, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := json.Unmarshal(blob, &sr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ep, err := sr.Problem.Problem()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		rs := sampler.Sample(ep, sr.Reads)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(EncodeReadSet(&rs))
	}
}

// A remote round trip must reproduce the local sampler bit-for-bit: the wire
// carries the exact kernel inputs, so a server-side sampler with the same
// seed and call count is indistinguishable from a local one.
func TestRemoteRoundTripMatchesLocal(t *testing.T) {
	ep := remoteTestProblem(t)
	srv := httptest.NewServer(sampleHandler(t, 7))
	defer srv.Close()

	remote, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Submit(context.Background(), ep, 4)
	if err != nil {
		t.Fatalf("remote submit: %v", err)
	}
	want := anneal.NewSampler(anneal.DefaultSchedule(), anneal.NoNoise, 7).Sample(ep, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remote read set differs from local:\nremote: %+v\nlocal:  %+v", got, want)
	}
	if err := anneal.ValidateReadSet(ep, &got, 4); err != nil {
		t.Fatalf("remote read set invalid: %v", err)
	}
}

// Every malformed response class must come back as a typed *RemoteError with
// the right reason — never a panic, never an untyped error.
func TestRemoteTypedDecodeErrors(t *testing.T) {
	ep := remoteTestProblem(t)
	cases := []struct {
		name      string
		handler   http.HandlerFunc
		reason    string
		status    int
		permanent bool
	}{
		{"garbage body", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "{]]]] not json")
		}, "decode", 0, false},
		{"truncated json", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"samples":[{"nodes":[0,1],"val`)
		}, "truncated", 0, false},
		{"empty body", func(w http.ResponseWriter, r *http.Request) {}, "truncated", 0, false},
		{"oversized body", func(w http.ResponseWriter, r *http.Request) {
			w.Write(make([]byte, 4096))
		}, "oversized", 0, false},
		{"ragged sample", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"samples":[{"nodes":[0,1],"values":[true],"energy":0}],"best":0}`)
		}, "shape", 0, false},
		{"no samples", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"samples":[],"best":0}`)
		}, "shape", 0, false},
		{"bad best", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"samples":[{"nodes":[0],"values":[true],"energy":0}],"best":5}`)
		}, "shape", 0, false},
		{"duplicate node", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"samples":[{"nodes":[3,3],"values":[true,false],"energy":0}],"best":0}`)
		}, "shape", 0, false},
		{"server error", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusBadGateway)
		}, "status", http.StatusBadGateway, false},
		{"quota spent", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusForbidden)
			_ = json.NewEncoder(w).Encode(WireErrorBody{Error: "quota", Detail: "device budget spent"})
		}, "status", http.StatusForbidden, true},
		{"overloaded", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(WireErrorBody{Error: "queue_full"})
		}, "status", http.StatusTooManyRequests, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			remote, err := NewRemote(RemoteConfig{BaseURL: srv.URL, MaxBody: 1024, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, err = remote.Submit(context.Background(), ep, 1)
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("got %v (%T), want *RemoteError", err, err)
			}
			if re.Reason != tc.reason {
				t.Fatalf("reason %q, want %q (%v)", re.Reason, tc.reason, re)
			}
			if tc.status != 0 && re.Status != tc.status {
				t.Fatalf("status %d, want %d", re.Status, tc.status)
			}
			if re.Permanent() != tc.permanent {
				t.Fatalf("permanent %v, want %v (%v)", re.Permanent(), tc.permanent, re)
			}
			if tc.name == "overloaded" && re.RetryAfter != 7*time.Second {
				t.Fatalf("retry-after %v, want 7s", re.RetryAfter)
			}
			if tc.permanent != Permanent(err) {
				t.Fatalf("Permanent() helper disagrees with error: %v", err)
			}
		})
	}
}

// A dead server (nothing listening) must produce a typed network error, and
// that error must classify as non-permanent so the breaker/fallback layers
// keep probing.
func TestRemoteDeadServer(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // the port is now dead
	remote, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.Submit(context.Background(), remoteTestProblem(t), 1)
	var re *RemoteError
	if !errors.As(err, &re) || re.Reason != "network" {
		t.Fatalf("got %v, want network RemoteError", err)
	}
	if Permanent(err) {
		t.Fatal("a dead server must not classify as permanent")
	}
}

// A transport replay after a response-loss failure must reuse the SAME
// idempotency key — that is the contract that lets the server dedupe, so a
// retried access is never executed (or charged) twice.
func TestRemoteReplaysSameIdempotencyKey(t *testing.T) {
	ep := remoteTestProblem(t)
	var mu sync.Mutex
	var keys []string
	inner := sampleHandler(t, 3)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		keys = append(keys, req.Header.Get(HeaderIdempotency))
		first := len(keys) == 1
		mu.Unlock()
		if first {
			// Simulate a response lost in transit: abort mid-body.
			w.Header().Set("Content-Length", "1000")
			w.Write([]byte(`{"samples":[{"no`))
			panic(http.ErrAbortHandler)
		}
		inner(w, req)
	}))
	defer srv.Close()

	remote, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Seed: 9, Replays: 1, Tenant: "team-a"})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.Submit(context.Background(), ep, 2)
	if err != nil {
		t.Fatalf("submit with one replay: %v", err)
	}
	if err := anneal.ValidateReadSet(ep, &rs, 2); err != nil {
		t.Fatalf("replayed read set invalid: %v", err)
	}
	mu.Lock()
	seen := append([]string(nil), keys...)
	mu.Unlock()
	if len(seen) != 2 || seen[0] == "" || seen[0] != seen[1] {
		t.Fatalf("idempotency keys across replay: %q, want two identical non-empty keys", seen)
	}

	// A second Submit is a NEW logical operation: fresh key.
	if _, err := remote.Submit(context.Background(), ep, 2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if keys[2] == keys[0] {
		t.Fatalf("distinct submits shared key %q", keys[2])
	}
}

// Cancelling a Submit mid-request must return promptly with the context's
// error and leave no goroutine behind — the stalled server connection is torn
// down, not abandoned.
func TestRemoteCancellationLeaksNoGoroutines(t *testing.T) {
	ep := remoteTestProblem(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Stall until the client hangs up. The body must be drained first: the
		// server only watches for connection close once the body hits EOF. If
		// cancellation failed to tear the connection down, this handler (and
		// its conn goroutine) would leak and srv.Close would hang.
		_, _ = io.Copy(io.Discard, req.Body)
		<-req.Context().Done()
	}))
	defer srv.Close()

	remote, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err = remote.Submit(ctx, ep, 1)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled submit returned %v, want deadline exceeded", err)
		}
		if e := time.Since(start); e > 2*time.Second {
			t.Fatalf("cancellation took %v", e)
		}
	}
	remote.client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancelled submits: %d -> %d", before, runtime.NumGoroutine())
}

// The Resilient wrapper must stop retrying a permanent rejection instead of
// burning its full attempt budget against policy.
func TestResilientStopsOnPermanentError(t *testing.T) {
	var calls int
	be := backendFunc(func(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
		calls++
		return anneal.ReadSet{}, &RemoteError{Reason: "status", Status: 403, Detail: "quota", IsPermanent: true}
	})
	r := NewResilient(be, Config{MaxAttempts: 5, Seed: 1,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }})
	_, err := r.Submit(context.Background(), remoteTestProblem(t), 1)
	if !Permanent(err) {
		t.Fatalf("permanence lost through Resilient: %v", err)
	}
	if calls != 1 {
		t.Fatalf("permanent error retried: %d attempts", calls)
	}
}

// Fallback must serve the standby when the primary fails and stay out of the
// way when the primary succeeds.
func TestFallbackServesStandby(t *testing.T) {
	ep := remoteTestProblem(t)
	want := anneal.NewSampler(anneal.DefaultSchedule(), anneal.NoNoise, 11).Sample(ep, 1)

	fail := backendFunc(func(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
		return anneal.ReadSet{}, &FaultError{Fault: "outage"}
	})
	local := NewLocal(anneal.NewSampler(anneal.DefaultSchedule(), anneal.NoNoise, 11))
	fb := NewFallback(fail, local, FallbackConfig{})
	got, err := fb.Submit(context.Background(), ep, 1)
	if err != nil {
		t.Fatalf("fallback submit: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("standby read set mangled")
	}
	if fb.fellBack.Value() != 1 {
		t.Fatalf("qpu_fallbacks = %d, want 1", fb.fellBack.Value())
	}
	if !strings.Contains(fb.Name(), "|local") {
		t.Fatalf("name %q", fb.Name())
	}

	// Cancelled context: no standby attempt.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fb.Submit(ctx, ep, 1); err == nil {
		t.Fatal("cancelled fallback submit succeeded")
	}
	if fb.fellBack.Value() != 1 {
		t.Fatal("fallback attempted for a cancelled caller")
	}

	// Both sides down: the composed error keeps both causes.
	fb2 := NewFallback(fail, fail, FallbackConfig{})
	_, err = fb2.Submit(context.Background(), ep, 1)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("composed error lost the fault type: %v", err)
	}
	if !strings.Contains(err.Error(), "primary:") {
		t.Fatalf("composed error lost the primary cause: %v", err)
	}
}

// FuzzRemoteDecode: arbitrary response bodies (any status code) must never
// panic qpu.Remote and must always yield either a well-shaped read set or a
// typed *RemoteError.
func FuzzRemoteDecode(f *testing.F) {
	f.Add([]byte(`{"samples":[{"nodes":[0],"values":[true],"energy":1.5}],"best":0}`), 200)
	f.Add([]byte(`{"samples":[],"best":0}`), 200)
	f.Add([]byte(`{]]`), 200)
	f.Add([]byte(``), 200)
	f.Add([]byte(`{"samples":[{"nodes":[0,0],"values":[true,true],"energy":0}],"best":0}`), 200)
	f.Add([]byte(`{"error":"queue_full","detail":"x"}`), 429)
	f.Add([]byte(`boom`), 502)
	f.Add(make([]byte, 3000), 200)
	f.Fuzz(func(t *testing.T, body []byte, status int) {
		if status < 200 || status > 599 {
			status = 200 + (abs(status) % 400)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if status != 200 {
				w.WriteHeader(status)
			}
			w.Write(body)
		}))
		defer srv.Close()
		remote, err := NewRemote(RemoteConfig{BaseURL: srv.URL, MaxBody: 2048, Seed: 1, Replays: 1})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := remote.Submit(context.Background(), remoteTestProblem(t), 1)
		if err == nil {
			// Whatever decoded must be internally consistent.
			if len(rs.Samples) == 0 || rs.Best < 0 || rs.Best >= len(rs.Samples) {
				t.Fatalf("accepted inconsistent read set: %+v", rs)
			}
			return
		}
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("untyped remote failure: %v (%T)", err, err)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
