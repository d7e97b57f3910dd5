package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body, _ := io.ReadAll(w.Result().Body)
	return w.Result().StatusCode, string(body)
}

func TestHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("qa_calls").Add(7)
	h := Handler(reg, nil, nil)
	code, body := get(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, "qa_calls 7") {
		t.Fatalf("code=%d body=%q", code, body)
	}
}

func TestHandlerStatus(t *testing.T) {
	// No provider: no route, so a process that cannot report its state
	// never reports itself idle.
	if code, _ := get(t, Handler(NewRegistry(), nil, nil), "/solve/status"); code != 404 {
		t.Fatalf("status without provider: code=%d, want 404", code)
	}

	var status StatusVar
	h := Handler(NewRegistry(), nil, &status)

	code, body := get(t, h, "/solve/status")
	var st map[string]any
	if code != 200 || json.Unmarshal([]byte(body), &st) != nil {
		t.Fatalf("code=%d body=%q", code, body)
	}
	if st["state"] != "idle" {
		t.Fatalf("unbound status = %v, want idle", st)
	}

	status.Set(func() map[string]any { return map[string]any{"iteration": int64(42)} })
	_, body = get(t, h, "/solve/status")
	if json.Unmarshal([]byte(body), &st) != nil {
		t.Fatalf("bad status JSON: %q", body)
	}
	if st["state"] != "solving" || st["iteration"] != float64(42) {
		t.Fatalf("bound status = %v", st)
	}
}

func TestHandlerFlight(t *testing.T) {
	noRing := Handler(NewRegistry(), nil, nil)
	if code, _ := get(t, noRing, "/trace/flight"); code != 404 {
		t.Fatalf("flight without ring: code=%d, want 404", code)
	}

	ring := NewRing(4)
	ring.Emit(RestartEvent{Restarts: 1})
	h := Handler(NewRegistry(), ring, nil)
	code, body := get(t, h, "/trace/flight")
	if code != 200 {
		t.Fatalf("flight code=%d", code)
	}
	_, events, err := ReadTrace(strings.NewReader(body))
	if err != nil || len(events) != 1 {
		t.Fatalf("flight body events=%d err=%v body=%q", len(events), err, body)
	}
}

func TestHandlerExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("iteration").Set(5)
	h := Handler(reg, nil, nil)
	code, body := get(t, h, "/debug/vars")
	if code != 200 {
		t.Fatalf("expvar code=%d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("expvar not JSON: %v", err)
	}
	hy, ok := vars["hyqsat"].(map[string]any)
	if !ok {
		t.Fatalf("expvar missing hyqsat section: %v", vars["hyqsat"])
	}
	gauges, _ := hy["gauges"].(map[string]any)
	if gauges["iteration"] != float64(5) {
		t.Fatalf("expvar gauges = %v", gauges)
	}
}

// TestHandlerMetricsWithoutRegistry: a scraper must see an explicit 503, not
// an empty 200 that reads as a healthy target with zero series.
func TestHandlerMetricsWithoutRegistry(t *testing.T) {
	h := Handler(nil, nil, nil)
	code, body := get(t, h, "/metrics")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("metrics without registry: code=%d body=%q, want 503", code, body)
	}
}

func TestHandlerPprof(t *testing.T) {
	h := Handler(NewRegistry(), nil, nil)
	code, body := get(t, h, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code=%d", code)
	}
	if code, _ := get(t, h, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline: code=%d", code)
	}
}

func TestServeAndClose(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	srv, err := Serve("127.0.0.1:0", Handler(reg, nil, nil))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "up 1") {
		t.Fatalf("code=%d body=%q", resp.StatusCode, body)
	}
}

// TestCloseLeavesNoGoroutines: Close drains in-flight requests and stops the
// serving goroutine — the goroutine count must come back down.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := Serve("127.0.0.1:0", Handler(NewRegistry(), nil, nil))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked after Close: %d -> %d", before, after)
	}
	if _, err := http.Get("http://" + srv.Addr + "/metrics"); err == nil {
		t.Fatal("server still accepting connections after Close")
	}
}

// TestConcurrentEmitAndScrape hammers the flight recorder and a JSONL sink
// from several goroutines while /trace/flight and /metrics are scraped. Run
// under -race this is the data-race gate for the tracing plane.
func TestConcurrentEmitAndScrape(t *testing.T) {
	reg := NewRegistry()
	quality := NewQualityTracker(reg)
	ring := NewRing(64)
	sink := NewJSONLSink(io.Discard)
	tee := WithSource(Tee(ring, sink, quality), Source{Solve: "s1"})

	srv, err := Serve("127.0.0.1:0", Handler(reg, ring, nil))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scoped := WithSource(tee, Source{Name: fmt.Sprintf("w%d", g)})
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				scoped.Emit(ConflictEvent{Conflicts: i})
				scoped.Emit(RestartEvent{Restarts: i})
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/trace/flight", "/metrics"} {
			resp, err := http.Get("http://" + srv.Addr + path)
			if err != nil {
				t.Fatalf("scrape %s: %v", path, err)
			}
			if path == "/trace/flight" {
				if _, _, err := ReadTrace(resp.Body); err != nil {
					t.Fatalf("flight dump not parseable mid-emit: %v", err)
				}
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
		}
	}
	close(stop)
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if ring.Total() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestServerErr: a clean Close just closes the error channel; a listener
// yanked out from under the running server surfaces the failure on Err.
func TestServerErr(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Handler(NewRegistry(), nil, nil))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case serr, ok := <-srv.Err():
		if ok && serr != nil {
			t.Fatalf("clean shutdown reported error: %v", serr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Err not closed after clean shutdown")
	}

	srv2, err := Serve("127.0.0.1:0", Handler(NewRegistry(), nil, nil))
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	srv2.ln.Close() // the listener dies under the server
	select {
	case serr := <-srv2.Err():
		if serr == nil {
			t.Fatal("dead listener reported no error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dead listener never surfaced on Err")
	}
}
