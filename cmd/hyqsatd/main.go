// Command hyqsatd serves the hybrid solver over HTTP/JSON, engineered for
// failure first: bounded job queue with reject-don't-buffer admission,
// per-tenant quotas on concurrent jobs and modelled QA device time,
// idempotency keys against double-submits, client deadline propagation, and
// graceful drain on SIGTERM/SIGINT (stop accepting, finish in-flight jobs or
// stop them as checkpointed, flush traces).
//
// API (see DESIGN.md §14 and the README's "Running as a service"):
//
//	POST /v1/jobs        {"cnf": "<DIMACS>", "seed": n} → 202 {"id": ...}
//	GET  /v1/jobs/{id}   job status / certified verdict
//	POST /v1/qpu/sample  one QA device access over HTTP (qpu wire format)
//	GET  /healthz        liveness + drain state
//
// A second -obs address exposes the usual introspection endpoints
// (/metrics, /debug/pprof, /trace/flight) out-of-band, so operational
// scraping never competes with solve traffic for the API listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"hyqsat/internal/obs"
	"hyqsat/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable main: ready (when non-nil) receives the API base URL
// once the service is listening, so tests can drive a real daemon without
// races or port guessing.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("hyqsatd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "API listen address (host:port; :0 picks a free port)")
	obsAddr := fs.String("obs", "", "introspection listen address (/metrics, /debug/pprof); empty disables")
	queueDepth := fs.Int("queue", 16, "job queue depth; a full queue refuses with 429")
	workers := fs.Int("workers", 2, "solve worker count")
	maxConcurrent := fs.Int("tenant-jobs", 4, "per-tenant concurrent job quota")
	deviceBudget := fs.Duration("tenant-device", 50*time.Millisecond, "per-tenant QA device-time bucket")
	deviceRefill := fs.Duration("tenant-refill", 5*time.Millisecond, "device-time refill per second; 0 makes the budget hard")
	solveTimeout := fs.Duration("solve-timeout", 2*time.Minute, "per-job solve cap")
	drainGrace := fs.Duration("drain-grace", 5*time.Second, "how long drain lets in-flight solves finish before checkpointing them")
	traceFile := fs.String("trace", "", "append the JSONL solve trace to this file")
	qpuWindow := fs.Duration("qpu-window", 0, "QPU batching window: concurrent sample/solve QA accesses within it share one device program (0 = default 100µs, negative disables batching)")
	qpuMembers := fs.Int("qpu-batch-members", 0, "max requests per batched device program (0 = default)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the daemon's lifetime to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at drain to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hyqsatd:", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "hyqsatd: memprofile:", err)
			}
			f.Close()
		}()
	}

	reg := obs.NewRegistry()
	ring := obs.NewRing(4096)
	sinks := []obs.Tracer{ring}
	flush := func() error { return nil }
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		sink := obs.NewJSONLSink(f)
		sinks = append(sinks, sink)
		flush = sink.Flush
	}

	svc := serve.New(serve.Config{
		QueueDepth: *queueDepth,
		Workers:    *workers,
		DefaultQuota: serve.TenantQuota{
			MaxConcurrent: *maxConcurrent,
			DeviceBudget:  *deviceBudget,
			DeviceRefill:  *deviceRefill,
		},
		SolveTimeout:    *solveTimeout,
		DrainGrace:      *drainGrace,
		BatchWindow:     *qpuWindow,
		BatchMaxMembers: *qpuMembers,
		Trace:           obs.Tee(sinks...),
		Metrics:         reg,
		Flush:           flush,
	})

	// SIGTERM and SIGINT both drain: admission flips to 503, in-flight jobs
	// finish or checkpoint within the grace period, traces flush, then exit.
	// The handler is installed before the API is announced, so a signal sent
	// as soon as the daemon is ready drains it instead of killing it.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	api, err := obs.Serve(*addr, svc.Handler())
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "hyqsatd: serving on http://%s\n", api.Addr)
	if ready != nil {
		ready <- "http://" + api.Addr
	}

	var obsSrv *obs.Server
	if *obsAddr != "" {
		obsSrv, err = obs.Serve(*obsAddr, obs.Handler(reg, ring, nil))
		if err != nil {
			api.Close()
			return fail(err)
		}
		stopSampler := obs.StartRuntimeSampler(reg, 0)
		defer stopSampler()
		fmt.Fprintf(stderr, "hyqsatd: introspection on http://%s\n", obsSrv.Addr)
	}

	// Serve until a shutdown signal or a dead listener.
	obsErr := func() <-chan error {
		if obsSrv != nil {
			return obsSrv.Err()
		}
		return nil
	}()
	exit := 0
	select {
	case <-sigCtx.Done():
		fmt.Fprintln(stderr, "hyqsatd: shutdown signal, draining")
	case err, ok := <-api.Err():
		if ok && err != nil {
			fmt.Fprintln(stderr, "hyqsatd: api server died:", err)
			exit = 1
		}
	case err, ok := <-obsErr:
		// A dead introspection listener is loud but not fatal: solves keep
		// serving, only the scrape path is gone.
		if ok && err != nil {
			fmt.Fprintln(stderr, "hyqsatd: introspection server died:", err)
		}
		<-sigCtx.Done()
		fmt.Fprintln(stderr, "hyqsatd: shutdown signal, draining")
	}

	// Stop accepting before draining, so nothing new lands in the queue
	// while it empties.
	if err := api.Close(); err != nil {
		fmt.Fprintln(stderr, "hyqsatd: api close:", err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintln(stderr, "hyqsatd: drain:", err)
		exit = 1
	}
	if obsSrv != nil {
		if err := obsSrv.Close(); err != nil {
			fmt.Fprintln(stderr, "hyqsatd: introspection close:", err)
		}
	}
	fmt.Fprintln(stdout, "hyqsatd: drained cleanly")
	return exit
}
