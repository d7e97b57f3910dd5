package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// StatusVar is a swappable provider for the /solve/status endpoint. The CLI
// starts the introspection server before the solver exists and binds the
// provider once the solve is set up; until then the endpoint reports idle.
type StatusVar struct {
	v atomic.Value // func() map[string]any
}

// Set installs the status provider. The function must be safe to call from
// the HTTP serving goroutine while the solve runs (read only atomics).
func (s *StatusVar) Set(f func() map[string]any) { s.v.Store(f) }

func (s *StatusVar) get() map[string]any {
	if f, ok := s.v.Load().(func() map[string]any); ok && f != nil {
		st := f()
		if st == nil {
			st = map[string]any{}
		}
		st["state"] = "solving"
		return st
	}
	return map[string]any{"state": "idle"}
}

// expvarReg mirrors the most recently served registry into the process-wide
// expvar namespace (expvar.Publish is global and permanent, so the handle is
// swappable and published exactly once).
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
)

func publishExpvar(reg *Registry) {
	expvarReg.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("hyqsat", expvar.Func(func() any {
			if r := expvarReg.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
}

// Handler returns the live-introspection mux:
//
//	/metrics        the registry in Prometheus text format (503 without one)
//	/debug/vars     expvar (cmdline, memstats, and the registry under "hyqsat")
//	/debug/pprof/*  the net/http/pprof profile endpoints
//	/solve/status   JSON snapshot of the in-flight solve (404 without a provider)
//	/trace/flight   the flight-recorder ring as JSONL (404 without a ring)
//
// Any argument may be nil; the corresponding endpoint degrades gracefully.
// A nil status provider leaves /solve/status unrouted rather than reporting
// idle, since a process without one (the daemon) may well be busy.
func Handler(reg *Registry, ring *Ring, status *StatusVar) http.Handler {
	if reg != nil {
		publishExpvar(reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if reg == nil {
			// Distinguish "metrics not wired" from "no data yet": scrapers
			// treat an empty 200 as a healthy target with zero series.
			http.Error(w, "metrics registry not configured", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.Snapshot().WriteText(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if status != nil {
		mux.HandleFunc("/solve/status", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(status.get())
		})
	}
	if ring != nil {
		mux.HandleFunc("/trace/flight", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = ring.Dump(w)
		})
	}
	return mux
}

// Server is a live introspection HTTP server.
type Server struct {
	Addr string // actual listen address (useful with ":0")
	srv  *http.Server
	ln   net.Listener
	err  chan error
}

// Serve starts an HTTP server for h on addr (host:port; ":0" picks a free
// port) and returns once it is listening. Serving happens on a background
// goroutine; Close shuts it down.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s := &Server{Addr: ln.Addr().String(), srv: srv, ln: ln, err: make(chan error, 1)}
	go func() {
		serr := srv.Serve(ln)
		if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			s.err <- serr
		}
		close(s.err)
	}()
	return s, nil
}

// Err reports the serving loop's fate. The channel delivers at most one error
// — an abnormal exit of srv.Serve, such as the listener dying under the
// server — and is closed when serving stops for any reason. A clean Close
// just closes the channel. Callers typically select on it next to their
// shutdown signal so a dead introspection endpoint is logged, not silent.
func (s *Server) Err() <-chan error { return s.err }

// Close stops the server gracefully: the listener closes immediately (no new
// connections) but in-flight requests — a /metrics scrape mid-write, a
// /trace/flight dump — get up to a second to finish before the remaining
// connections are cut.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Deadline hit with requests still running: fall back to the hard
		// close so Close never leaves the port bound.
		return s.srv.Close()
	}
	return nil
}
