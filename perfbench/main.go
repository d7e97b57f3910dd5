// Command perfbench is the repository's benchmark. It drives the hybrid
// solver and the solve service through their public Go APIs, times each call
// from outside the program, checks every verdict, and prints one JSON result
// line after a human-readable table.
//
//	perfbench --workload hybrid-sat --seed 1 --seconds 30 --trace 0
//	perfbench --all [--runs 5] [--seconds 30]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload twice
// over the same inputs, untraced and then with the program's in-memory tracer
// and the benchmark's spans attached, and reports the per-layer metrics.
// A wrong verdict, a drifting exact count or a generator that fell behind
// exits with status 1 and prints no result. The traced run's span file goes
// to --spans, .bench_build/perfbench by default.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	spans    string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

func (c config) spanPath() string {
	return filepath.Join(c.spans, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
}

type workload interface {
	run(config) (*report, error)
}

var workloads = map[string]workload{
	hybridSat.name:   hybridSat,
	hybridUnsat.name: hybridUnsat,
	serveOpen.name:   serveOpen,
}

// workloadOrder is the order --all runs them in.
var workloadOrder = []string{hybridSat.name, hybridUnsat.name, serveOpen.name}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace, runs int
	var all bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hybrid-sat, hybrid-unsat or serve-open")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	flag.BoolVar(&all, "all", false, "run every workload over several seeds and summarize")
	flag.IntVar(&runs, "runs", 5, "runs per workload with --all")
	// Capacity sweeps only: override serve-open's offered load.
	flag.Float64Var(&serveOpen.jobsPerSec, "jobs-per-s", serveOpen.jobsPerSec, "serve-open: jobs offered per second")
	flag.Float64Var(&serveOpen.samplesPerSec, "samples-per-s", serveOpen.samplesPerSec, "serve-open: raw sample requests offered per second")
	flag.IntVar(&serveOpen.burst, "burst", serveOpen.burst, "serve-open: sample requests sent together at each due time")
	flag.Parse()
	if serveOpen.jobsPerSec <= 0 || serveOpen.samplesPerSec <= 0 || serveOpen.burst < 1 {
		return errors.New("--jobs-per-s and --samples-per-s must be positive, --burst at least 1")
	}
	workloads[serveOpen.name] = serveOpen
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if all {
		return runAll(runs, cfg.seconds)
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	cfg.traced = trace == 1
	rep, err := w.run(cfg)
	if err != nil {
		return err
	}
	return rep.write(os.Stdout, cfg.workload, cfg.traced)
}
