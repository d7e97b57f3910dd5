package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAll runs every workload over seeds 1..runs with --trace 0, then once
// more with --trace 1, each run in a fresh process, and prints each metric's
// median and quartiles over the untraced runs followed by the traced run's
// per-layer metrics.
func runAll(runs, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadOrder {
		var results []resultOut
		for seed := 1; seed <= runs; seed++ {
			r, err := runChild(self, name, seed, seconds, 0)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Printf("== %s: %d runs of %ds (seeds 1..%d)\n", name, runs, seconds, runs)
		fmt.Printf("%-30s %12s %12s %12s  unit\n", "metric", "median", "q1", "q3")
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range results {
				xs = append(xs, r.Metrics[d.name].Value)
			}
			fmt.Printf("%-30s %12.4f %12.4f %12.4f  %s\n", d.name,
				quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75), d.unit)
		}
		attempted, failed := 0, 0
		for _, r := range results {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Printf("%-30s %12.4f %12s %12s  ratio (%d of %d)\n", "failed_frac",
			float64(failed)/float64(max(attempted, 1)), "", "", failed, attempted)

		traced, err := runChild(self, name, runs+1, seconds, 1)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s traced run (seed %d)\n", name, runs+1)
		for _, d := range perLayer {
			fmt.Printf("%-30s %12.4f  %s\n", d.name, traced.Metrics[d.name].Value, d.unit)
		}
	}
	return nil
}

// runChild runs one workload in a child process and decodes its result line.
func runChild(self, name string, seed, seconds, trace int) (resultOut, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultOut{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r resultOut
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return resultOut{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	if !r.Correct {
		return resultOut{}, fmt.Errorf("%s seed %d: incorrect outputs", name, seed)
	}
	return r, nil
}
