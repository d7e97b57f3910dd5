// Command experiments regenerates the paper's evaluation tables and figures
// (Tables I–III, Figures 1, 5, 8, 10–15) and prints them as text tables.
//
// Usage:
//
//	experiments                      # run everything at the default scale
//	experiments -only table1,fig13   # run selected experiments
//	experiments -problems 5 -queues 10 -samples 400   # closer to paper scale
//
// Absolute times will differ from the paper (different CPU; QA device time
// is modelled); the shapes are the reproduction target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hyqsat/internal/bench"
	"hyqsat/internal/obs"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (fig1,fig5,fig8,fig10..fig15,table1..table3,ablation-chain,ablation-schedule,ablation-warmup,ablation-adjust)")
	problems := flag.Int("problems", 0, "instances per benchmark family (default 2; paper uses up to 100)")
	queues := flag.Int("queues", 0, "clause queues for fig13 (default 2; paper 50)")
	samples := flag.Int("samples", 0, "samples for distribution experiments (default 120; paper 2000)")
	seed := flag.Int64("seed", 1, "base seed")
	timeout := flag.Int("embed-timeout", 0, "per-embedding timeout in seconds for fig13 (default 10; paper 300)")
	workers := flag.Int("workers", 0, "worker pool for the iteration-count experiments (0 = NumCPU); reports are identical at any count")
	metricsAddr := flag.String("metrics-addr", "", "serve live job progress (/metrics, /debug/vars) on this address while experiments run")
	flag.Parse()

	cfg := bench.Config{
		ProblemsPerFamily: *problems,
		Queues:            *queues,
		Samples:           *samples,
		Seed:              *seed,
		EmbedTimeoutSec:   *timeout,
		Workers:           *workers,
	}.WithDefaults()
	if *metricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		srv, err := obs.Serve(*metricsAddr, obs.Handler(cfg.Metrics, nil, nil))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		go func() {
			if serr, ok := <-srv.Err(); ok && serr != nil {
				fmt.Fprintf(os.Stderr, "experiments: metrics server died: %v\n", serr)
			}
		}()
		fmt.Fprintf(os.Stderr, "experiments: metrics on http://%s\n", srv.Addr)
	}

	if *only == "" {
		for _, rep := range bench.All(cfg) {
			rep.Fprint(os.Stdout)
		}
		return
	}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(id)
		run := bench.ByID(id)
		if run == nil {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q\n", id)
			os.Exit(1)
		}
		run(cfg).Fprint(os.Stdout)
	}
}
