package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
)

// ThroughputConfig parameterizes RunThroughputBench.
type ThroughputConfig struct {
	// Clients is the number of concurrent submitters (each its own tenant);
	// the service runs one worker per client. Default 1.
	Clients int
	// Jobs is the total number of solve jobs across all clients. Default
	// 8 × Clients.
	Jobs int
	// Batching selects whether the service batches QPU accesses, with the
	// service's default window; off runs one device program per request
	// (the baseline).
	Batching bool
	// Vars/Clauses shape the random 3-SAT instances (defaults 12/50).
	Vars, Clauses int
	// Reads is the solver's NumReads per QA access (default 1). Higher
	// values raise the modelled device time per access, shifting the
	// bottleneck toward the paced device — where batching matters.
	Reads int
	// Seed drives instance generation and per-job solver seeds.
	Seed int64
}

// ThroughputResult is one bench row: service throughput, client-observed
// latency quantiles, and modelled device time consumed per verdict.
type ThroughputResult struct {
	Clients          int
	Batching         bool
	Jobs             int
	Elapsed          time.Duration
	JobsPerSec       float64
	P50              time.Duration
	P99              time.Duration
	DeviceNs         int64         // total modelled device time across all programs
	DevicePerVerdict time.Duration // DeviceNs / completed jobs
}

// RunThroughputBench measures end-to-end solve-service throughput under a
// paced virtual QPU: the emulated device is serial and held for each
// program's modelled access time, so device contention — the thing batching
// relieves — is physically present in the measurement. Clients submit jobs
// round-robin over their own tenants and poll to completion; the result
// reports jobs/sec, client latency quantiles, and device time per verdict.
func RunThroughputBench(cfg ThroughputConfig) (ThroughputResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 8 * cfg.Clients
	}
	if cfg.Vars <= 0 {
		cfg.Vars = 12
	}
	if cfg.Clauses <= 0 {
		cfg.Clauses = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	solve := hyqsat.SimulatorOptions() // no SelfCertify: bench the solve path
	if cfg.Reads > 0 {
		solve.NumReads = cfg.Reads
	}
	reg := obs.NewRegistry()
	var window time.Duration // 0: the service's default batching window
	if !cfg.Batching {
		window = -1
	}
	svc := New(Config{
		Workers:    cfg.Clients,
		QueueDepth: cfg.Jobs + cfg.Clients,
		DefaultQuota: TenantQuota{
			MaxConcurrent: cfg.Jobs,
			DeviceBudget:  time.Hour,
			DeviceRefill:  time.Hour,
		},
		Solve:             solve,
		HaveSolveDefaults: true,
		BatchWindow:       window,
		BatchPace:         true,
		Metrics:           reg,
	})

	instances := make([]string, cfg.Jobs)
	for i := range instances {
		inst := gen.SatisfiableRandom3SAT(cfg.Vars, cfg.Clauses, cfg.Seed+int64(i))
		instances[i] = cnf.DIMACSString(inst.Formula)
	}

	latencies := make([]time.Duration, cfg.Jobs)
	errs := make([]error, cfg.Clients)
	start := time.Now()
	done := make(chan int, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		go func(c int) {
			tenant := fmt.Sprintf("bench-%d", c)
			for i := c; i < cfg.Jobs; i += cfg.Clients {
				t0 := time.Now()
				view, _, err := svc.Submit(tenant, "", SubmitRequest{
					CNF:  instances[i],
					Seed: cfg.Seed + int64(i),
				}, time.Time{})
				if err != nil {
					errs[c] = fmt.Errorf("job %d: %w", i, err)
					break
				}
				for {
					v, ok := svc.Job(view.ID)
					if !ok {
						errs[c] = fmt.Errorf("job %d: vanished", i)
						return
					}
					if v.State == StateDone || v.State == StateFailed || v.State == StateCheckpointed {
						if v.State != StateDone {
							errs[c] = fmt.Errorf("job %d: ended %s", i, v.State)
						}
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				latencies[i] = time.Since(t0)
			}
			done <- c
		}(c)
	}
	for c := 0; c < cfg.Clients; c++ {
		<-done
	}
	elapsed := time.Since(start)
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = svc.Drain(drainCtx)
	if err := errors.Join(errs...); err != nil {
		return ThroughputResult{}, err
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) time.Duration {
		idx := int(q * float64(len(latencies)-1))
		return latencies[idx]
	}
	deviceNs := reg.Counter("batch_device_ns").Value()
	res := ThroughputResult{
		Clients:    cfg.Clients,
		Batching:   cfg.Batching,
		Jobs:       cfg.Jobs,
		Elapsed:    elapsed,
		JobsPerSec: float64(cfg.Jobs) / elapsed.Seconds(),
		P50:        quantile(0.50),
		P99:        quantile(0.99),
		DeviceNs:   deviceNs,
	}
	if cfg.Jobs > 0 {
		res.DevicePerVerdict = time.Duration(deviceNs / int64(cfg.Jobs))
	}
	return res, nil
}
