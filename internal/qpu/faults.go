package qpu

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/obs"
)

// Profile is a fault profile: per-submission probabilities of each failure
// mode of a remote annealer. At most one fault fires per submission (a single
// uniform draw across the cumulative probabilities), which keeps profiles
// easy to reason about: the probabilities must sum to at most 1, and the
// remainder is the healthy path.
type Profile struct {
	Name string

	// Failure-mode probabilities, drawn once per submission.
	Timeout   float64 // hang until the context deadline, then fail
	Transient float64 // fail immediately with a retryable error
	Outage    float64 // fail immediately with an outage error (1.0 = dead backend)
	Slow      float64 // delay by Latency, then answer normally
	Truncate  float64 // return fewer samples than requested
	Corrupt   float64 // NaN/Inf energies, missing or impossible readout values
	Drift     float64 // stale calibration: well-formed but systematically wrong reads

	// FailFirst makes the first N submissions fail with transient errors
	// regardless of the probabilities — the deterministic shape recovery
	// tests use (breaker trips, cooldown elapses, probe succeeds, QA resumes).
	FailFirst int

	// Latency is the wall-clock delay of slow and deadline-free timeout
	// faults (default 2ms).
	Latency time.Duration
	// DriftSigma scales the stale-calibration perturbation (default 0.25).
	DriftSigma float64
}

func (p Profile) latency() time.Duration {
	if p.Latency <= 0 {
		return 2 * time.Millisecond
	}
	return p.Latency
}

func (p Profile) driftSigma() float64 {
	if p.DriftSigma <= 0 {
		return 0.25
	}
	return p.DriftSigma
}

// Profiles returns the named fault presets: "none" (healthy), "flaky"
// (mixed transient faults, the realistic internet-attached-QPU profile),
// "slow" (high latency), "corrupt" (garbage read sets), "drift" (stale
// calibration on every read), and "outage" (100% dead backend).
func Profiles() map[string]Profile {
	return map[string]Profile{
		"none":    {Name: "none"},
		"flaky":   {Name: "flaky", Transient: 0.25, Timeout: 0.05, Slow: 0.10, Truncate: 0.05, Corrupt: 0.05},
		"slow":    {Name: "slow", Slow: 0.5},
		"corrupt": {Name: "corrupt", Truncate: 0.15, Corrupt: 0.35},
		"drift":   {Name: "drift", Drift: 1.0},
		"outage":  {Name: "outage", Outage: 1.0},
	}
}

// ParseProfile resolves a -fault-profile spec: either a preset name from
// Profiles, or a comma-separated key=value list (keys: timeout, transient,
// outage, slow, truncate, corrupt, drift, fail_first, latency, drift_sigma;
// e.g. "transient=0.3,slow=0.1,latency=5ms").
func ParseProfile(spec string) (Profile, error) {
	presets := Profiles()
	if p, ok := presets[spec]; ok {
		return p, nil
	}
	if !strings.Contains(spec, "=") {
		names := make([]string, 0, len(presets))
		for name := range presets {
			names = append(names, name)
		}
		sort.Strings(names)
		return Profile{}, fmt.Errorf("qpu: unknown fault profile %q (presets: %s)",
			spec, strings.Join(names, ", "))
	}
	p := Profile{Name: spec}
	total := 0.0
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Profile{}, fmt.Errorf("qpu: fault profile entry %q is not key=value", kv)
		}
		switch key {
		case "fail_first":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Profile{}, fmt.Errorf("qpu: fault profile fail_first=%q: not a non-negative integer", val)
			}
			p.FailFirst = n
			continue
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Profile{}, fmt.Errorf("qpu: fault profile latency=%q: not a non-negative duration", val)
			}
			p.Latency = d
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return Profile{}, fmt.Errorf("qpu: fault profile %s=%q: not a non-negative number", key, val)
		}
		switch key {
		case "timeout":
			p.Timeout = f
		case "transient":
			p.Transient = f
		case "outage":
			p.Outage = f
		case "slow":
			p.Slow = f
		case "truncate":
			p.Truncate = f
		case "corrupt":
			p.Corrupt = f
		case "drift":
			p.Drift = f
		case "drift_sigma":
			p.DriftSigma = f
			continue
		default:
			return Profile{}, fmt.Errorf("qpu: unknown fault profile key %q", key)
		}
		total += f
	}
	if total > 1+1e-9 {
		return Profile{}, fmt.Errorf("qpu: fault profile probabilities sum to %.3f > 1", total)
	}
	return p, nil
}

// FaultInjector decorates a backend with deterministic, seeded faults: each
// submission derives its own RNG stream from (seed, call index), so for a
// fixed seed the fault sequence is bit-identical regardless of timing or
// concurrency, while successive calls see fresh randomness.
type FaultInjector struct {
	// Trace, when non-nil and enabled, receives one QPUFaultEvent per
	// injected fault.
	Trace obs.Tracer
	// Sleep implements the wall-clock delays of slow/timeout faults;
	// overridable for instant tests. It must honour ctx deadlines.
	Sleep func(ctx context.Context, d time.Duration) error

	inner   Backend
	profile Profile
	seed    int64
	calls   atomic.Int64
}

// NewFaultInjector decorates inner with the fault profile, seeded.
func NewFaultInjector(inner Backend, profile Profile, seed int64) *FaultInjector {
	return &FaultInjector{inner: inner, profile: profile, seed: seed, Sleep: SleepContext}
}

// Name implements Backend.
func (f *FaultInjector) Name() string { return "faulty(" + f.inner.Name() + ")" }

// Calls returns how many submissions the injector has seen.
func (f *FaultInjector) Calls() int64 { return f.calls.Load() }

// pick draws this call's fault (or "" for healthy) from the profile.
func (f *FaultInjector) pick(rng *rand.Rand, call int64) string {
	p := f.profile
	if call < int64(p.FailFirst) {
		return "transient"
	}
	u := rng.Float64()
	for _, fault := range []struct {
		name string
		prob float64
	}{
		{"outage", p.Outage},
		{"timeout", p.Timeout},
		{"transient", p.Transient},
		{"slow", p.Slow},
		{"truncate", p.Truncate},
		{"corrupt", p.Corrupt},
		{"drift", p.Drift},
	} {
		if u < fault.prob {
			return fault.name
		}
		u -= fault.prob
	}
	return ""
}

// Submit implements Backend: it decides this call's fault deterministically,
// then fails, delays, or forwards to the inner backend and mangles the
// result accordingly.
func (f *FaultInjector) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	call := f.calls.Add(1) - 1
	rng := rand.New(rand.NewSource(streamSeed(f.seed, call)))
	fault := f.pick(rng, call)
	if fault != "" && f.Trace != nil && f.Trace.Enabled() {
		f.Trace.Emit(obs.QPUFaultEvent{Call: call, Fault: fault})
	}
	switch fault {
	case "outage":
		return anneal.ReadSet{}, &FaultError{Fault: "outage"}
	case "transient":
		return anneal.ReadSet{}, &FaultError{Fault: "transient"}
	case "timeout":
		// Hang until the deadline (or Latency when there is none), then fail
		// the way a lost job does: with the context's verdict if it expired,
		// a timeout fault otherwise.
		if err := f.Sleep(ctx, f.profile.latency()); err != nil {
			return anneal.ReadSet{}, err
		}
		return anneal.ReadSet{}, &FaultError{Fault: "timeout"}
	case "slow":
		if err := f.Sleep(ctx, f.profile.latency()); err != nil {
			return anneal.ReadSet{}, err
		}
	}
	rs, err := f.inner.Submit(ctx, ep, reads)
	if err != nil {
		return rs, err
	}
	switch fault {
	case "truncate":
		// Drop the tail of the read set — a partial readout. Best is left
		// untouched, so it may dangle; validation must catch both.
		if n := len(rs.Samples); n > 0 {
			rs.Samples = rs.Samples[:rng.Intn(n)]
		}
	case "corrupt":
		corruptReadSet(rng, &rs, ep)
	case "drift":
		driftReadSet(rng, &rs, f.profile.driftSigma())
	}
	return rs, nil
}

// corruptReadSet applies one shape-breaking corruption to one read: the kind
// of garbage a mis-calibrated readout chain or a broken transport produces.
func corruptReadSet(rng *rand.Rand, rs *anneal.ReadSet, ep *anneal.EmbeddedProblem) {
	if len(rs.Samples) == 0 {
		return
	}
	s := &rs.Samples[rng.Intn(len(rs.Samples))]
	switch rng.Intn(5) {
	case 0:
		s.HardwareEnergy = math.NaN()
	case 1:
		s.HardwareEnergy = math.Inf(1)
	case 2:
		s.NodeValues = nil
	case 3:
		// Name a logical node the embedding does not carry.
		s.NodeValues[ep.NumActiveQubits()+1000+rng.Intn(1<<16)] = rng.Intn(2) == 0
	case 4:
		// Drop one chain's value — an incomplete readout.
		for node := range s.NodeValues {
			delete(s.NodeValues, node)
			break
		}
	}
}

// driftReadSet models stale calibration: every read stays well-formed (it
// passes shape validation) but its energies and values are systematically
// wrong, so only the solver's own cross-checking absorbs it.
func driftReadSet(rng *rand.Rand, rs *anneal.ReadSet, sigma float64) {
	for i := range rs.Samples {
		s := &rs.Samples[i]
		s.HardwareEnergy = s.HardwareEnergy*(1+sigma*rng.NormFloat64()) + sigma*rng.NormFloat64()
		for node, v := range s.NodeValues {
			if rng.Float64() < sigma/2 {
				s.NodeValues[node] = !v
			}
		}
	}
}

// streamSeed mixes (seed, call) into a well-spread non-negative stream seed
// (splitmix64 finaliser, as the sampler's per-read streams do).
func streamSeed(seed, call int64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(call+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// SleepContext sleeps for d, cut short by ctx's cancellation or deadline; it
// returns ctx's verdict after waking, so sleeping into a deadline reports
// context.DeadlineExceeded.
func SleepContext(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
	return ctx.Err()
}
