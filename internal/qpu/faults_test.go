package qpu

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/obs"
)

func TestParseProfile(t *testing.T) {
	for name := range Profiles() {
		p, err := ParseProfile(name)
		if err != nil || p.Name != name {
			t.Fatalf("preset %q: p=%+v err=%v", name, p, err)
		}
	}
	p, err := ParseProfile("transient=0.3,slow=0.1,latency=5ms,fail_first=4,drift_sigma=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Transient != 0.3 || p.Slow != 0.1 || p.Latency != 5*time.Millisecond ||
		p.FailFirst != 4 || p.DriftSigma != 0.5 {
		t.Fatalf("parsed profile %+v", p)
	}

	for _, bad := range []string{
		"nonsense",                 // unknown preset
		"transient=0.8,outage=0.5", // probabilities sum > 1
		"transient",                // not key=value
		"bogus=0.1",                // unknown key
		"slow=-0.2",                // negative probability
		"latency=fast",             // unparsable duration
		"fail_first=-1",            // negative count
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Fatalf("ParseProfile(%q) accepted", bad)
		}
	}
	// The unknown-preset error teaches the preset names.
	_, err = ParseProfile("nonsense")
	for _, name := range []string{"flaky", "outage", "none"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-preset error %q does not list preset %q", err, name)
		}
	}
}

// faultSequence runs n submissions against a fault-injected Local backend and
// returns the injected fault tags in call order ("" for healthy calls).
func faultSequence(t *testing.T, profile Profile, seed int64, n int) []string {
	t.Helper()
	ep := testEmbeddedProblem(t)
	ring := obs.NewRing(2 * n)
	fi := NewFaultInjector(NewLocal(testSampler()), profile, seed)
	fi.Trace = ring
	fi.Sleep = instantSleep
	for i := 0; i < n; i++ {
		fi.Submit(context.Background(), ep, 1) //nolint:errcheck — faults are the point
	}
	faults := make([]string, n)
	for _, te := range ring.Events() {
		fe := te.E.(obs.QPUFaultEvent)
		faults[fe.Call] = fe.Fault
	}
	return faults
}

// TestFaultInjectorDeterministic checks the fault sequence is a pure function
// of (seed, call index): same seed reproduces it, different seeds diverge.
func TestFaultInjectorDeterministic(t *testing.T) {
	profile := Profiles()["flaky"]
	profile.Latency = time.Microsecond
	const n = 64
	a := faultSequence(t, profile, 42, n)
	b := faultSequence(t, profile, 42, n)
	injected, same43 := 0, true
	c := faultSequence(t, profile, 43, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: seed 42 gave %q then %q", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same43 = false
		}
		if a[i] != "" {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("flaky profile injected nothing in 64 calls")
	}
	if same43 {
		t.Fatal("seeds 42 and 43 produced identical fault sequences")
	}
}

func TestFaultInjectorOutage(t *testing.T) {
	ep := testEmbeddedProblem(t)
	fi := NewFaultInjector(NewLocal(testSampler()), Profiles()["outage"], 1)
	for i := 0; i < 8; i++ {
		var fe *FaultError
		if _, err := fi.Submit(context.Background(), ep, 1); !errors.As(err, &fe) || fe.Fault != "outage" {
			t.Fatalf("call %d: err=%v, want an outage FaultError", i, err)
		}
	}
	if fi.Calls() != 8 {
		t.Fatalf("Calls()=%d, want 8", fi.Calls())
	}
}

func TestFaultInjectorFailFirst(t *testing.T) {
	ep := testEmbeddedProblem(t)
	fi := NewFaultInjector(NewLocal(testSampler()), Profile{FailFirst: 3}, 1)
	for i := 0; i < 3; i++ {
		var fe *FaultError
		if _, err := fi.Submit(context.Background(), ep, 1); !errors.As(err, &fe) || fe.Fault != "transient" {
			t.Fatalf("call %d: err=%v, want a transient FaultError", i, err)
		}
	}
	rs, err := fi.Submit(context.Background(), ep, 1)
	if err != nil || len(rs.Samples) != 1 {
		t.Fatalf("call after FailFirst window: rs=%d samples, err=%v", len(rs.Samples), err)
	}
}

// TestFaultInjectorMangling checks the post-submission faults actually break
// the read set in ways boundary validation rejects (truncate, corrupt) or
// does not (drift stays well-formed — it has to slip past validation to model
// stale calibration).
func TestFaultInjectorMangling(t *testing.T) {
	ep := testEmbeddedProblem(t)
	ctx := context.Background()
	const reads = 4

	sawInvalid := false
	fi := NewFaultInjector(NewLocal(testSampler()), Profiles()["corrupt"], 3)
	for i := 0; i < 40; i++ {
		rs, err := fi.Submit(ctx, ep, reads)
		if err != nil {
			t.Fatalf("corrupt profile returned a transport error: %v", err)
		}
		if anneal.ValidateReadSet(ep, &rs, reads) != nil {
			sawInvalid = true
		}
	}
	if !sawInvalid {
		t.Fatal("corrupt profile produced no invalid read set in 40 calls")
	}

	drift := NewFaultInjector(NewLocal(testSampler()), Profiles()["drift"], 3)
	clean := NewLocal(testSampler())
	drifted := false
	for i := 0; i < 4; i++ {
		rs, err := drift.Submit(ctx, ep, reads)
		if err != nil {
			t.Fatalf("drift submit: %v", err)
		}
		if verr := anneal.ValidateReadSet(ep, &rs, reads); verr != nil {
			t.Fatalf("drifted read set must stay well-formed, got %v", verr)
		}
		ref, _ := clean.Submit(ctx, ep, reads)
		for j := range rs.Samples {
			if rs.Samples[j].HardwareEnergy != ref.Samples[j].HardwareEnergy {
				drifted = true
			}
		}
	}
	if !drifted {
		t.Fatal("drift profile left every energy untouched")
	}
}

func TestSleepContext(t *testing.T) {
	// Plain sleep completes without error.
	if err := SleepContext(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("plain sleep: %v", err)
	}
	// A cancelled context returns immediately with its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep: %v", err)
	}
	// A deadline cuts the sleep short and reports DeadlineExceeded on waking.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer dcancel()
	start := time.Now()
	err := SleepContext(dctx, time.Hour)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline sleep: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline sleep took %v, want ~5ms", elapsed)
	}
}
