package main

import (
	"testing"
	"time"
)

// TestAttributedFindsUnmatchedCalls pins the check that every QPU call the
// timing decorator saw is matched to a job by its context deadline.
func TestAttributedFindsUnmatchedCalls(t *testing.T) {
	t0 := time.Unix(1000, 0)
	jobs := []doneJob{
		{lat: 50 * time.Millisecond, sent: t0, back: t0.Add(time.Millisecond)},
		{lat: 70 * time.Millisecond, sent: t0.Add(time.Second), back: t0.Add(time.Second + time.Millisecond)},
	}
	inside := func(j doneJob) int64 { return j.sent.Add(clientDeadline + 500*time.Microsecond).UnixNano() }
	byDeadline := map[int64]qpuStats{
		inside(jobs[0]): {calls: 3, busy: 20 * time.Millisecond, shares: 2 * time.Millisecond},
		inside(jobs[1]): {calls: 2, busy: 10 * time.Millisecond, shares: 4 * time.Millisecond},
	}
	if got := attributed(jobs, byDeadline); got != 5 {
		t.Fatalf("attributed %d calls, want 5", got)
	}
	composed := composeJobs(jobs, byDeadline)
	if composed[0] != 32 || composed[1] != 64 {
		t.Fatalf("composed %v, want [32 64]", composed)
	}

	// A deadline the service derived some other way matches no job.
	byDeadline[t0.Add(2*clientDeadline).UnixNano()] = qpuStats{calls: 4}
	if got := attributed(jobs, byDeadline); got != 5 {
		t.Fatalf("attributed %d calls, want 5 with 4 unmatched", got)
	}
}
