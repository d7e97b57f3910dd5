package serve

import (
	"context"
	"sync"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/sat"
)

// Job lifecycle states.
const (
	StateQueued       = "queued"
	StateRunning      = "running"
	StateDone         = "done"
	StateFailed       = "failed"
	StateCheckpointed = "checkpointed" // drain interrupted the solve; resubmit to resume
)

// job is one admitted solve. Fields past the mutex are owned by it; the
// immutable identity fields are set before the job is visible to anyone.
type job struct {
	id       string
	tenant   string
	idemKey  string
	req      SubmitRequest
	formula  *cnf.Formula // parsed at admission so malformed CNF is a 400, not a failed job
	accepted time.Time
	deadline time.Time // zero: no client deadline

	mu      sync.Mutex
	state   string
	started time.Time
	ended   time.Time
	result  hyqsat.Result
	err     error
	cancel  context.CancelFunc // set while running; drain uses it past the grace period
}

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// CNF is the formula in DIMACS text.
	CNF string `json:"cnf"`
	// Seed drives the solve's stochastic choices (0 is a valid seed).
	Seed int64 `json:"seed"`
}

// JobView is the JSON representation of a job returned by the status and
// submit endpoints.
type JobView struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	Verdict   string `json:"verdict,omitempty"` // "sat" | "unsat" | "unknown"
	Certified bool   `json:"certified,omitempty"`
	// Model is the satisfying assignment as DIMACS literals (positive =
	// true), truncated to the input formula's variables.
	Model   []int  `json:"model,omitempty"`
	Error   string `json:"error,omitempty"`
	QueueMs int64  `json:"queue_ms,omitempty"`
	RunMs   int64  `json:"run_ms,omitempty"`
}

// view snapshots the job for the API. The reported model is truncated to the
// input formula's variables (the solver's 3-CNF may introduce auxiliaries).
func (j *job) view() JobView {
	numVars := j.formula.NumVars
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, Tenant: j.tenant, State: j.state}
	if !j.started.IsZero() {
		v.QueueMs = j.started.Sub(j.accepted).Milliseconds()
	}
	if !j.ended.IsZero() {
		v.RunMs = j.ended.Sub(j.started).Milliseconds()
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.state == StateDone {
		v.Certified = j.result.Certified
		switch j.result.Status {
		case sat.Sat:
			v.Verdict = "sat"
			for i := 0; i < numVars && i < len(j.result.Model); i++ {
				lit := i + 1
				if !j.result.Model[i] {
					lit = -lit
				}
				v.Model = append(v.Model, lit)
			}
		case sat.Unsat:
			v.Verdict = "unsat"
		default:
			v.Verdict = "unknown"
		}
	}
	return v
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}
