// Package obs is the solve-trace telemetry layer of the reproduction: a
// structured event tracer for the hybrid solve pipeline, a stdlib-only
// metrics registry (counters, gauges, fixed-bucket histograms with atomic
// updates), and live HTTP introspection endpoints.
//
// The package is deliberately dependency-free (stdlib only) and sits below
// every solver package: internal/sat emits conflict/restart events,
// internal/anneal emits per-read QA sampling outcomes, internal/hyqsat emits
// embed/strategy events and phase spans, and internal/portfolio emits race
// progress. The paper's evaluation aggregates (Fig 11 phase breakdown, Fig 9
// outcome classification, Table III iteration counts) are reconstructible
// from a recorded trace — see PhaseBreakdown and OutcomeCounts in replay.go.
//
// Overhead contract: with tracing disabled (the Nop tracer, or a nil tracer
// at the emission sites) no events are constructed, so hot paths — in
// particular the internal/anneal sweep kernel — stay zero-allocation.
// Emission sites guard with Tracer.Enabled() before building an event.
package obs

// Event is one structured solve event. Implementations are small value types
// that encode losslessly to JSON; Kind returns the stable type tag used as
// the "t" field of the JSONL envelope.
type Event interface {
	Kind() string
}

// TraceSchemaVersion is the schema version stamped into the header record of
// every JSONL trace. Bump it when the envelope or an event payload changes
// incompatibly. Version 2: PortfolioEvent lost its budget and its per-window
// "window" status became one "start" per entrant.
const TraceSchemaVersion = 2

// headerKind is the envelope type tag of the header record.
const headerKind = "header"

// HeaderEvent is the first record of a JSONL trace: the schema version and
// the wall-clock time (microseconds since the Unix epoch) corresponding to
// envelope timestamp 0. Event timestamps stay monotonic and sink-relative;
// the header is what lets offline tooling align or merge traces recorded by
// different processes.
type HeaderEvent struct {
	Schema  int   `json:"schema"`
	StartUs int64 `json:"start_us"`
}

// Kind implements Event.
func (HeaderEvent) Kind() string { return headerKind }

// ConflictEvent records one CDCL conflict: the running conflict count, the
// decision level the conflict occurred at (conflict depth), the learnt
// clause's length and LBD, and the backjump target level. A root-level
// conflict (unsatisfiability established) has LearntLen 0.
type ConflictEvent struct {
	Conflicts int64 `json:"conflicts"`
	Level     int   `json:"level"`
	LearntLen int   `json:"learnt_len"`
	LBD       int   `json:"lbd"`
	Backjump  int   `json:"backjump"`
}

// Kind implements Event.
func (ConflictEvent) Kind() string { return "conflict" }

// RestartEvent records one CDCL restart.
type RestartEvent struct {
	Restarts  int64 `json:"restarts"`
	Conflicts int64 `json:"conflicts"`
}

// Kind implements Event.
func (RestartEvent) Kind() string { return "restart" }

// QACallEvent records one multi-read device access: per-read hardware
// energies and chain-break counts (the diagnostic signals of annealer-backed
// solving), the chain shape of the embedded problem (count, longest chain,
// total chained qubits — chain length drives annealer error, so quality
// analytics bucket break rates by it), the best-energy read index, and the
// modelled device time charged for the access.
type QACallEvent struct {
	Call         int64     `json:"call"`
	Reads        int       `json:"reads"`
	Energies     []float64 `json:"energies"`
	BrokenChains []int     `json:"broken_chains"`
	Chains       int       `json:"chains"`
	MaxChainLen  int       `json:"max_chain_len,omitempty"`
	ChainQubits  int       `json:"chain_qubits,omitempty"`
	Best         int       `json:"best"`
	// BatchSize is the number of co-tiled member requests sharing the device
	// program this access ran in (0 or 1 = a solo program). When >1, DeviceNs
	// carries this member's pro-rata share of the single program's access
	// time — the per-member events of one batch sum exactly to the program's
	// total, so summing DeviceNs over a trace never double-counts batched
	// device time.
	BatchSize int   `json:"batch_size,omitempty"`
	DeviceNs  int64 `json:"device_ns"`
}

// Kind implements Event.
func (QACallEvent) Kind() string { return "qa_call" }

// BatchEvent records one batched device program assembled by the qbatch
// scheduler: how many member requests were co-tiled, total reads across
// members, the read count actually programmed (max over members — every read
// cycle reads all members out together), merged problem size, the modelled
// device time of the single program, and the device time saved versus running
// each member as its own program.
type BatchEvent struct {
	Members       int   `json:"members"`
	TotalReads    int   `json:"total_reads"`
	ProgramReads  int   `json:"program_reads"`
	ActiveQubits  int   `json:"active_qubits,omitempty"`
	DeviceNs      int64 `json:"device_ns"`
	DeviceSavedNs int64 `json:"device_saved_ns"`
}

// Kind implements Event.
func (BatchEvent) Kind() string { return "qa_batch" }

// EmbedEvent records one frontend embedding step: the clause-queue length,
// how many clauses were embedded (0 = unusable queue, skipped to CDCL),
// whether the embedding cache served the queue, and the hardware cell usage
// (active qubits out of the hardware graph's qubits).
type EmbedEvent struct {
	Iteration      int64 `json:"iteration"`
	QueueLen       int   `json:"queue_len"`
	Embedded       int   `json:"embedded"`
	CacheHit       bool  `json:"cache_hit"`
	ActiveQubits   int   `json:"active_qubits"`
	HardwareQubits int   `json:"hardware_qubits"`
}

// Kind implements Event.
func (EmbedEvent) Kind() string { return "embed" }

// StrategyHitEvent records the backend's classification of one QA access
// (the Fig 9 outcome taxonomy) and which feedback strategy fired on it.
// Strategy is 1, 2, 3 or 4 per the paper, or 0 when the class's strategy was
// disabled by the ablation mask. One event is emitted per QA-guided
// iteration, so class counts over a trace reconstruct Fig 9.
type StrategyHitEvent struct {
	Iteration   int64   `json:"iteration"`
	Class       string  `json:"class"`
	Strategy    int     `json:"strategy"`
	Energy      float64 `json:"energy"`
	AllEmbedded bool    `json:"all_embedded"`
}

// Kind implements Event.
func (StrategyHitEvent) Kind() string { return "strategy" }

// PhaseSpan records one contiguous stay in a pipeline phase, with monotonic
// start/end offsets (nanoseconds since the phase tracker's origin). Spans of
// the same tracker are disjoint by construction — the tracker counts any
// overlap as a violation (see PhaseTracker).
type PhaseSpan struct {
	Phase   string `json:"phase"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Kind implements Event.
func (PhaseSpan) Kind() string { return "phase_span" }

// Duration returns the span length in nanoseconds.
func (p PhaseSpan) Duration() int64 { return p.EndNs - p.StartNs }

// PortfolioEvent records portfolio-race progress: an entrant entering the
// race ("start", once per entrant), finishing with a verdict ("sat",
// "unsat", "error"), or being declared the race winner ("winner").
type PortfolioEvent struct {
	Entrant string `json:"entrant"`
	Status  string `json:"status"`
	Err     string `json:"err,omitempty"`
}

// Kind implements Event.
func (PortfolioEvent) Kind() string { return "portfolio" }

// BreakerEvent records one circuit-breaker state transition of the QPU
// access layer: closed → open when consecutive submissions keep failing,
// open → half-open when the cooldown elapses and a probe is admitted,
// half-open → closed (probe succeeded, QA traffic resumes) or half-open →
// open (probe failed, back to cooldown).
type BreakerEvent struct {
	Backend  string `json:"backend"`
	From     string `json:"from"`
	To       string `json:"to"`
	Failures int    `json:"failures"` // consecutive failures at transition time
}

// Kind implements Event.
func (BreakerEvent) Kind() string { return "breaker" }

// QPURetryEvent records one retry of a failed QPU submission: which call and
// attempt is being retried, the backoff slept before it, and the error that
// caused it.
type QPURetryEvent struct {
	Call      int64  `json:"call"`
	Attempt   int    `json:"attempt"`
	BackoffNs int64  `json:"backoff_ns"`
	Err       string `json:"err"`
}

// Kind implements Event.
func (QPURetryEvent) Kind() string { return "qpu_retry" }

// QPUFaultEvent records one fault injected by the deterministic fault
// injector (timeout, transient, outage, slow, truncate, corrupt, drift) —
// the ground truth chaos tests correlate observed behaviour against.
type QPUFaultEvent struct {
	Call  int64  `json:"call"`
	Fault string `json:"fault"`
}

// Kind implements Event.
func (QPUFaultEvent) Kind() string { return "qpu_fault" }

// DegradeEvent records the hybrid loop degrading one warm-up iteration to
// pure CDCL because the QA backend failed (submission error, open breaker, or
// a read set that failed boundary validation). The solve continues — CDCL
// absorbs the missing guidance — so degradation is an availability signal,
// not a correctness one.
type DegradeEvent struct {
	Iteration int64  `json:"iteration"`
	Err       string `json:"err"`
}

// Kind implements Event.
func (DegradeEvent) Kind() string { return "degrade" }

// ShareEvent summarises the clause-sharing bus at the end of a race or cube
// run: clauses accepted for distribution, clauses attached by importers,
// offers rejected by the size/LBD filter, offers dropped as fingerprint
// duplicates, and deliveries lost to full peer inboxes.
type ShareEvent struct {
	Exported   int64 `json:"exported"`
	Imported   int64 `json:"imported"`
	Filtered   int64 `json:"filtered"`
	Duplicates int64 `json:"duplicates"`
	Dropped    int64 `json:"dropped"`
}

// Kind implements Event.
func (ShareEvent) Kind() string { return "share" }

// CubeEvent records the fate of one assumption cube in a cube-and-conquer
// run: which worker took it, how it ended ("refuted" — UNSAT under the cube,
// "sat" — model found, "abandoned" — run cancelled first), and the worker's
// cumulative conflict count at that point.
type CubeEvent struct {
	Cube      int    `json:"cube"`
	Worker    int    `json:"worker"`
	Status    string `json:"status"`
	Conflicts int64  `json:"conflicts"`
}

// Kind implements Event.
func (CubeEvent) Kind() string { return "cube" }

// JobEvent records a lifecycle transition of one service job in hyqsatd:
// "accepted" (admitted to the queue), "rejected" (admission refused — Err
// carries the stable reason tag: "queue_full", "quota", "draining", ...),
// "started", "done" (Verdict "sat"/"unsat"/"unknown"), "failed", and
// "checkpointed" (drain interrupted the solve; the job is resumable). QueueMs
// is the time spent waiting for a worker, RunMs the solve time; both are zero
// until the respective phase has happened.
type JobEvent struct {
	Job     string `json:"job"`
	Tenant  string `json:"tenant"`
	State   string `json:"state"`
	Verdict string `json:"verdict,omitempty"`
	Err     string `json:"err,omitempty"`
	QueueMs int64  `json:"queue_ms,omitempty"`
	RunMs   int64  `json:"run_ms,omitempty"`
}

// Kind implements Event.
func (JobEvent) Kind() string { return "job" }
