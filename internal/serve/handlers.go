package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hyqsat/internal/qbatch"
	"hyqsat/internal/qpu"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs        submit a solve (DIMACS CNF in JSON); 202 + job view
//	GET  /v1/jobs/{id}   job status/result
//	POST /v1/qpu/sample  one QA device access over HTTP (qpu wire format)
//	GET  /healthz        liveness + drain state
//
// Every refusal carries a JSON body in qpu.WireErrorBody shape and, when the
// condition is temporary, a Retry-After header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST "+qpu.SamplePath, s.handleSample)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// tenantOf extracts the tenant, bounded so a hostile header cannot blow up
// accounting keys or trace payloads.
func tenantOf(req *http.Request) string {
	t := req.Header.Get(qpu.HeaderTenant)
	if t == "" {
		return "anonymous"
	}
	if len(t) > 64 {
		t = t[:64]
	}
	return t
}

// deadlineOf converts the X-Hyqsat-Deadline-Ms header into an absolute
// deadline. Absent or malformed headers mean no client deadline.
func deadlineOf(req *http.Request) time.Time {
	ms, err := strconv.ParseInt(req.Header.Get(qpu.HeaderDeadlineMs), 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeRefusal(w http.ResponseWriter, ae *AdmissionError) {
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(ae.RetryAfter))
	}
	writeJSON(w, ae.Status, qpu.WireErrorBody{Error: ae.Tag, Detail: ae.Detail})
}

func (s *Service) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.cfg.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, qpu.WireErrorBody{Error: "oversized"})
			return
		}
		writeJSON(w, http.StatusBadRequest, qpu.WireErrorBody{Error: "read", Detail: err.Error()})
		return
	}
	var sr SubmitRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		writeJSON(w, http.StatusBadRequest, qpu.WireErrorBody{Error: "bad_json", Detail: err.Error()})
		return
	}
	view, replayed, err := s.Submit(tenantOf(req), req.Header.Get(qpu.HeaderIdempotency), sr,
		deadlineOf(req))
	if err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			writeRefusal(w, ae)
			return
		}
		writeJSON(w, http.StatusInternalServerError, qpu.WireErrorBody{Error: "internal", Detail: err.Error()})
		return
	}
	// A replayed idempotent submit returns the existing job with 200; a
	// fresh admission is 202 (the job runs asynchronously).
	status := http.StatusAccepted
	if replayed {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Service) handleJob(w http.ResponseWriter, req *http.Request) {
	view, ok := s.Job(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, qpu.WireErrorBody{Error: "unknown_job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleHealth(w http.ResponseWriter, req *http.Request) {
	state := "serving"
	if s.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"state":   state,
		"tenants": s.tenants.Names(),
		"queue":   len(s.queue),
	})
}

// handleSample serves one QA device access to an HTTP client speaking the
// qpu wire format: decode and fully re-validate the wire problem, charge the
// tenant's device-time bucket, sample through the batcher, and cache the
// response under the idempotency key so a client that resends a request
// observes the identical read set without a second (charged) device access.
func (s *Service) handleSample(w http.ResponseWriter, req *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.DrainGrace))
		writeJSON(w, http.StatusServiceUnavailable, qpu.WireErrorBody{Error: "draining"})
		return
	}
	tenant := tenantOf(req)
	var status int
	var blob []byte
	if key := req.Header.Get(qpu.HeaderIdempotency); key != "" {
		e, owner := s.samples.begin(tenant + "\x00" + key)
		if owner {
			// Refusals are cached too: a replayed request must see the same
			// outcome, not a second quota charge.
			status, blob = s.sampleOnce(req)
			e.finish(status, blob)
		} else {
			// A replay — possibly racing the original. Wait for its
			// response instead of executing (and charging) again.
			s.m.qpuReplays.Inc()
			<-e.done
			status, blob = e.status, e.blob
		}
	} else {
		status, blob = s.sampleOnce(req)
	}
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_, _ = w.Write(blob)
}

// sampleOnce performs the charged sampling work and returns the response to
// both send and cache.
func (s *Service) sampleOnce(req *http.Request) (int, []byte) {
	fail := func(status int, tag, detail string) (int, []byte) {
		s.m.qpuRejected.Inc()
		blob, _ := json.Marshal(qpu.WireErrorBody{Error: tag, Detail: detail})
		return status, blob
	}
	if dl := deadlineOf(req); !dl.IsZero() && !time.Now().Before(dl) {
		return fail(http.StatusGatewayTimeout, "deadline", "client deadline already expired")
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, req.Body, s.cfg.MaxBody))
	if err != nil {
		return fail(http.StatusRequestEntityTooLarge, "oversized", "")
	}
	var sr qpu.SampleRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		return fail(http.StatusBadRequest, "bad_json", err.Error())
	}
	if sr.Problem == nil {
		return fail(http.StatusBadRequest, "bad_problem", "no problem in request")
	}
	if sr.Reads < 1 || sr.Reads > qpu.MaxReads {
		return fail(http.StatusBadRequest, "bad_reads", "reads outside [1,"+strconv.Itoa(qpu.MaxReads)+"]")
	}
	ep, err := sr.Problem.Problem()
	if err != nil {
		return fail(http.StatusBadRequest, "bad_problem", err.Error())
	}
	// Pre-charge the full solo access time — admission must see the worst
	// case — then refund the difference once the batcher reports the actual
	// pro-rata share of the (possibly shared) device program.
	tenant := tenantOf(req)
	cost := s.cfg.Solve.Timing.AccessTime(sr.Reads)
	if err := s.tenants.ChargeDevice(tenant, cost); err != nil {
		s.m.qpuRejected.Inc()
		var qe *QuotaError
		if errors.As(err, &qe) {
			blob, _ := json.Marshal(qpu.WireErrorBody{Error: "quota", Detail: qe.Error()})
			return admissionFromQuota(qe).Status, blob
		}
		blob, _ := json.Marshal(qpu.WireErrorBody{Error: "internal", Detail: err.Error()})
		return http.StatusInternalServerError, blob
	}
	rs, share, err := s.batcher.SubmitCosted(req.Context(), ep, sr.Reads)
	if err != nil {
		// share is what the device actually ran for this request (0 unless
		// the client abandoned a batch already programmed); refund the rest.
		s.tenants.RefundDevice(tenant, cost-share)
		s.m.deviceBusyNs.Add(share.Nanoseconds())
		var pe *qbatch.PackError
		if errors.As(err, &pe) {
			return fail(http.StatusBadRequest, "bad_topology", pe.Error())
		}
		if share > 0 {
			// The program ran and the tenant is charged for it: a sample
			// whose client left, not a refusal.
			s.m.qpuSamples.Inc()
			blob, _ := json.Marshal(qpu.WireErrorBody{Error: "cancelled", Detail: err.Error()})
			return http.StatusServiceUnavailable, blob
		}
		return fail(http.StatusServiceUnavailable, "cancelled", err.Error())
	}
	s.tenants.RefundDevice(tenant, cost-share)
	s.m.qpuSamples.Inc()
	s.m.deviceBusyNs.Add(share.Nanoseconds())
	blob, err := json.Marshal(qpu.EncodeReadSet(&rs))
	if err != nil {
		blob, _ = json.Marshal(qpu.WireErrorBody{Error: "internal", Detail: err.Error()})
		return http.StatusInternalServerError, blob
	}
	return http.StatusOK, blob
}

// idemCache is the bounded response-replay cache of the sample endpoint,
// with in-flight deduplication: a replay arriving while the original request
// is still sampling waits for its response instead of sampling again.
type idemCache struct {
	mu    sync.Mutex
	max   int
	byKey map[string]*idemEntry
	order []string
}

type idemEntry struct {
	done   chan struct{}
	status int
	blob   []byte
}

func newIdemCache(max int) *idemCache {
	return &idemCache{max: max, byKey: make(map[string]*idemEntry)}
}

// begin claims key. The second return is true for the owner — the caller
// that must execute the request and finish the entry; false means another
// request already owns the key and the entry's done channel gates its
// response.
func (c *idemCache) begin(key string) (*idemEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.byKey[key]; e != nil {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{})}
	c.byKey[key] = e
	c.order = append(c.order, key)
	// Evict oldest finished entries past the cap; in-flight entries are
	// skipped (their owner still needs them).
	for i := 0; len(c.byKey) > c.max && i < len(c.order); {
		victim := c.order[i]
		ve := c.byKey[victim]
		if ve == nil {
			c.order = append(c.order[:i], c.order[i+1:]...)
			continue
		}
		select {
		case <-ve.done:
			delete(c.byKey, victim)
			c.order = append(c.order[:i], c.order[i+1:]...)
		default:
			i++
		}
	}
	return e, true
}

// finish publishes the owner's response to any waiting replays.
func (e *idemEntry) finish(status int, blob []byte) {
	e.status, e.blob = status, blob
	close(e.done)
}
