package qpu

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/obs"
)

// RemoteError is a failure of a remote QPU submission with a stable,
// machine-checkable reason — the wire-level analogue of anneal.ReadSetError:
//
//	"network"   the request never produced a response (dial/reset/timeout)
//	"truncated" the response body ended mid-stream
//	"oversized" the response body exceeded the configured size cap
//	"decode"    the body was not valid JSON
//	"shape"     the JSON decoded but is not a plausible read set
//	"status"    the server answered with a non-200 status
type RemoteError struct {
	Reason string
	// Status is the HTTP status for reason "status", 0 otherwise.
	Status int
	Detail string
	// RetryAfter is the server-requested backoff for 429/503 responses.
	RetryAfter time.Duration
	// Permanent marks failures that retrying cannot fix: the request is
	// rejected by policy (auth, quota budget spent, payload refused), not by
	// transient conditions. The Resilient wrapper stops retrying and the
	// hybrid loop may stop submitting entirely.
	IsPermanent bool
}

func (e *RemoteError) Error() string {
	if e.Reason == "status" {
		return fmt.Sprintf("qpu: remote backend: http %d: %s", e.Status, e.Detail)
	}
	return fmt.Sprintf("qpu: remote backend (%s): %s", e.Reason, e.Detail)
}

// Permanent implements the permanent-failure classification (see Permanent).
func (e *RemoteError) Permanent() bool { return e.IsPermanent }

// Permanent reports whether err is a permanent backend failure — one that
// retries, backoff, or a breaker cooldown cannot fix (quota budget exhausted,
// authorization rejected, payload refused by policy). Callers use it to stop
// submitting rather than to keep paying for rejections: the Resilient wrapper
// aborts its retry loop, and the hybrid loop disables QA for the remainder of
// the solve.
func Permanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// RemoteConfig configures a Remote backend. Zero values are completed with
// production defaults by NewRemote.
type RemoteConfig struct {
	// BaseURL locates the hyqsatd service, e.g. "http://qpu-pool:8677".
	BaseURL string
	// Tenant names this client for quota accounting (header X-Hyqsat-Tenant);
	// empty means the server's default tenant.
	Tenant string
	// Client is the HTTP client; nil builds one with pooled connections and
	// no global timeout (deadlines come from the context per call).
	Client *http.Client
	// MaxBody caps the response body size (default 16 MiB); larger bodies are
	// rejected with reason "oversized" rather than buffered.
	MaxBody int64
	// Replays is how many extra times one Submit re-sends the SAME logical
	// operation (same Idempotency-Key) after a response-loss class failure —
	// network error, truncation, 5xx. The server caches responses per key, so
	// a replay retrieves the result of an access that already executed
	// instead of executing (and charging) it again. Default 1. Failures the
	// server answered conclusively (4xx, 429) are never replayed here; those
	// are the Resilient wrapper's domain, as fresh operations.
	Replays int
	// Seed makes the idempotency-key stream deterministic for tests; 0 draws
	// a random instance id.
	Seed int64
}

// Remote is the client side of the hyqsatd wire: it implements Backend by
// POSTing embedded problems to a remote annealer pool. It is engineered for
// the wire's failure modes — every malformed response maps to a typed
// *RemoteError, context deadlines become hard HTTP cancellation, and each
// Submit is one idempotent logical operation that transport replays never
// execute twice server-side.
//
// Compose it under Resilient for retry/backoff/breaker, and inside Fallback
// to degrade to a Local backend when the service is unreachable:
//
//	NewFallback(NewResilient(remote, cfg), NewLocal(sampler), fcfg)
type Remote struct {
	cfg      RemoteConfig
	endpoint string
	client   *http.Client
	instance string
	calls    atomic.Int64
}

// NewRemote builds a Remote backend for the service at cfg.BaseURL.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("qpu: remote base url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("qpu: remote base url %q: scheme must be http or https", cfg.BaseURL)
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 16 << 20
	}
	if cfg.Replays <= 0 {
		cfg.Replays = 1
	}
	client := cfg.Client
	if client == nil {
		tr, ok := http.DefaultTransport.(*http.Transport)
		if ok {
			t := tr.Clone()
			t.MaxIdleConnsPerHost = 16
			client = &http.Client{Transport: t}
		} else {
			client = &http.Client{}
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Remote{
		cfg:      cfg,
		endpoint: strings.TrimRight(u.String(), "/") + SamplePath,
		client:   client,
		instance: strconv.FormatUint(rand.New(rand.NewSource(seed)).Uint64(), 36),
	}, nil
}

// Name implements Backend.
func (r *Remote) Name() string { return "remote" }

// Submit implements Backend: it ships ep over the wire and decodes the read
// set. One Submit is one logical device access under one idempotency key;
// response-loss failures are replayed under the same key up to Replays times
// (the server serves the cached response if the access already executed).
// Everything else returns a typed error for the layers above: *RemoteError
// for wire and policy failures, the context's error for cancellation.
func (r *Remote) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	if err := ctx.Err(); err != nil {
		return anneal.ReadSet{}, err
	}
	if reads <= 0 {
		reads = 1
	}
	body, err := json.Marshal(&SampleRequest{Problem: ep.Wire(), Reads: reads})
	if err != nil {
		return anneal.ReadSet{}, &RemoteError{Reason: "decode", Detail: "encoding request: " + err.Error(), IsPermanent: true}
	}
	key := r.instance + "-" + strconv.FormatInt(r.calls.Add(1), 10)

	var lastErr error
	for attempt := 0; attempt <= r.cfg.Replays; attempt++ {
		if err := ctx.Err(); err != nil {
			// Don't mask a concrete wire failure with the bare context error.
			if lastErr != nil {
				return anneal.ReadSet{}, lastErr
			}
			return anneal.ReadSet{}, err
		}
		rs, err := r.do(ctx, key, body)
		if err == nil {
			return rs, nil
		}
		lastErr = err
		if !replayable(err) {
			break
		}
	}
	return anneal.ReadSet{}, lastErr
}

// replayable reports whether a same-key transport replay can help: yes for
// response-loss classes (the server may have executed and cached the result),
// no for conclusive server answers and for local/context failures.
func replayable(err error) bool {
	var re *RemoteError
	if !errors.As(err, &re) {
		return false // context cancellation, local failures
	}
	switch re.Reason {
	case "network", "truncated", "oversized", "decode", "shape":
		return true
	case "status":
		return re.Status >= 500
	}
	return false
}

// do performs one HTTP exchange under the given idempotency key and maps
// every outcome to (ReadSet, nil) or a typed error.
func (r *Remote) do(ctx context.Context, key string, body []byte) (anneal.ReadSet, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.endpoint, bytes.NewReader(body))
	if err != nil {
		return anneal.ReadSet{}, &RemoteError{Reason: "network", Detail: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderIdempotency, key)
	if r.cfg.Tenant != "" {
		req.Header.Set(HeaderTenant, r.cfg.Tenant)
	}
	if d, ok := ctx.Deadline(); ok {
		if ms := time.Until(d).Milliseconds(); ms > 0 {
			req.Header.Set(HeaderDeadlineMs, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		// The transport wraps context errors; surface cancellation as itself
		// so the layers above distinguish "caller gone" from "wire broken".
		if ctxErr := ctx.Err(); ctxErr != nil {
			return anneal.ReadSet{}, ctxErr
		}
		return anneal.ReadSet{}, &RemoteError{Reason: "network", Detail: err.Error()}
	}
	defer func() {
		// Drain a bounded remainder so the connection can be reused, then close.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()

	if resp.StatusCode != http.StatusOK {
		return anneal.ReadSet{}, r.statusError(resp)
	}
	lr := io.LimitReader(resp.Body, r.cfg.MaxBody+1)
	blob, err := io.ReadAll(lr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return anneal.ReadSet{}, ctxErr
		}
		return anneal.ReadSet{}, &RemoteError{Reason: "truncated", Detail: err.Error()}
	}
	if int64(len(blob)) > r.cfg.MaxBody {
		return anneal.ReadSet{}, &RemoteError{Reason: "oversized",
			Detail: fmt.Sprintf("response body exceeds %d bytes", r.cfg.MaxBody)}
	}
	var sr SampleResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		reason := "decode"
		if errors.Is(err, io.ErrUnexpectedEOF) || strings.Contains(err.Error(), "unexpected end of JSON input") {
			reason = "truncated"
		}
		return anneal.ReadSet{}, &RemoteError{Reason: reason, Detail: err.Error()}
	}
	return sr.ReadSet()
}

// statusError maps a non-200 response to a typed error, reading the JSON
// error body (bounded) for the detail when present.
func (r *Remote) statusError(resp *http.Response) *RemoteError {
	re := &RemoteError{Reason: "status", Status: resp.StatusCode}
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var eb WireErrorBody
	if json.Unmarshal(blob, &eb) == nil && eb.Error != "" {
		re.Detail = eb.Error
		if eb.Detail != "" {
			re.Detail += ": " + eb.Detail
		}
	} else {
		re.Detail = strings.TrimSpace(string(blob))
		if re.Detail == "" {
			re.Detail = http.StatusText(resp.StatusCode)
		}
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			re.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	switch resp.StatusCode {
	case http.StatusUnauthorized, http.StatusForbidden, http.StatusNotFound,
		http.StatusRequestEntityTooLarge, http.StatusBadRequest:
		// Policy rejections: resending the same request cannot succeed.
		re.IsPermanent = true
	}
	return re
}

// Fallback composes a primary and a standby Backend: every Submit tries the
// primary first and serves the standby on any primary failure (except caller
// cancellation). With a Resilient(Remote) primary and a Local standby this is
// the degradation contract of the networked deployment — a dead, overloaded,
// or misbehaving annealer service costs remote guidance, never a solve: the
// breaker opens, Submits fail fast, and the emulated local device takes over
// until the probe succeeds.
type Fallback struct {
	primary, standby Backend
	fellBack         *obs.Counter
	served           *obs.Counter
}

// FallbackConfig wires telemetry for a Fallback backend.
type FallbackConfig struct {
	// Metrics receives qpu_fallbacks (primary failures served by the
	// standby) and qpu_fallback_standby_errors; nil creates a private
	// registry.
	Metrics *obs.Registry
}

// NewFallback builds the composition. Both backends must be non-nil.
func NewFallback(primary, standby Backend, cfg FallbackConfig) *Fallback {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Fallback{
		primary:  primary,
		standby:  standby,
		fellBack: reg.Counter("qpu_fallbacks"),
		served:   reg.Counter("qpu_fallback_standby_errors"),
	}
}

// Name implements Backend.
func (f *Fallback) Name() string {
	return "fallback(" + f.primary.Name() + "|" + f.standby.Name() + ")"
}

// FellBack reports how many submissions the standby ended up serving.
func (f *Fallback) FellBack() int64 { return f.fellBack.Value() }

// Submit implements Backend.
func (f *Fallback) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	rs, err := f.primary.Submit(ctx, ep, reads)
	if err == nil {
		return rs, nil
	}
	if ctx.Err() != nil {
		// The caller is gone; the standby would only burn time.
		return anneal.ReadSet{}, err
	}
	f.fellBack.Inc()
	rs, serr := f.standby.Submit(ctx, ep, reads)
	if serr != nil {
		f.served.Inc()
		// Both sides failed: report the standby's error with the primary's
		// attached, so degrade events carry the full story.
		return anneal.ReadSet{}, fmt.Errorf("%w (primary: %v)", serr, err)
	}
	return rs, nil
}
