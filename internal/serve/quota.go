package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// TenantQuota is the resource policy applied to each tenant's own usage;
// every tenant gets Config.DefaultQuota.
type TenantQuota struct {
	// MaxConcurrent bounds jobs admitted but not yet finished (queued +
	// running). 0 means the service default.
	MaxConcurrent int
	// DeviceBudget is the QA device-time budget in the bucket at full refill
	// (and the initial balance). Each /v1/qpu/sample call charges the
	// modelled TimingModel.AccessTime of the access. 0 means the service
	// default.
	DeviceBudget time.Duration
	// DeviceRefill is the budget regained per second. 0 means the budget is
	// a hard allowance: once spent, further QA accesses are refused
	// permanently (403) instead of throttled (429).
	DeviceRefill time.Duration
}

// QuotaError is a typed admission refusal. Temporary refusals carry a
// RetryAfter hint and become 429s; permanent ones (hard budget spent) set
// IsPermanent and become 403s.
type QuotaError struct {
	Tenant      string
	Resource    string // "device_time" | "concurrency" | "tenants"
	RetryAfter  time.Duration
	IsPermanent bool
}

func (e *QuotaError) Error() string {
	if e.IsPermanent {
		return fmt.Sprintf("tenant %q: %s budget spent", e.Tenant, e.Resource)
	}
	return fmt.Sprintf("tenant %q: %s exhausted, retry after %v", e.Tenant, e.Resource, e.RetryAfter)
}

// bucket is a token bucket over time.Duration tokens with an injectable
// clock. Not safe for concurrent use; the tenant registry's lock covers it.
type bucket struct {
	capacity time.Duration
	refill   time.Duration // tokens per second; 0 = never refills
	balance  time.Duration
	last     time.Time
}

func (b *bucket) advance(now time.Time) {
	if b.refill <= 0 {
		return
	}
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.balance += time.Duration(float64(b.refill) * elapsed.Seconds())
		if b.balance > b.capacity {
			b.balance = b.capacity
		}
	}
	b.last = now
}

// take withdraws cost, or reports how long until the balance covers it.
// A zero wait with ok=false means the bucket can never cover the cost.
func (b *bucket) take(now time.Time, cost time.Duration) (wait time.Duration, ok bool) {
	b.advance(now)
	if cost <= b.balance {
		b.balance -= cost
		return 0, true
	}
	if b.refill <= 0 || cost > b.capacity {
		return 0, false
	}
	need := cost - b.balance
	wait = time.Duration(float64(need) / float64(b.refill) * float64(time.Second))
	if wait < time.Second {
		wait = time.Second // Retry-After granularity is whole seconds
	}
	return wait, false
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	device   bucket
	inFlight int       // admitted jobs not yet finished
	lastSeen time.Time // for eviction of idle tenants at capacity
}

// tenants is the bounded tenant registry: live usage per tenant, all under
// the same default quota. The map is capped; when full, idle tenants (no in-flight work) are evicted
// oldest-first, and if every tenant is busy, new tenants are refused rather
// than growing without bound — tenant names come off the wire and must not
// be able to exhaust memory.
type tenants struct {
	mu       sync.Mutex
	byName   map[string]*tenantState
	max      int
	defaults TenantQuota
	now      func() time.Time
}

func newTenants(max int, defaults TenantQuota, now func() time.Time) *tenants {
	return &tenants{
		byName:   make(map[string]*tenantState),
		max:      max,
		defaults: defaults,
		now:      now,
	}
}

// get returns the tenant's state, creating it under the cap. The caller must
// hold t.mu.
func (t *tenants) get(name string) (*tenantState, error) {
	ts := t.byName[name]
	if ts == nil {
		if len(t.byName) >= t.max && !t.evictIdle() {
			return nil, &QuotaError{Tenant: name, Resource: "tenants", RetryAfter: time.Second}
		}
		q := t.defaults
		ts = &tenantState{
			device: bucket{
				capacity: q.DeviceBudget,
				refill:   q.DeviceRefill,
				balance:  q.DeviceBudget,
				last:     t.now(),
			},
		}
		t.byName[name] = ts
	}
	ts.lastSeen = t.now()
	return ts, nil
}

// evictIdle removes the least recently seen tenant with no in-flight work.
// The caller must hold t.mu.
func (t *tenants) evictIdle() bool {
	var victim string
	var oldest time.Time
	for name, ts := range t.byName {
		if ts.inFlight > 0 {
			continue
		}
		if victim == "" || ts.lastSeen.Before(oldest) {
			victim, oldest = name, ts.lastSeen
		}
	}
	if victim == "" {
		return false
	}
	delete(t.byName, victim)
	return true
}

// AdmitJob reserves one concurrency slot for the tenant.
func (t *tenants) AdmitJob(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, err := t.get(name)
	if err != nil {
		return err
	}
	if ts.inFlight >= t.defaults.MaxConcurrent {
		return &QuotaError{Tenant: name, Resource: "concurrency", RetryAfter: time.Second}
	}
	ts.inFlight++
	return nil
}

// FinishJob releases a concurrency slot reserved by AdmitJob.
func (t *tenants) FinishJob(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts := t.byName[name]; ts != nil && ts.inFlight > 0 {
		ts.inFlight--
	}
}

// ChargeDevice withdraws modelled QA device time from the tenant's bucket.
func (t *tenants) ChargeDevice(name string, cost time.Duration) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, err := t.get(name)
	if err != nil {
		return err
	}
	wait, ok := ts.device.take(t.now(), cost)
	if ok {
		return nil
	}
	if wait == 0 {
		return &QuotaError{Tenant: name, Resource: "device_time", IsPermanent: true}
	}
	return &QuotaError{Tenant: name, Resource: "device_time", RetryAfter: wait}
}

// RefundDevice returns unspent device time to the tenant's bucket, clamped
// to capacity. The batching sample path pre-charges the full solo access
// time and refunds the difference to the actual pro-rata share once the
// batched program has run.
func (t *tenants) RefundDevice(name string, amount time.Duration) {
	if amount <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.byName[name]
	if ts == nil {
		return
	}
	ts.device.balance += amount
	if ts.device.balance > ts.device.capacity {
		ts.device.balance = ts.device.capacity
	}
}

// Names returns the registered tenant names, sorted, for status reporting.
func (t *tenants) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.byName))
	for name := range t.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
