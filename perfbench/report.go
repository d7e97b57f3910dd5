package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the solver or the service sees. Every
// workload reports all of them when run with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ms_p50", "ms"},
	{"hybrid_ms_p50", "ms"},
	{"verdicts_per_s", "1/s"},
	{"mem_peak_mb", "MB"},
}

// perLayer are the single-layer metrics every workload reports when run with
// --trace 1. Layer names are the repository's package names.
var perLayer = []metricDef{
	{"cnf.parse_ms", "ms/verdict"},
	{"hyqsat.new_ms", "ms/verdict"},
	{"hyqsat.frontend_ms", "ms/verdict"},
	{"hyqsat.frontend_us_per_iter", "us"},
	{"hyqsat.backend_ms", "ms/verdict"},
	{"hyqsat.warmup_iters", "count/verdict"},
	{"hyqsat.qa_useful_frac", "ratio"},
	{"hyqsat.degraded", "count"},
	{"embed.cache_hit_frac", "ratio"},
	{"embed.template_frac", "ratio"},
	{"embed.fast_runs", "count/verdict"},
	{"qpu.calls", "count/verdict"},
	{"qpu.submit_us_per_call", "us"},
	{"qpu.errors", "count"},
	{"qpu.device_ms", "ms/verdict"},
	{"anneal.reads", "count/verdict"},
	{"qbatch.members_per_program", "count"},
	{"qbatch.solo_frac", "ratio"},
	{"qbatch.device_saved_frac", "ratio"},
	{"sat.cdcl_ms", "ms/verdict"},
	{"sat.conflicts", "count/verdict"},
	{"verify.check_ms", "ms/verdict"},
	{"bench.gen_s", "s"},
	{"bench.probe_ms", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
}

// report is the outcome of one benchmark run: the declared metrics, plus
// workload-specific lines that only the printed table shows.
type report struct {
	attempted, failed int
	values            map[string]float64
	extra             []extraLine
}

type extraLine struct {
	name  string
	value float64
	unit  string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// setTime sets a measured figure scaled to the reference host's speed and
// keeps the raw figure for the table.
func (r *report) setTime(name string, raw, f float64) {
	r.values[name] = raw * f
	for _, d := range endToEnd {
		if d.name == name {
			r.note(name+".raw", raw, d.unit)
		}
	}
}

func (r *report) note(name string, v float64, unit string) {
	r.extra = append(r.extra, extraLine{name, v, unit})
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the human-readable table and, as the last line, the JSON
// result holding the end-to-end metrics (traced=false) or the per-layer
// metrics (traced=true).
func (r *report) write(w io.Writer, workload string, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultOut{Correct: true, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	fmt.Fprintf(w, "# %s: %d attempted, %d failed (failed_frac %.4f)\n",
		workload, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-30s %14.4f %s\n", d.name, v, d.unit)
	}
	if traced {
		for _, d := range endToEnd {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(w, "%-30s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	} else if v, ok := r.values["bench.probe_ms"]; ok {
		fmt.Fprintf(w, "%-30s %14.4f %s\n", "bench.probe_ms", v, "ms")
	}
	for _, e := range r.extra {
		fmt.Fprintf(w, "%-30s %14.4f %s\n", e.name, e.value, e.unit)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// durQuantile is quantile over durations, in milliseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return quantile(xs, q)
}

// durMean is the mean of durations, in milliseconds.
func durMean(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work wasted none).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSampler tracks the peak live Go heap while a run measures. It reads the
// live heap after every garbage collection, from a finalizer that re-arms
// itself each cycle, so it never wakes between collections.
type memSampler struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

func startMemSampler() *memSampler {
	m := &memSampler{}
	m.read()
	m.arm()
	return m
}

// gcTick is garbage the next collection finds and finalizes.
type gcTick struct{ m *memSampler }

// arm makes the next garbage collection read the live heap and re-arm.
func (m *memSampler) arm() {
	runtime.SetFinalizer(&gcTick{m}, func(t *gcTick) {
		t.m.mu.Lock()
		stopped := t.m.stopped
		t.m.mu.Unlock()
		if !stopped {
			t.m.read()
			t.m.arm()
		}
	})
}

func (m *memSampler) read() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	m.mu.Lock()
	m.peak = max(m.peak, s[0].Value.Uint64())
	m.mu.Unlock()
}

// peakMB stops the sampler and returns the peak in MiB.
func (m *memSampler) peakMB() float64 {
	m.read()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
	return float64(m.peak) / (1 << 20)
}
