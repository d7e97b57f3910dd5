package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("hits") != c {
		t.Fatal("Counter not idempotent by name")
	}
	g := r.Gauge("depth")
	g.Set(9)
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	if r.Gauge("depth") != g {
		t.Fatal("Gauge not idempotent by name")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	// Observations land in the first bucket whose upper bound is ≥ the value;
	// values above every bound fall into the implicit +Inf bucket.
	for _, v := range []float64{0.5, 1, 5, 10, 99, 100.5} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+10+99+100.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	snap := r.Snapshot().Histograms["lat"]
	wantCounts := []int64{2, 2, 1, 1} // ≤1, ≤10, ≤100, +Inf
	for i, w := range wantCounts {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if r.Histogram("lat", nil) != h {
		t.Fatal("Histogram not idempotent by name")
	}
}

func TestHistogramSortsBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", []float64{100, 1, 10})
	h.Observe(2)
	snap := r.Snapshot().Histograms["x"]
	if snap.Bounds[0] != 1 || snap.Counts[1] != 1 {
		t.Fatalf("unsorted bounds mishandled: %+v", snap)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalF64(exp, want) {
		t.Fatalf("ExpBuckets = %v, want %v", exp, want)
	}
	lin := LinearBuckets(0, 0.5, 3)
	if want := []float64{0, 0.5, 1}; !equalF64(lin, want) {
		t.Fatalf("LinearBuckets = %v, want %v", lin, want)
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("solve_conflicts").Add(12)
	r.Gauge("solve_iteration").Set(3)
	h := r.Histogram("solve_depth", []float64{1, 2})
	h.Observe(1)
	h.Observe(5)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE solve_conflicts counter\nsolve_conflicts 12\n",
		"# TYPE solve_iteration gauge\nsolve_iteration 3\n",
		`solve_depth_bucket{le="1"} 1`,
		`solve_depth_bucket{le="2"} 1`, // cumulative: nothing landed in (1,2]
		`solve_depth_bucket{le="+Inf"} 2`,
		"solve_depth_sum 6\n",
		"solve_depth_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h", []float64{10})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	h := r.Histogram("h", nil)
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	// Sum of 0..19 repeated 50 times per worker: 190*50*8.
	if want := float64(190 * 50 * 8); math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), want)
	}
}
