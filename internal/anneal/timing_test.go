package anneal

import (
	"testing"
	"time"
)

// TestAccessTime2000Q pins the modelled device-time formula to hand-computed
// values for the paper's 2000Q configuration (1 µs programming, 20 µs anneal,
// 110 µs readout, 20 µs inter-sample delay):
//
//	AccessTime(n) = programming + n·(anneal+readout) + (n−1)·delay
func TestAccessTime2000Q(t *testing.T) {
	tm := DWave2000QTiming()
	cases := []struct {
		n    int
		want time.Duration
	}{
		{1, 131 * time.Microsecond},     // 1 + 130
		{10, 1481 * time.Microsecond},   // 1 + 1300 + 180
		{100, 14981 * time.Microsecond}, // 1 + 13000 + 1980
	}
	for _, c := range cases {
		if got := tm.AccessTime(c.n); got != c.want {
			t.Errorf("AccessTime(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestAccessTimeEdgeCases(t *testing.T) {
	tm := DWave2000QTiming()
	if got := tm.AccessTime(0); got != 0 {
		t.Errorf("AccessTime(0) = %v, want 0", got)
	}
	if got := tm.AccessTime(-3); got != 0 {
		t.Errorf("AccessTime(-3) = %v, want 0", got)
	}
	// The zero model charges nothing — the simulator configuration.
	var zero TimingModel
	if zero.AccessTime(10) != 0 {
		t.Errorf("zero model charges %v", zero.AccessTime(10))
	}
}

// TestAccessTimeScalesLinearly checks the arithmetic identity the batching
// analysis relies on: each additional read costs anneal+readout+delay.
func TestAccessTimeScalesLinearly(t *testing.T) {
	tm := DWave2000QTiming()
	perRead := tm.AnnealTime + tm.ReadoutTime + tm.InterSampleDelay
	for n := 2; n <= 64; n *= 2 {
		if got, want := tm.AccessTime(n)-tm.AccessTime(n-1), perRead; got != want {
			t.Fatalf("marginal cost at n=%d is %v, want %v", n, got, want)
		}
	}
}
